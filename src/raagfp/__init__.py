"""Finiteness properties of coabelian normal subgroups of pro-p graph
groups, decided from combinatorial and exact linear-algebraic data.

The names below are exported lazily (PEP 562): ``from raagfp import
analyze`` imports ``raagfp.fpcheck`` on first use, so ``import
raagfp.cli`` loads only the modules its commands need.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "coabelian": ("CoabelianSpec", "ZeroPattern", "enumerate_patterns",
                  "fg_coabelian", "fpn_coabelian", "is_full", "parse_matrix"),
    "errors": ("EpimorphismError", "FiniteQuotientError", "SchemaError"),
    "flag_homology": ("ChainComplexFp", "link_complex", "reduced_homology",
                      "simplicial_chain_complex"),
    "fpcheck": ("Character", "analyze", "character_complex",
                "decomposition_check", "fp_via_complex", "fp_via_links",
                "is_fg", "max_fp", "parse_character", "INFINITE"),
    "fpmatrix": ("MatrixFp", "rank_fp"),
    "gog": ("GraphOfFiniteGroups", "check_bounds", "euler_characteristic",
            "euler_report", "free_rank", "is_dihedral_type", "is_reduced",
            "parse_gog", "reduce"),
    "graph": ("SimplicialGraph", "enumerate_cliques", "graph_document",
              "induced_subgraph", "join_factors", "parse_graph"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

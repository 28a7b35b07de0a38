"""Finiteness properties of coabelian normal subgroups of pro-p graph
groups, decided from combinatorial and exact linear-algebraic data."""

from .coabelian import (CoabelianSpec, ZeroPattern, enumerate_patterns,
                        fg_coabelian, fpn_coabelian, is_full, parse_matrix,
                        span_closure)
from .errors import EpimorphismError, FiniteQuotientError, SchemaError
from .flag_homology import (ChainComplexFp, link_complex, reduced_homology,
                            simplicial_chain_complex)
from .fpcheck import (Character, analyze, character_complex,
                      decomposition_check, fp_via_complex, fp_via_links,
                      is_fg, max_fp, parse_character, INFINITE)
from .fpmatrix import MatrixFp, rank_fp
from .gog import (GraphOfFiniteGroups, check_bounds, euler_characteristic,
                  euler_report, free_rank, is_dihedral_type, is_reduced,
                  parse_gog, reduce)
from .graph import (SimplicialGraph, enumerate_cliques, graph_document,
                    induced_subgraph, join_factors, parse_graph)

__version__ = "0.1.0"

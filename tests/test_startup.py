"""What ``import raagfp.cli`` loads, and the package's lazy exports.

Every verdict is one process, so start-up is most of a small call's
wall time: the CLI imports up front only what ``fpn`` and ``coabelian``
run, and ``raagfp/__init__.py`` resolves its exported names on first
use (PEP 562).
"""

import contextlib
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import raagfp
from raagfp.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# modules that fpn, coabelian and a one-worker table never run
NOT_LOADED = ("dataclasses", "inspect", "fractions", "traceback",
              "concurrent.futures", "raagfp.gog", "raagfp.verify")

# every name the package exports, by defining module
EXPORTS = {
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

# Runs in a fresh ``python -I -S``: argv[1] is the src directory,
# argv[2:] the CLI arguments, or none to import raagfp.cli only.  The
# names of the loaded modules go to stderr as the last line, at exit.
PROBE = """
import atexit, sys
src, args = sys.argv[1], sys.argv[2:]
sys.path.insert(0, src)
atexit.register(lambda: sys.stderr.write("\\n" + " ".join(sorted(sys.modules))))
if args:
    import runpy
    sys.argv = ["raagfp"] + args
    runpy.run_module("raagfp", run_name="__main__", alter_sys=True)
else:
    import raagfp.cli
"""

COMMANDS = [
    ["fpn", "corpus/octahedron.graph.json", "corpus/octahedron.ones.chi.json"],
    ["coabelian", "corpus/cycle4.graph.json", "corpus/cycle4.allones.matrix.json",
     "--max-n", "2"],
    ["table", "corpus/cycle4.graph.json"],
]


def probe(args) -> tuple:
    """(exit code, stdout, loaded module names) of one fresh process."""
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE, str(SRC)]
                          + args, cwd=ROOT, capture_output=True, text=True)
    loaded = set(proc.stderr.rsplit("\n", 1)[-1].split())
    return proc.returncode, proc.stdout, loaded


def test_importing_the_cli_skips_what_fpn_and_coabelian_do_not_run():
    code, _, loaded = probe([])
    assert code == 0
    assert "raagfp.cli" in loaded and "raagfp.coabelian" in loaded
    assert loaded.isdisjoint(NOT_LOADED), sorted(loaded & set(NOT_LOADED))


@pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
def test_a_command_process_loads_no_more_and_prints_the_same_report(
        args, monkeypatch):
    code, stdout, loaded = probe(args)
    assert "raagfp.cli" in loaded
    assert loaded.isdisjoint(NOT_LOADED), sorted(loaded & set(NOT_LOADED))
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        want = main(args)
    assert (code, stdout) == (want, out.getvalue())
    assert json.loads(stdout)["command"] == args[0]


def test_the_lazy_exports_are_the_eager_ones():
    assert sorted(raagfp.__all__) == sorted(
        name for names in EXPORTS.values() for name in names)
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"raagfp.{module}")
        for name in names:
            assert getattr(raagfp, name) is getattr(owner, name), name
    assert set(raagfp.__all__) <= set(dir(raagfp))
    assert "__version__" in dir(raagfp)


def test_from_imports_of_names_and_submodules_work():
    from raagfp import analyze, graph
    from raagfp.fpcheck import analyze as defined
    assert analyze is defined
    assert graph.SimplicialGraph("ab").vertices == ("a", "b")


def test_the_example_builders_are_not_part_of_the_package():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("raagfp.corpus")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        raagfp.nope
    with pytest.raises(ImportError):
        from raagfp import nope  # noqa: F401

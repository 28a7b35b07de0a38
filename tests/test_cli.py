import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import examples
import pytest
from dense import FaultyComplex, dense_boundary
from hypothesis import given, settings
from hypothesis import strategies as st

from raagfp.cli import main
from raagfp.frozen import Shared
from raagfp.graph import SimplicialGraph, graph_document

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def c4_files(write):
    g = examples.cycle(4)
    gp = write("c4.json", graph_document(g))
    cp = write("ones.json", {"p": 2, "chi": {v: 1 for v in g.vertices}})
    return gp, cp


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_fg_exit_codes(files, capsys):
    gp, cp = c4_files(files)
    code, out = run(capsys, ["fg", gp, cp])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["fg"] is True
    assert doc["results"]["connected"] and doc["results"]["dominant"]

    p3 = examples.path(3)
    gp2 = files("p3.json", graph_document(p3))
    cp2 = files("chi101.json", {"p": 2, "chi": {"v1": 1, "v2": 0, "v3": 1}})
    code, out = run(capsys, ["fg", gp2, cp2])
    assert code == 1 and json.loads(out)["results"]["fg"] is False

    cp3 = files("zero.json", {"p": 2, "chi": {"v1": 0, "v2": 0, "v3": 0}})
    code, _ = run(capsys, ["fg", gp2, cp3])
    assert code == 3


def test_schema_error_exit(files, capsys):
    cp = files("chi.json", {"p": 2, "chi": {"a": 1, "b": 1}})
    # a self-loop, then endpoints that are not strings
    for edge in (["a", "a"], [["a"], "b"], ["a", {"b": 1}], [1, "b"],
                 ["a", None]):
        gp = files("bad.json", {"vertices": ["a", "b"], "edges": [edge]})
        code, _ = run(capsys, ["fg", gp, cp])
        assert code == 2


def test_fpn_rejects_max_n_below_one(files, capsys):
    gp, cp = c4_files(files)
    for n in ("0", "-1"):
        code, out = run(capsys, ["fpn", gp, cp, "--max-n", n])
        assert code == 2 and out == ""


def test_max_n_above_vertex_count_plus_one_exits_2(capsys):
    # every row above the largest clique size repeats that row, so |V| + 1
    # is the largest --max-n that prints a report; its bytes are pinned
    path2 = [str(CORPUS / "path2.graph.json"),
             str(CORPUS / "path2.ones.chi.json")]
    cycle4 = [str(CORPUS / "cycle4.graph.json"),
              str(CORPUS / "cycle4.allones.matrix.json")]
    for argv, top, code_at_top, sha256 in (
            (["fpn", *path2], 3, 0,
             "ff82792776ac2efa925c32f7d2dcced1"
             "80c27095cf04f79e3217f12701726d9e"),
            (["coabelian", *cycle4], 5, 1,
             "e8ffb7ee46a988c3c62344a9b9a7ba5b"
             "d6c5d7cb44d9190c8f145c871b76d48a")):
        code, out = run(capsys, [*argv, "--max-n", str(top)])
        assert code == code_at_top
        assert hashlib.sha256(out.encode()).hexdigest() == sha256
        for n in (top + 1, 100000):
            code = main([*argv, "--max-n", str(n)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", (argv, n)
            assert captured.err == (f"error: --max-n must be at most |V| + 1 "
                                    f"= {top} on this graph, got {n}\n")


def test_fpn_report_and_determinism(files, capsys):
    gp, cp = c4_files(files)
    code1, out1 = run(capsys, ["fpn", gp, cp, "--max-n", "2"])
    code2, out2 = run(capsys, ["fpn", gp, cp, "--max-n", "2"])
    assert code1 == code2 == 1          # FP_2 fails on the 4-cycle
    assert out1 == out2                 # byte-identical reruns
    doc = json.loads(out1)
    res = doc["results"]
    assert res["max_fp"] == 1 and res["routes_agree"]
    assert res["decomposition"]["ok"]
    assert [d["fp_complex"] for d in res["degrees"]] == [True, False]
    # round trip: the emitted JSON parses back to the same document
    assert json.loads(json.dumps(doc)) == doc


def test_fpn_exit_zero_when_requested_level_holds(files, capsys):
    gp, cp = c4_files(files)
    code, _ = run(capsys, ["fpn", gp, cp, "--max-n", "1"])
    assert code == 0


def test_table(files, capsys):
    gp, _ = c4_files(files)
    code, out = run(capsys, ["table", gp])
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert len(rows) == 15
    full = next(r for r in rows if len(r["support"]) == 4)
    assert full["fg"] is True and full["max_fp"] == 1
    singles = [r for r in rows if len(r["support"]) == 1]
    assert all(not r["fg"] and r["max_fp"] == 0 for r in singles)


def test_table_jobs_flag_is_output_stable(files, capsys):
    gp, _ = c4_files(files)
    _, serial = run(capsys, ["table", gp, "--jobs", "1"])
    _, parallel = run(capsys, ["table", gp, "--jobs", "2"])
    assert serial == parallel


def test_table_cap(files, capsys):
    g = examples.edgeless(5)
    gp = files("e5.json", graph_document(g))
    code, _ = run(capsys, ["table", gp, "--cap", "4"])
    assert code == 2


def test_table_checks_the_prime_first(files, capsys):
    # no support of the empty graph builds a character, which checks p
    for g in (SimplicialGraph([]), examples.cycle(4)):
        gp = files("g.json", graph_document(g))
        code = main(["table", gp, "--p", "4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == \
            "error: p must be a prime below 2**31, got 4\n"


def test_table_rows_for_isolated_pair(files, capsys):
    g = examples.edgeless(2)
    gp = files("e2.json", graph_document(g))
    _, out = run(capsys, ["table", gp])
    rows = json.loads(out)["results"]["rows"]
    assert all(r["fg"] is False for r in rows)


def test_coabelian_command(files, capsys):
    g = examples.edgeless(2)
    gp = files("e2.json", graph_document(g))
    mp = files("ident.json", {"p": 2, "rows": [[1, 0], [0, 1]]})
    code, out = run(capsys, ["coabelian", gp, mp, "--max-n", "1"])
    assert code == 1
    res = json.loads(out)["results"]
    assert res["fg"] is False and res["fg_witness"] == []
    assert [p["zero_set"] for p in res["patterns"]] == [[], ["v1"], ["v2"]]
    # the edgeless pair is one indecomposable non-clique factor, so the
    # derived subgroup of the whole group witnesses fullness
    assert res["fullness"]["full"] is True
    assert res["fullness"]["note"] is None      # not finitely generated

    mp0 = files("zero.json", {"p": 2, "rows": [[0, 0]]})
    code, _ = run(capsys, ["coabelian", gp, mp0])
    assert code == 3


def test_coabelian_rejects_max_n_below_one(files, capsys, monkeypatch):
    # the argument is checked before any analysis: a rank-0 matrix
    # exits 2 as fpn does, not 3, and no zero pattern is enumerated
    from raagfp import coabelian
    calls = []
    enumerate_patterns = coabelian.enumerate_patterns
    monkeypatch.setattr(coabelian, "enumerate_patterns",
                        lambda m: calls.append(m) or enumerate_patterns(m))
    gp = files("e2.json", graph_document(examples.edgeless(2)))
    mp = files("ident.json", {"p": 2, "rows": [[1, 0], [0, 1]]})
    mp0 = files("zero.json", {"p": 2, "rows": [[0, 0]]})
    for matrix in (mp0, mp):
        for n in ("0", "-1"):
            code, out = run(capsys, ["coabelian", gp, matrix, "--max-n", n])
            assert code == 2 and out == ""
    assert calls == []


def test_coabelian_full_marker(files, capsys):
    g = examples.cycle(4)
    gp = files("c4.json", graph_document(g))
    mp = files("row.json", {"p": 2, "rows": [[1, 1, 1, 1]]})
    code, out = run(capsys, ["coabelian", gp, mp])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["fg"] is True
    assert res["fullness"]["full"] is True
    assert res["fullness"]["note"] == "G/N is finite-by-abelian"


def test_verify_smoke(files, capsys):
    code, out = run(capsys, ["verify", "--trials", "10", "--max-vertices", "5",
                             "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["passed"] is True
    assert len(doc["results"]["suites"]) == 6


def test_every_count_flag_below_one_exits_2_before_reading_a_file(capsys):
    # the files do not exist, so reading one would give another message
    missing = ["no-such.graph.json", "no-such.json"]
    for command, flag, value in (
            ("verify", "--trials", "0"), ("verify", "--trials", "-3"),
            ("verify", "--max-vertices", "0"),
            ("verify", "--max-vertices", "-1"),
            ("fpn", "--max-n", "0"), ("coabelian", "--max-n", "-1"),
            ("table", "--jobs", "0"), ("table", "--jobs", "-1"),
            ("gog", "--index", "0"), ("gog", "--index", "-2")):
        files = {"verify": [], "table": missing[:1],
                 "gog": missing[:1]}.get(command, missing)
        code = main([command, *files, flag, value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", (command, flag, value)
        assert captured.err == f"error: {flag} must be >= 1, got {value}\n"


def test_verify_has_no_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "1", "--jobs", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --jobs 2" in captured.err


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces ProcessPoolExecutor with a stand-in that maps in this
    process, so no worker is started, and reports the CPU count as 3.
    Yields the (max_workers, chunksize) of every pool map asked for."""
    import concurrent.futures
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads, chunksize=1):
            sizes.append((self.max_workers, chunksize))
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return sizes


def test_huge_jobs_split_the_table_by_the_pool_size(files, capsys, pool_sizes):
    gp, _ = c4_files(files)
    serial = run(capsys, ["table", gp, "--jobs", "1"])
    assert pool_sizes == []                     # one worker: no pool
    assert run(capsys, ["table", gp, "--jobs", "4000"]) == serial
    # 15 rows and 3 CPUs: 3 workers, one chunk of 5 rows each
    assert pool_sizes == [(3, 5)]
    gp1 = files("k1.json", graph_document(examples.complete(1)))
    run(capsys, ["table", gp1, "--jobs", "4000"])  # one row: no pool
    assert pool_sizes == [(3, 5)]


def test_verify_negative_control():
    # a deliberately corrupted boundary must be caught by the same check
    # the verify suites run
    from raagfp.flag_homology import ChainComplexFp
    from raagfp.fpmatrix import MatrixFp
    edge = [[0], [0b01, 0b10], [0b11]]          # vertices a, b and the edge ab
    good = ChainComplexFp(edge, 2, 0)
    assert good.dd_violation() is None
    assert dense_boundary(good, 2) == [[1], [1]]
    corrupted = FaultyComplex(good, {2: MatrixFp(2, 2, [{0b01: 1}])})
    assert dense_boundary(corrupted, 2) == [[1], [0]]
    assert corrupted.dd_violation() == 1


def test_gog_command(files, capsys):
    doc = {"vertices": [{"id": "v", "order": 4}, {"id": "w", "order": 6}],
           "edges": [{"id": "e", "d0": "v", "d1": "w", "order": 2}]}
    gp = files("gog.json", doc)
    code, out = run(capsys, ["gog", gp, "--index", "12"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["chi"] == "-1/12" and res["lcm_orders"] == 12
    assert res["reduced"] and not res["dihedral_type"]
    assert res["bounds"]["rank"] == 2 and res["bounds"]["defect"] is False


def test_gog_dihedral_skip(files, capsys):
    doc = {"vertices": [{"id": "v", "order": 2}, {"id": "w", "order": 2}],
           "edges": [{"id": "e", "d0": "v", "d1": "w", "order": 1}]}
    gp = files("dihedral.json", doc)
    code, out = run(capsys, ["gog", gp])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["dihedral_type"] is True
    assert res["bounds"]["quotient_clause_skipped"] == "dihedral type"


def test_gog_finite_group_is_outside_the_theorem(files, capsys):
    # Z/2 as an amalgam over the trivial group: every free subgroup of
    # finite index has rank at most 0, so the bounds do not apply
    doc = {"vertices": [{"id": "v", "order": 1}, {"id": "w", "order": 2}],
           "edges": [{"id": "e", "d0": "v", "d1": "w", "order": 1}]}
    gp = files("finite.json", doc)
    code = main(["gog", gp])
    captured = capsys.readouterr()
    assert code == 3
    res = json.loads(captured.out)["results"]
    assert res["bounds"]["rank"] == 0 and res["bounds"]["defect"] is True
    assert "free rank 0 at index 2" in captured.err


def test_json_booleans_are_not_integers(files, capsys):
    g = examples.edgeless(2)
    gp = files("e2.json", graph_document(g))
    cp = files("boolchi.json", {"p": 2, "chi": {"v1": True, "v2": False}})
    assert run(capsys, ["fg", gp, cp])[0] == 2
    mp = files("boolrows.json", {"p": 2, "rows": [[True, 0]]})
    assert run(capsys, ["coabelian", gp, mp])[0] == 2
    xp = files("boolgog.json", {"vertices": [{"id": "v", "order": True}],
                                "edges": []})
    assert run(capsys, ["gog", xp])[0] == 2


# the 6-cycle's link of () is ranked relative to the stars of an edge:
# two vertices and three edges, one boundary of rank 2, so a rank one
# too high or too low is seen
DEFECT_ARGV = ["fpn", str(CORPUS / "cycle6.graph.json"),
               str(CORPUS / "cycle6.ones.chi.json")]


def test_gog_ids_that_are_not_strings_are_schema_errors(files, capsys):
    docs = [{"vertices": [{"id": ["v"], "order": 2}], "edges": []}]
    for field, bad in (("id", ["e"]), ("d0", 7), ("d1", {"v": 1})):
        edge = {"id": "e", "d0": "v", "d1": "v", "order": 1, field: bad}
        docs.append({"vertices": [{"id": "v", "order": 2}], "edges": [edge]})
    for doc in docs:
        assert main(["gog", files("bad.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "must be strings" in err


def test_character_keys_outside_the_graph_are_rejected(files, capsys):
    gp = files("p3.json", graph_document(examples.path(3)))
    cp = files("extra.json", {"p": 2, "chi": {"v1": 1, "v2": 1, "v3": 1,
                                              "zz": 5}})
    for command in ("fg", "fpn"):
        assert main([command, gp, cp]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "'zz'" in err


def test_unmapped_exception_exits_as_internal_defect(monkeypatch, capsys):
    # a crash must not exit 1, which reads as "verdict false"
    from raagfp import fpcheck

    def broken(*args, **kwargs):
        raise TypeError("unhashable type: 'list'")

    monkeypatch.setattr(fpcheck, "analyze", broken)
    assert main(DEFECT_ARGV) == 4
    err = capsys.readouterr().err
    assert err.startswith(
        "error: internal defect: TypeError: unhashable type: 'list'\n")
    assert "Traceback" in err


def test_wrong_rank_exits_as_internal_defect(monkeypatch, capsys):
    from raagfp import flag_homology, fpmatrix
    monkeypatch.setattr(flag_homology, "rank_fp",
                        lambda m, **kw: fpmatrix.rank_fp(m, **kw) + 1)
    assert main(DEFECT_ARGV) == 4
    assert capsys.readouterr().err.startswith("error: internal defect")


def test_too_low_rank_exits_as_internal_defect(monkeypatch, capsys):
    # a rank that is too low leaves no negative dimension behind; the
    # component count of the 1-skeleton catches it
    from raagfp import flag_homology, fpmatrix
    monkeypatch.setattr(flag_homology, "rank_fp",
                        lambda m, **kw: max(fpmatrix.rank_fp(m, **kw) - 1, 0))
    assert main(DEFECT_ARGV) == 4
    assert capsys.readouterr().err.startswith("error: internal defect")


def test_wrong_certificate_exits_as_internal_defect(monkeypatch, capsys):
    # the certificate of every zero pattern is checked against each
    # column, the one row of a one-row matrix as well; a zero certificate
    # vanishes at every vertex, so it fails outside the zero set
    from raagfp import coabelian
    real = coabelian.ZeroPattern
    monkeypatch.setattr(coabelian, "ZeroPattern", lambda zero_set, lam:
                        real(zero_set, [0] * len(lam)))
    for name, matrix in (("complete3", "identity"), ("cycle4", "allones")):
        argv = ["coabelian", str(CORPUS / f"{name}.graph.json"),
                str(CORPUS / f"{name}.{matrix}.matrix.json")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: internal defect: certificate fails "
                              "at vertex"), err


def test_fg_readings_that_disagree_exit_as_internal_defect(monkeypatch,
                                                            capsys):
    # with --max-n, coabelian reads fg off the support's connectivity and
    # dominance and off h_1 = 0; the zero set [v2, v4] leaves the
    # disconnected support {v1, v3}
    from raagfp import fpcheck
    monkeypatch.setattr(fpcheck, "connected_and_dominant",
                        lambda g, supp: (True, True))
    argv = ["coabelian", str(CORPUS / "cycle4.graph.json"),
            str(CORPUS / "cycle4.dependent.matrix.json"), "--max-n", "2"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: internal defect")
    assert "['v2', 'v4']" in err


def test_a_wrong_component_count_in_the_memo_exits_as_internal_defect(
        monkeypatch, capsys):
    # the fg reading and the h_0 self-check read one memo entry per
    # support; a wrong count there makes fg false, and the rank-based
    # h_0 of the S = () link, the support itself, refutes it
    from raagfp import coabelian
    real = coabelian.parse_matrix

    def planting(document, g):
        g._components[g.mask(["v2", "v3"])] = 2     # zero set ['v1']
        return real(document, g)

    monkeypatch.setattr(coabelian, "parse_matrix", planting)
    argv = ["coabelian", str(CORPUS / "complete3.graph.json"),
            str(CORPUS / "complete3.identity.matrix.json"), "--max-n", "2"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: internal defect")
    assert "degree 0" in err


def test_wrong_rank_exits_as_internal_defect_under_optimize():
    # python -O strips assert statements; the self-checks must survive
    script = ("import sys\n"
              "from raagfp import cli, flag_homology, fpmatrix\n"
              "flag_homology.rank_fp = "
              "lambda m, **kw: fpmatrix.rank_fp(m, **kw) + 1\n"
              f"sys.exit(cli.main({DEFECT_ARGV!r}))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: internal defect")


ROW = Shared(clique=["a", "b"], level=0, dim=1)
BLOCK = Shared(ok=True, degrees=[ROW, {"links": [ROW, ROW]}], inner=ROW)


@pytest.mark.parametrize("doc", [
    {}, [], "", 0, -7, 10 ** 40, -(10 ** 40), True, False, None,
    {"a": {}, "b": [], "c": [{}, [[]], {"d": [1, [2, {"e": None}]]}]},
    [[[]], [{}], [{"x": [True, False]}]],
    {"quote \" and backslash \\": "tab\t newline\n cr\r nul\x00 bell\x07",
     "caf\u00e9": "\u00fcber \u2603 \U0001f600 \u0800", "": ""},
    ["\x1f\x7f", "</script>", "'single'", "\\u0041"],
    {"big": 2 ** 200, "neg": -1, "zero": 0, "bools": [True, False, None]},
    # a shared block is rendered once per indentation: twice at one
    # depth, at two depths, inside another shared block, and as the
    # whole document
    [ROW, ROW, {}, ROW],
    {"a": ROW, "b": [ROW, [ROW, {"c": ROW}]], "d": ROW},
    [BLOCK, {"e": BLOCK, "f": [BLOCK]}, ROW, BLOCK],
    ROW, BLOCK, Shared(), [Shared(), Shared()],
])
def test_render_json_matches_json_dumps_indent_2(doc):
    from raagfp.cli import render_json
    assert render_json(doc) == json.dumps(doc, indent=2)


def test_render_json_renders_each_shared_block_once_per_indentation():
    from raagfp.cli import render_json
    doc = {"a": ROW, "b": [ROW, BLOCK], "c": [[BLOCK, ROW]], "d": BLOCK}
    memo = {}
    assert render_json(doc, memo=memo) == json.dumps(doc, indent=2)
    # BLOCK sits at depths 1 to 3 and holds ROW 1, 2 and 4 levels down,
    # so ROW is rendered at every depth from 1 to 7
    assert set(memo) == {(id(ROW), "  " * depth) for depth in range(1, 8)} \
        | {(id(BLOCK), "  " * depth) for depth in (1, 2, 3)}
    assert all(memo[id(block), pad] == render_json(dict(block), pad)
               for block, pad in [(ROW, "    "), (BLOCK, "      ")])


SCALARS = st.none() | st.booleans() | st.integers() | st.text()


def containers(inner):
    return (st.lists(inner, max_size=4)
            | st.dictionaries(st.text(), inner, max_size=4))


REPORT_VALUES = st.recursive(SCALARS, containers, max_leaves=40)


@given(REPORT_VALUES)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_render_json_matches_json_dumps_on_any_report_value(doc):
    from raagfp.cli import render_json
    assert render_json(doc) == json.dumps(doc, indent=2)


@st.composite
def reports_with_shared_blocks(draw):
    """A report value holding a few shared blocks, each in any number
    of places; a later block may hold the earlier ones."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        leaves = SCALARS | st.sampled_from(blocks) if blocks else SCALARS
        blocks.append(Shared(draw(st.dictionaries(
            st.text(), st.recursive(leaves, containers, max_leaves=10),
            max_size=4))))
    return draw(st.recursive(SCALARS | st.sampled_from(blocks), containers,
                             max_leaves=40))


@given(reports_with_shared_blocks())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_render_json_matches_json_dumps_with_shared_blocks(doc):
    from raagfp.cli import render_json
    assert render_json(doc) == json.dumps(doc, indent=2)


def test_render_json_holds_a_large_report_at_most_two_and_a_half_times():
    # each container joins its own pieces once, so a report is held in
    # pieces and joined, about twice its length, while it is rendered
    import random
    import tracemalloc
    from itertools import combinations

    from raagfp import coabelian
    from raagfp.cli import render_json
    rng = random.Random("large-report")
    vs = [f"v{i}" for i in range(1, 14)]
    g = SimplicialGraph(vs, [e for e in combinations(vs, 2)
                             if rng.random() < 0.25])
    m = coabelian.CoabelianSpec(
        2, [[rng.randint(-3, 3) for _ in vs] for _ in range(4)], vs)
    results = coabelian.fg_coabelian(g, m)
    results.update(coabelian.fpn_coabelian(g, m, 2))
    results["fullness"] = coabelian.is_full(g, m)
    doc = {"command": "coabelian", "results": results}
    tracemalloc.start()
    try:
        out = render_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) > 200_000
    assert peak <= 2.5 * len(out), peak / len(out)


def test_render_json_rejects_what_no_report_holds(monkeypatch, capsys):
    from raagfp import fpcheck
    from raagfp.cli import render_json
    for doc in (1.5, float("inf"), {"tuple": (1, "a")}, [{1: "a"}],
                {"nested": {"bool key": {True: 0}}}, Shared(x=1.5),
                [Shared(x=[0.5]), Shared(x=[0.5])],
                [ROW, Shared(y=ROW, z=0.5)]):
        with pytest.raises(TypeError):
            render_json(doc)
    # the report is rendered whole before it is written
    monkeypatch.setattr(fpcheck, "analyze",
                        lambda *a, **kw: {"degrees": [], "x": [0.5]})
    assert main(DEFECT_ARGV) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: internal defect: TypeError")


def test_text_format(files, capsys):
    gp, cp = c4_files(files)
    code, out = run(capsys, ["fg", gp, cp, "--format", "text"])
    assert code == 0
    assert "fg: True" in out and "{" not in out


def test_doctests():
    import doctest
    import raagfp.graph
    failures, _ = doctest.testmod(raagfp.graph)
    assert failures == 0

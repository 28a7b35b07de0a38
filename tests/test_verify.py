"""The ``verify`` command when a suite fails.

Two defects are planted in the routes the suites check: the
decomposition identity reports a mismatch on every graph of 3 or more
vertices, and the link route negates its FP_n answer on every graph of
4 or more vertices.  Exactly the two suites that read those routes must
fail, each with one shrunk instance that is minimal.
"""

import hashlib
import json

from raagfp import coabelian, fpcheck, verify
from raagfp.cli import _render_text, main
from raagfp.graph import induced_subgraph, parse_graph

ARGV = ["verify", "--trials", "20", "--seed", "2"]

# sha256 of the JSON report of ARGV with both defects planted
BROKEN_SHA256 = ("54e504b60fe4e994d68cbbbcbbbea19e"
                 "980e47f1593fb77373e62ea2ee9e8521")


def plant_defects(monkeypatch):
    """Plants both defects and returns each failing suite's predicate
    (true when an instance still fails), read as the suite reads it."""
    decomposition_check = fpcheck.decomposition_check
    fp_via_links = fpcheck.fp_via_links

    def broken_decomposition(g, chi):
        rep = decomposition_check(g, chi)
        return {**rep, "ok": rep["ok"] and len(g.vertices) < 3}

    def broken_links(g, chi, n):
        return fp_via_links(g, chi, n) != (len(g.vertices) >= 4)

    monkeypatch.setattr(fpcheck, "decomposition_check", broken_decomposition)
    monkeypatch.setattr(fpcheck, "fp_via_links", broken_links)

    def disagrees(g, chi, block):
        n = block["degree"]
        if not any(chi.values[v] for v in g.vertices):
            return False
        via_c = fpcheck.fp_via_complex(g, chi, n)
        via_l = fpcheck.fp_via_links(g, chi, n)
        return via_c != via_l or (n == 1 and via_c != fpcheck.is_fg(g, chi))

    def mismatch(g, chi, block):
        return not fpcheck.decomposition_check(g, chi)["ok"]

    return {"route_agreement": disagrees, "decomposition": mismatch}


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_a_failing_verify_run_reports_each_broken_suite_once(capsys,
                                                             monkeypatch):
    clean_code, clean = run(capsys, ARGV)
    assert clean_code == 0
    clean_suites = {s["suite"]: s for s in json.loads(clean)["results"]["suites"]}
    predicates = plant_defects(monkeypatch)

    code, out = run(capsys, ARGV)
    assert code == 1
    doc = json.loads(out)
    assert doc["results"]["passed"] is False
    suites = {s["suite"]: s for s in doc["results"]["suites"]}
    assert list(suites) == list(clean_suites)
    assert sorted(n for n, s in suites.items() if not s["passed"]) == \
        ["decomposition", "route_agreement"]
    for name, block in suites.items():
        if name not in predicates:
            assert block == clean_suites[name]
            continue
        assert len(block["failures"]) == 1
        failure = block["failures"][0]
        g = parse_graph(failure["graph"])
        chi = fpcheck.parse_character(failure["character"])
        still_fails = predicates[name]
        assert still_fails(g, chi, failure)
        # minimal: removing any one vertex makes the predicate pass
        for v in g.vertices:
            keep = [w for w in g.vertices if w != v]
            chi2 = fpcheck.Character(chi.p, {w: chi.values[w] for w in keep})
            assert not still_fails(induced_subgraph(g, keep), chi2, failure)
    assert len(suites["decomposition"]["failures"][0]["graph"]["vertices"]) == 3
    assert len(suites["route_agreement"]["failures"][0]["graph"]["vertices"]) == 4
    assert hashlib.sha256(out.encode()).hexdigest() == BROKEN_SHA256

    # the text report renders the same JSON values: the decomposition
    # rows are nested lists, not Python tuples
    code, text = run(capsys, [*ARGV, "--format", "text"])
    assert code == 1
    assert text == "\n".join(_render_text(doc)) + "\n"
    assert "(" not in text


def test_a_missing_zero_pattern_is_reported_as_a_json_list(capsys,
                                                           monkeypatch):
    monkeypatch.setattr(coabelian, "enumerate_patterns", lambda m: [])
    block = verify.run_all(seed=0, trials=3, max_vertices=4)[-1]
    assert block["suite"] == "pattern_completeness" and not block["passed"]
    (failure,) = block["failures"]
    assert type(failure["lambda"]) is list
    code, out = run(capsys, ["verify", "--trials", "3", "--max-vertices", "4"])
    assert code == 1
    code, text = run(capsys, ["verify", "--trials", "3", "--max-vertices", "4",
                              "--format", "text"])
    assert text == "\n".join(_render_text(json.loads(out))) + "\n"
    assert "(" not in text


def test_a_missing_zero_pattern_is_listed_in_vertex_order(monkeypatch):
    # leave out every pattern holding both a one-digit and a two-digit
    # vertex, so the one reported puts v2 before v10, unlike string order
    enumerate_patterns = coabelian.enumerate_patterns

    def mixed(zero_set):
        return len({len(v) for v in zero_set}) == 2

    monkeypatch.setattr(coabelian, "enumerate_patterns", lambda m: [
        pat for pat in enumerate_patterns(m) if not mixed(pat.zero_set)])
    block = verify.run_all(seed=0, trials=50, max_vertices=12)[-1]
    (failure,) = block["failures"]
    assert failure["missing_pattern"] == ["v3", "v9", "v10"]

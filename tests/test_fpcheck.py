import math
import random
from itertools import combinations

import examples
import pytest
from dense import (FaultyComplex, dense_boundary, dense_homology,
                   dense_product)
from graphref import neighbours

from raagfp.errors import EpimorphismError
from raagfp.flag_homology import link_complex, simplicial_chain_complex
from raagfp.fpcheck import (Character, analyze, character_complex,
                            decomposition_check, fp_via_complex, fp_via_links,
                            homology_from_links, is_fg, link_homology_table,
                            max_fp, outside_cliques, parse_character,
                            require_epimorphism)
from raagfp.graph import SimplicialGraph, enumerate_cliques, induced_subgraph


def chi_of(g, values, p=2):
    return Character(p, dict(zip(g.vertices, values)))


def random_graph(rng, n, density=0.5):
    vs = [f"v{i}" for i in range(n)]
    edges = [e for e in combinations(vs, 2) if rng.random() < density]
    return SimplicialGraph(vs, edges)


# surjectivity

def test_require_epimorphism_rescales_p_powers():
    g = examples.edgeless(2)
    assert require_epimorphism(g, chi_of(g, (2, 4), p=2)) == \
        (("v1", "v2"), 1)
    assert require_epimorphism(g, chi_of(g, (1, 0), p=3)) == (("v1",), 0)
    with pytest.raises(EpimorphismError, match="identically zero"):
        require_epimorphism(g, chi_of(g, (0, 0)))


def test_parse_character():
    chi = parse_character({"p": 3, "chi": {"a": 1, "b": -6}})
    assert chi.p == 3 and chi.values == {"a": 1, "b": -6}
    from raagfp.errors import SchemaError
    with pytest.raises(SchemaError):
        parse_character({"p": 4, "chi": {"a": 1}})
    with pytest.raises(SchemaError):
        parse_character({"p": 2, "chi": {"a": "x"}})
    with pytest.raises(SchemaError):
        chi = parse_character({"p": 2, "chi": {"a": 1}})
        chi.require_defined_on(examples.path(2))


# finite generation

def test_is_fg_examples():
    c4 = examples.cycle(4)
    assert is_fg(c4, examples.ones_character(c4, 2))
    p3 = examples.path(3)
    assert not is_fg(p3, chi_of(p3, (1, 0, 1)))
    assert is_fg(p3, chi_of(p3, (0, 1, 0)))
    with pytest.raises(EpimorphismError):
        is_fg(p3, chi_of(p3, (0, 0, 0)))


# the support complex

def test_character_complex_c4():
    c4 = examples.cycle(4)
    cx = character_complex(c4, examples.ones_character(c4, 2))
    assert cx.dims == {0: 1, 1: 4, 2: 4}
    assert cx.homology() == {0: 0, 1: 0, 2: 1}
    # full support: the degree-2 boundary is the plain edge boundary
    simp = character_complex(c4, examples.ones_character(c4, 2)).boundary(2)
    plain = simplicial_chain_complex(enumerate_cliques(c4), 2).boundary(1)
    assert simp.columns == plain.columns


def test_character_complex_p3_boundaries():
    p3 = examples.path(3)
    cx = character_complex(p3, chi_of(p3, (1, 0, 1)))
    d1 = dense_boundary(cx, 1)
    assert d1 == [[1, 0, 1]]          # v1, v3 hit the empty clique; v2 dies
    # dims 1, 3, 2 and boundary ranks 1, 1
    assert cx.homology() == dense_homology(cx) == {0: 0, 1: 1, 2: 1}


def test_character_complex_zero_character():
    p3 = examples.path(3)
    cx = character_complex(p3, chi_of(p3, (0, 0, 0)))
    assert cx.lo == 0 and cx.dims[0] == 1          # the empty clique
    assert not any(cx.boundary(1).columns)
    assert not any(cx.boundary(2).columns)
    assert cx.homology()[0] == 1


def test_character_complex_chain_condition():
    rng = random.Random("ccdd")
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7))
        vals = [rng.randint(-3, 3) for _ in g.vertices]
        cx = character_complex(g, chi_of(g, vals, p=rng.choice((2, 3, 5))))
        assert cx.dd_violation() is None


def test_dd_violation_against_dense_product():
    # flag, support and link complexes, each sometimes with one boundary
    # entry changed: dd_violation names the first degree whose dense
    # product d_n . d_(n+1) is nonzero
    rng = random.Random("dd-dense")
    caught = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 7), density=rng.uniform(0.3, 0.9))
        p = rng.choice((2, 3, 5))
        chi = Character(p, {v: rng.choice((0, 1, -1)) for v in g.vertices})
        supp = chi.support(g)
        complexes = [simplicial_chain_complex(enumerate_cliques(g), p),
                     character_complex(g, chi)]
        complexes += [simplicial_chain_complex(link_complex(g, supp, s), p)
                      for s in outside_cliques(g, supp)]
        for cx in complexes:
            targets = [n for n in range(cx.lo + 1, cx.hi + 1)
                       if cx.dims[n - 1] and cx.dims[n]]
            if targets and rng.random() < 0.5:
                n = rng.choice(targets)
                m = cx.boundary(n)
                column = rng.choice(m.columns)
                i = rng.choice(cx.groups[n - 1 - cx.lo])
                v = rng.choice([x for x in range(p) if x != column.get(i, 0)])
                if v:
                    column[i] = v
                else:
                    del column[i]
                cx = FaultyComplex(cx, {n: m})
            expected = next(
                (n for n in range(cx.lo + 1, cx.hi)
                 if any(map(any, dense_product(dense_boundary(cx, n),
                                               dense_boundary(cx, n + 1),
                                               p)))), None)
            assert cx.dd_violation() == expected
            caught += expected is not None
    assert caught


def test_support_complex_against_link_table_in_every_degree():
    # degree 0 holds the empty clique alone, so h_0 is the S = () block
    # of the decomposition identity: 1 exactly when the support is empty
    rng = random.Random("support-complex-degrees")
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 7), density=rng.uniform(0.2, 0.9))
        p = rng.choice((2, 3, 5))
        chi = Character(p, {v: rng.choice((0, 0, 1, -1, 2))
                            for v in g.vertices})
        supp = chi.support(g)
        cx = character_complex(g, chi)
        h = cx.homology()
        assert cx.lo == 0 and h[0] == (0 if supp else 1)
        links = link_homology_table(g, g.mask(supp), p)
        assert h[0] == links[()].get(-1, 0)
        sums = homology_from_links(g, links)
        assert {n: d for n, d in h.items() if n >= 1} == sums
        assert cx.dd_violation() is None
        for s in outside_cliques(g, supp):
            link = simplicial_chain_complex(link_complex(g, supp, s), p)
            assert link.dd_violation() is None


def test_link_table_keys_come_in_report_order():
    # the report lists each degree's outside cliques in table order,
    # which must be by size, then by vertex positions
    rng = random.Random("table-order")
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), density=0.4)
        order = list(g.vertices)
        rng.shuffle(order)
        g = SimplicialGraph(order, g.edges)
        vals = {v: rng.choice((0, 1)) for v in g.vertices}
        vals[order[-1]] = 1
        chi = Character(2, vals)
        keys = list(link_homology_table(g, g.mask(chi.support(g)), 2))
        assert keys == sorted(keys, key=lambda s: (len(s),
                                                   tuple(map(g.index, s))))
        for row in analyze(g, chi)["degrees"]:
            assert [tuple(link["clique"]) for link in row["links"]] == \
                [s for s in keys if len(s) <= row["clique_size"]]


# the two FP_n routes

def test_fp_via_complex_examples():
    c4 = examples.cycle(4)
    ones = examples.ones_character(c4, 2)
    assert fp_via_complex(c4, ones, 1)
    assert not fp_via_complex(c4, ones, 2)
    p3 = examples.path(3)
    assert not fp_via_complex(p3, chi_of(p3, (1, 0, 1)), 1)
    with pytest.raises(ValueError):
        fp_via_complex(c4, ones, 0)


def test_fp_via_links_examples():
    c4 = examples.cycle(4)
    assert not fp_via_links(c4, examples.ones_character(c4, 2), 2)
    p3 = examples.path(3)
    assert fp_via_links(p3, chi_of(p3, (0, 1, 0)), 3)
    assert not fp_via_links(p3, chi_of(p3, (1, 0, 1)), 1)


def test_fp_via_links_detects_dominance_failure():
    # support {v1} of the path is connected but not dominant: the far
    # vertex has an empty restricted link, caught at size-n cliques
    p3 = examples.path(3)
    chi = chi_of(p3, (1, 0, 0))
    assert not is_fg(p3, chi)
    assert not fp_via_links(p3, chi, 1)
    assert not fp_via_complex(p3, chi, 1)


def test_decomposition_check_examples():
    p3 = examples.path(3)
    rep = decomposition_check(p3, chi_of(p3, (1, 0, 1)))
    assert [(r["degree"], r["complex_dim"], r["links_sum"])
            for r in rep["degrees"]] == [(1, 1, 1), (2, 1, 1)]
    assert rep["ok"]

    c4 = examples.cycle(4)
    rep = decomposition_check(c4, examples.ones_character(c4, 2))
    assert [(r["degree"], r["complex_dim"], r["links_sum"])
            for r in rep["degrees"]] == [(1, 0, 0), (2, 1, 1)]

    k3 = examples.complete(3)
    rep = decomposition_check(k3, examples.ones_character(k3, 2))
    assert all(r["complex_dim"] == r["links_sum"] == 0 for r in rep["degrees"])


def test_decomposition_check_zero_character():
    # with empty support every degree-n class survives and every outside
    # clique of size n contributes its empty link in degree -1
    rng = random.Random("deco0")
    for _ in range(10):
        g = random_graph(rng, rng.randint(0, 6))
        rep = decomposition_check(g, Character(2, {v: 0 for v in g.vertices}))
        assert rep["ok"]


def test_max_fp_examples():
    c4 = examples.cycle(4)
    assert max_fp(c4, examples.ones_character(c4, 2)) == 1
    for m in (2, 3, 4):
        km = examples.complete(m)
        assert max_fp(km, examples.ones_character(km, 3)) == math.inf
        assert max_fp(km, examples.support_character(km, {"v1"}, 3)) == math.inf
    pair = examples.edgeless(2)
    assert max_fp(pair, examples.ones_character(pair, 2)) == 0


def test_max_fp_infinite_on_star_center():
    p3 = examples.path(3)
    assert max_fp(p3, chi_of(p3, (0, 1, 0))) == math.inf


def test_octahedron_kernel_is_fp2_not_fp3():
    # the flag complex is a 2-sphere: 1-acyclic but not 2-acyclic
    g = examples.octahedron()
    chi = examples.ones_character(g, 2)
    assert fp_via_links(g, chi, 2) and fp_via_complex(g, chi, 2)
    assert not fp_via_links(g, chi, 3) and not fp_via_complex(g, chi, 3)
    assert max_fp(g, chi) == 2


def test_complete_bipartite_obstruction_dimension():
    # the flag complex of K_{3,3} is a join of two 3-point sets, with
    # reduced Euler characteristic -1 + 6 - 9 = -4 concentrated in
    # degree 1, so the kernel is fg with a 4-dimensional FP_2 obstruction
    g = examples.complete_bipartite(3, 3)
    chi = examples.ones_character(g, 3)
    from raagfp.flag_homology import reduced_homology
    assert reduced_homology(enumerate_cliques(g), 3) == {-1: 0, 0: 0, 1: 4}
    assert is_fg(g, chi)
    assert max_fp(g, chi) == 1
    assert character_complex(g, chi).homology()[2] == 4


# cross-route properties

def all_01_characters(g, p):
    n = len(g.vertices)
    for mask in range(1, 1 << n):
        yield Character(p, {v: (mask >> i) & 1
                            for i, v in enumerate(g.vertices)})


def test_routes_agree_exhaustively_small():
    for g in examples.connected_graph_catalog(4):
        for chi in all_01_characters(g, 2):
            for n in range(1, len(g.vertices) + 1):
                assert fp_via_complex(g, chi, n) == fp_via_links(g, chi, n)
            assert fp_via_complex(g, chi, 1) == is_fg(g, chi)


def planted_torsion(rng, piece):
    """A vertex z coned over the flag complex ``piece``, a random graph
    of at most 6 vertices wedged onto a vertex of the piece, and
    character values that are 0 on z and nonzero on every other vertex.
    The restricted link of z contains the piece, so the piece's torsion
    reaches the FP_n verdicts."""
    r = random_graph(rng, rng.randint(1, 6))
    name = dict(zip(r.vertices, (rng.choice(piece.vertices), *r.vertices[1:])))
    g = SimplicialGraph((*piece.vertices, "z", *r.vertices[1:]),
                        [*piece.edges, *(("z", v) for v in piece.vertices),
                         *((name[a], name[b]) for a, b in r.edges)])
    values = {v: rng.choice((-3, -2, -1, 1, 2, 3)) for v in g.vertices}
    values["z"] = 0
    return g, values


@pytest.mark.parametrize("piece, torsion, other",
                         [("rp2", 2, 3), ("moore3", 3, 2)])
def test_routes_agree_on_planted_torsion(piece, torsion, other):
    # the piece has p-torsion in H_1 for p = torsion only, and a graph of
    # at most 7 vertices has none, so the verdicts agree at the other two
    # primes and can only fail earlier at the torsion prime; the support
    # complex's ranks are also checked by plain row reduction
    base = getattr(examples, piece)()
    rng = random.Random(f"planted-torsion:{piece}")
    differ = 0
    for _ in range(6):
        g, values = planted_torsion(rng, base)
        levels = {}
        for p in (2, 3, 5):
            chi = Character(p, values)
            cx = character_complex(g, chi)
            assert cx.homology() == dense_homology(cx), (g, p)
            rep = analyze(g, chi)
            flags = [fp_via_complex(g, chi, n)
                     for n in range(1, len(rep["degrees"]) + 1)]
            for n in (1, 2, 3):
                assert fp_via_links(g, chi, n) == flags[n - 1], (g, p, n)
            assert decomposition_check(g, chi)["ok"], (g, p)
            levels[p] = flags.index(False) if False in flags else math.inf
            assert rep["max_fp"] == ("inf" if levels[p] == math.inf
                                     else levels[p])
        assert levels[5] == levels[other] >= levels[torsion], (g, levels)
        differ += levels[torsion] != levels[other]
    assert differ, "no planted case met the torsion"


def test_analyze_reads_fg_off_the_link_table():
    # fg is FP_1, h_1 = 0 in the table; is_fg checks connectivity and
    # dominance of the support subgraph directly
    for g in examples.connected_graph_catalog(5):
        for chi in all_01_characters(g, 2):
            assert analyze(g, chi)["fg"] == is_fg(g, chi)


def assert_link_table_matches_unsplit_complex(g, chi):
    h = {n: d for n, d in character_complex(g, chi).homology().items() if n}
    level = next((n - 1 for n in sorted(h) if h[n]), math.inf)
    rep = analyze(g, chi)
    assert {r["clique_size"]: r["complex_homology_dim"]
            for r in rep["degrees"]} == h
    assert max_fp(g, chi) == level
    assert rep["max_fp"] == ("inf" if level == math.inf else level)


def test_link_table_against_unsplit_complex():
    # analyze and max_fp read the support-complex homology off the link
    # table; the unsplit complex is the independent oracle
    for g in examples.connected_graph_catalog(5):
        for chi in all_01_characters(g, 2):
            assert_link_table_matches_unsplit_complex(g, chi)
    # zero sets containing edges give outside cliques of size >= 2
    rng = random.Random("link-table")
    checked = 0
    while checked < 30:
        p = rng.choice((3, 5))
        g = random_graph(rng, rng.randint(4, 8), density=0.6)
        vals = {v: rng.randrange(p) for v in g.vertices}
        zero = [v for v in g.vertices if not vals[v]]
        nbrs = neighbours(g)
        if not any(vals.values()) or \
                not any(b in nbrs[a] for a, b in combinations(zero, 2)):
            continue
        assert_link_table_matches_unsplit_complex(g, Character(p, vals))
        checked += 1


def test_fp_monotone():
    rng = random.Random("monotone-fp")
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6))
        vals = [rng.randint(0, 2) for _ in g.vertices]
        if not any(vals):
            vals[0] = 1
        chi = chi_of(g, vals, p=3)
        flags = [fp_via_complex(g, chi, n)
                 for n in range(1, len(g.vertices) + 2)]
        assert all(a or not b for a, b in zip(flags, flags[1:]))


def test_zero_pattern_and_scaling_invariance():
    rng = random.Random("invariance")
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 6))
        p = rng.choice((2, 3))
        vals = {v: rng.randint(-3, 3) for v in g.vertices}
        if not any(vals.values()):
            vals[g.vertices[0]] = 1
        chi = Character(p, vals)
        base = analyze(g, chi)

        fresh = {v: (0 if c == 0 else rng.choice((1, -2, p, p * p, 5)))
                 for v, c in vals.items()}
        other = analyze(g, Character(p, fresh))
        scaled = analyze(g, Character(
            p, {v: c * p ** 2 for v, c in vals.items()}))
        for doc in (other, scaled):
            doc.pop("rescaled_by_power")
        base.pop("rescaled_by_power")
        assert other == base and scaled == base


def test_analyze_report_structure():
    c4 = examples.cycle(4)
    rep = analyze(c4, examples.ones_character(c4, 2), max_n=3)
    assert rep["fg"] and rep["max_fp"] == 1 and rep["routes_agree"]
    assert [r["clique_size"] for r in rep["degrees"]] == [1, 2, 3]
    assert rep["degrees"][2]["fp_complex"] is False       # above the top,
    assert rep["degrees"][2]["complex_homology_dim"] == 0  # FP_2 failed
    assert rep["decomposition"]["ok"]
    assert rep["support"] == list(c4.vertices)
    # degree rows carry both gradings
    assert rep["degrees"][0]["simplex_dim"] == 0


def test_analyze_rejects_zero_character():
    g = examples.path(2)
    with pytest.raises(EpimorphismError):
        analyze(g, chi_of(g, (0, 0)))

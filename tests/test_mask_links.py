"""The bitmask link route against the tuple route it replaced.

``link_homology_table`` builds each link as a vertex bitmask, strong-
collapses it and ranks what is left relative to the stars of a maximal
clique, once per core and prime per graph: a ``ChainComplexFp`` on the
clique bitmasks outside the stars, the builder every complex shares.
The tuple route (``link_complex`` -> ``reduced_homology``) builds the
uncollapsed complex with named simplices and is the oracle here.
"""

import json
import random
from itertools import combinations

import examples
import pytest

from graphref import is_connected, neighbours
from raagfp import flag_homology, fpmatrix
from raagfp.errors import InternalDefect, SchemaError
from raagfp.flag_homology import (ChainComplexFp, link_complex,
                                  mask_reduced_homology, reduced_homology)
from raagfp.cli import main
from raagfp.fpcheck import (Character, analyze, character_complex,
                            decomposition_check, fp_via_complex, fp_via_links,
                            homology_from_links, link_homology_table, max_fp,
                            outside_cliques)
from raagfp.graph import (SimplicialGraph, clique_masks, clique_number,
                          components, enumerate_cliques, graph_document,
                          induced_subgraph, strong_collapse)


def random_graph(rng, n, density):
    vs = [f"v{i}" for i in range(n)]
    return SimplicialGraph(vs, [e for e in combinations(vs, 2)
                                if rng.random() < density])


def with_extras(rng, g):
    """g with a cone apex, a pendant vertex or a twin added at random
    places in the vertex order, each with probability 1/2."""
    vs, es = list(g.vertices), set(g.edges)
    if rng.random() < 0.5:
        es |= {("apex", v) for v in vs}
        vs.insert(rng.randrange(len(vs) + 1), "apex")
    if vs and rng.random() < 0.5:
        es.add((rng.choice(vs), "pendant"))
        vs.insert(rng.randrange(len(vs) + 1), "pendant")
    if vs and rng.random() < 0.5:
        v = rng.choice(vs)
        es |= {("twin", w) for a, b in es for w in (a, b)
               if v in (a, b) and w != v}
        if rng.random() < 0.5:
            es.add(("twin", v))
        vs.insert(rng.randrange(len(vs) + 1), "twin")
    return SimplicialGraph(vs, es)


def cross_polytope(rng, k):
    vs = [f"x{i}{side}" for i in range(k) for side in "ab"]
    rng.shuffle(vs)
    return SimplicialGraph(vs, [(a, b) for a, b in combinations(vs, 2)
                                if a[:-1] != b[:-1]])


def seeded_cases(seed):
    """(graph, support) pairs: random graphs with extras, then
    cross-polytopes k <= 4 with some zero vertices."""
    rng = random.Random(seed)
    for _ in range(60):
        g = with_extras(rng, random_graph(rng, rng.randint(0, 7),
                                          rng.uniform(0.2, 0.9)))
        if g.vertices:
            yield g, frozenset(v for v in g.vertices if rng.random() < 0.7)
    for k in range(1, 5):
        for _ in range(3):
            g = cross_polytope(rng, k)
            zeros = rng.sample(g.vertices, rng.randint(1, k))
            yield g, frozenset(g.vertices) - set(zeros)


def dominated(g, vset):
    """Positions in vset whose closed neighbourhood inside vset lies in
    another member's, computed on named vertex sets."""
    members = {v for v in g.vertices if vset >> g.index(v) & 1}
    nbrs = neighbours(g)
    closed = {v: (nbrs[v] & members) | {v} for v in members}
    return {g.index(v) for v in members
            if any(u != v and closed[v] <= closed[u] for u in members)}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mask_links_match_tuple_oracle_in_every_degree(p):
    collapsed = empty = 0
    for g, supp in seeded_cases(f"mask-links:{p}"):
        table = link_homology_table(g, g.mask(supp), p)
        assert list(table) == outside_cliques(g, supp)
        for s, dims in table.items():
            oracle = reduced_homology(link_complex(g, supp, s), p)
            assert set(dims) <= set(oracle)
            assert {d: dims.get(d, 0) for d in oracle} == oracle, (g, supp, s)
            collapsed += len(dims) < len(oracle)
            empty += oracle == {-1: 1}
    assert collapsed and empty       # both shortcuts were exercised


def test_mask_dfs_lists_cliques_in_enumerate_order():
    rng = random.Random("mask-dfs")
    for _ in range(40):
        g = with_extras(rng, random_graph(rng, rng.randint(0, 8),
                                          rng.uniform(0.2, 0.9)))
        full = (1 << len(g)) - 1
        named = [[tuple(v for v in g.vertices if c >> g.index(v) & 1)
                  for c in group] for group in clique_masks(g.masks, full)]
        assert named == enumerate_cliques(g)
        # a vertex subset: the DFS of the induced subgraph
        keep = [v for v in g.vertices if rng.random() < 0.6]
        sub = clique_masks(g.masks, g.mask(keep))
        assert [[tuple(v for v in g.vertices if c >> g.index(v) & 1)
                 for c in group] for group in sub] == \
            enumerate_cliques(induced_subgraph(g, keep))


def test_strong_collapse_leaves_no_dominated_vertex():
    rng = random.Random("collapse")
    for _ in range(80):
        g = with_extras(rng, random_graph(rng, rng.randint(0, 9),
                                          rng.uniform(0.2, 0.9)))
        vset = g.mask(v for v in g.vertices if rng.random() < 0.8)
        core = strong_collapse(g.masks, vset)
        assert core & ~vset == 0
        assert (core == 0) == (vset == 0)
        assert not dominated(g, core)
        assert len(components(g.masks, core)) == \
            len(components(g.masks, vset))


def test_cones_collapse_to_a_point():
    rng = random.Random("cone-collapse")
    for _ in range(20):
        base = random_graph(rng, rng.randint(0, 6), 0.5)
        cone = examples.join(base, SimplicialGraph(["apex"], []))
        core = strong_collapse(cone.masks, (1 << len(cone)) - 1)
        assert core.bit_count() == 1


def test_components_against_named_graphs():
    rng = random.Random("components")
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 8), rng.uniform(0.1, 0.6))
        keep = [v for v in g.vertices if rng.random() < 0.7]
        sub = induced_subgraph(g, keep)
        count = len(components(g.masks, g.mask(keep)))
        assert (count == 1) == is_connected(sub)
        if keep:
            assert count == reduced_homology(link_complex(g, keep, ()), 2)[0] + 1
        else:
            assert count == 0


def test_top_degree_is_the_clique_number():
    for g, supp in seeded_cases("top"):
        omega = len(enumerate_cliques(g)) - 1
        assert clique_number(g.masks, (1 << len(g)) - 1) == omega
        chi = Character(3, {v: int(v in supp) for v in g.vertices})
        assert character_complex(g, chi).hi == omega
        table = link_homology_table(g, g.mask(supp), 3)
        assert len(homology_from_links(g, table)) == omega
        if supp:
            assert len(analyze(g, chi)["degrees"]) == omega


def test_cone_keeps_every_degree_row():
    # the S = () link of a cone collapses to a point, yet the report
    # still lists every clique size of the graph
    cone = examples.join(examples.octahedron(), SimplicialGraph(["apex"], []))
    rep = analyze(cone, examples.ones_character(cone, 2))
    assert [r["clique_size"] for r in rep["degrees"]] == [1, 2, 3, 4]
    assert rep["max_fp"] == "inf"


def test_max_fp_never_rises_when_the_support_shrinks():
    # Meier-Meinert-VanWyk: the FP level is monotone in the support
    rng = random.Random("monotone-support")
    removals = 0
    for _ in range(40):
        g = with_extras(rng, random_graph(rng, rng.randint(1, 7),
                                          rng.uniform(0.3, 0.9)))
        p = rng.choice((2, 3))
        supp = [v for v in g.vertices if rng.random() < 0.8] or \
            [g.vertices[0]]
        level = max_fp(g, Character(p, {v: int(v in supp)
                                        for v in g.vertices}))
        for v in (supp if len(supp) > 1 else []):
            smaller = Character(p, {w: int(w in supp and w != v)
                                    for w in g.vertices})
            assert max_fp(g, smaller) <= level, (g, supp, v)
            removals += 1
    assert removals > 100


def sphere():
    """Flag 2-sphere with 14 vertices: the barycentric subdivision of
    the boundary of a tetrahedron."""
    return examples.subdivision(list(combinations((1, 2, 3, 4), 3)))


def test_rp2_has_torsion_only_at_2():
    g = examples.rp2()
    assert (len(g), len(g.edges)) == (31, 90)
    rng = random.Random("rp2")
    full = frozenset(g.vertices)
    for p in (2, 3, 5):
        table = link_homology_table(g, g.mask(full), p)
        torsion = int(p == 2)
        assert table == {(): {-1: 0, 0: 0, 1: torsion, 2: torsion}}
        for supp in [full] + [full - set(rng.sample(g.vertices, 3))
                              for _ in range(2)]:
            for s, dims in link_homology_table(g, g.mask(supp), p).items():
                oracle = reduced_homology(link_complex(g, supp, s), p)
                assert {d: dims.get(d, 0) for d in oracle} == oracle, (supp, s)


def test_rp2_fp_level_depends_on_p():
    inf = float("inf")
    for p, level in ((2, 1), (3, inf)):
        g = examples.rp2()
        assert max_fp(g, examples.ones_character(g, p)) == level
    g = examples.rp2()      # one graph, so one memo, asked at p = 2, 3, 2
    assert [max_fp(g, examples.ones_character(g, p)) for p in (2, 3, 2)] == \
        [1, inf, 1]


def test_one_graph_analysed_at_2_then_3_then_2_matches_fresh_graphs():
    # as a coabelian run with one spec per prime would: the memo keyed
    # by (vertex set, p) must not hand one prime's homology to another
    g = examples.rp2()
    full = frozenset(g.vertices)
    supports = (full, full - {"f1"}, full - {"f12", "f3"})
    for p in (2, 3, 2):
        for supp in supports:
            chi = examples.support_character(g, supp, p)
            assert analyze(g, chi, max_n=3) == \
                analyze(examples.rp2(), chi, max_n=3), (p, supp)
            assert link_homology_table(g, g.mask(supp), p) == \
                link_homology_table(examples.rp2(), g.mask(supp), p), (p, supp)
    assert {p for _, p in g._homology} == {2, 3}


def test_moore3_has_torsion_only_at_3():
    g = examples.moore3()
    assert (len(g), len(g.edges)) == (79, 240)
    for p in (2, 3, 5, 7):
        torsion = int(p == 3)
        want = {-1: 0, 0: 0, 1: torsion, 2: torsion}
        assert mask_reduced_homology(g, (1 << len(g)) - 1, p) == want, p
        assert reduced_homology(enumerate_cliques(g), p) == want, p


def test_moore3_fpn_verdict_depends_on_p(tmp_path, capsys):
    g = examples.moore3()
    gp = tmp_path / "moore3.json"
    gp.write_text(json.dumps(graph_document(g)))
    for p, code, level in ((3, 1, 1), (2, 0, "inf"), (5, 0, "inf")):
        chi = examples.ones_character(g, p)
        cp = tmp_path / f"ones{p}.json"
        cp.write_text(json.dumps(chi.document()))
        assert main(["fpn", str(gp), str(cp), "--max-n", "3"]) == code, p
        assert json.loads(capsys.readouterr().out)["results"]["max_fp"] == \
            level
        # the unsplit support complex agrees with the link route
        for n in (1, 2, 3):
            assert fp_via_complex(g, chi, n) == fp_via_links(g, chi, n) == \
                (level == "inf" or n <= level), (p, n)
        assert decomposition_check(g, chi)["ok"], p


def test_one_moore3_analysed_at_3_then_2_then_3_matches_fresh_graphs():
    g = examples.moore3()
    for p in (3, 2, 3):
        chi = examples.ones_character(g, p)
        assert analyze(g, chi, max_n=3) == \
            analyze(examples.moore3(), chi, max_n=3), p
    assert {p for _, p in g._homology} == {2, 3}


def test_warm_memo_tables_equal_fresh_graph_tables():
    rng = random.Random("memo")
    links = computed = 0
    for _ in range(12):
        g = with_extras(rng, random_graph(rng, rng.randint(1, 6),
                                          rng.uniform(0.3, 0.9)))
        p = rng.choice((2, 3))
        for vset in range(1 << len(g)):         # every support, even none
            warm = link_homology_table(g, vset, p)
            fresh = SimplicialGraph(g.vertices, g.edges)
            assert warm == link_homology_table(fresh, vset, p), (g, vset)
            links += len(warm)
        # one dict per core ranked, kept under the core and under every
        # vertex set that collapsed onto it
        computed += len({id(h) for h in g._homology.values()})
    assert computed < links / 10        # most links were memo hits


def test_corrupt_memo_entry_is_caught_on_the_next_link_with_its_core():
    g = examples.path(3)                  # v1 - v2 - v3
    h = mask_reduced_homology(g, 0b111, 2)
    # collapsed onto v3; kept under the core, then under the vertex set
    assert list(g._homology) == [(0b100, 2), (0b111, 2)]
    g._homology[0b100, 2] = {**h, 0: h[0] + 1}
    with pytest.raises(InternalDefect):
        mask_reduced_homology(g, 0b110, 2)      # v2 - v3, same core


def test_a_vertex_set_seen_before_is_not_collapsed_again(monkeypatch):
    g = examples.path(3)                  # v1 - v2 - v3, a cone on v2
    collapses = []

    def recording(adj, vset):
        collapses.append(vset)
        return strong_collapse(adj, vset)

    monkeypatch.setattr(flag_homology, "strong_collapse", recording)
    assert strong_collapse(g.masks, 0b111) == 0b100     # not its own core
    first = mask_reduced_homology(g, 0b111, 2)
    assert collapses == [0b111] and (0b111, 2) in g._homology
    assert mask_reduced_homology(g, 0b111, 2) is first
    assert collapses == [0b111]         # the second lookup hit
    assert mask_reduced_homology(g, 0b111, 3) == first
    assert collapses == [0b111, 0b111]  # another prime is another entry


def test_each_vertex_set_is_searched_for_components_once(monkeypatch):
    g = examples.path(3)
    searched = []

    def recording(adj, vset):
        searched.append(vset)
        return components(adj, vset)

    monkeypatch.setattr(flag_homology, "components", recording)
    for vset, p in ((0b111, 2), (0b111, 2), (0b111, 3), (0b101, 2)):
        mask_reduced_homology(g, vset, p)
    assert searched == [0b111, 0b101]
    assert g._components == {0b111: 1, 0b101: 2}


def test_the_low_degree_self_check_runs_on_a_memo_hit():
    g = examples.path(3)
    h = mask_reduced_homology(g, 0b111, 2)
    g._homology[0b111, 2] = {**h, -1: 1}
    with pytest.raises(InternalDefect, match="degree -1"):
        mask_reduced_homology(g, 0b111, 2)


def test_clearing_builds_no_column_that_is_a_low_above(monkeypatch):
    # the 2-sphere relative to the stars of the triangle f1 f12 f123: 4
    # vertices, 16 edges, 13 triangles, boundary ranks 12 and 4; the
    # lows of each rank are the columns cleared one degree down
    shapes = []

    def recording(m, **kw):
        shapes.append((m.rows, m.cols))
        return fpmatrix.rank_fp(m, **kw)

    monkeypatch.setattr(flag_homology, "rank_fp", recording)
    g = sphere()
    assert mask_reduced_homology(g, (1 << 14) - 1, 3) == \
        {-1: 0, 0: 0, 1: 0, 2: 1}
    assert shapes == [(16, 13), (4, 16 - 12)]


def test_every_ranked_relative_complex_squares_to_zero(monkeypatch):
    # clearing leaves out the columns at the lows one degree up, which
    # is exact only when d . d = 0 on the complex it ranks: each core
    # relative to its stars, on graphs with extras, the 2-sphere, its
    # suspension (relative cliques in degrees 1, 2 and 3) and the
    # cross-polytopes k = 6, 7
    ranked = []
    core_homology = flag_homology._core_homology

    def recording(adj, vset, p):
        ranked.append((adj, vset, p))
        return core_homology(adj, vset, p)

    monkeypatch.setattr(flag_homology, "_core_homology", recording)
    rng = random.Random("relative-dd")
    graphs = [with_extras(rng, random_graph(rng, rng.randint(5, 10),
                                            rng.uniform(0.3, 0.7)))
              for _ in range(40)]
    graphs += [sphere(), examples.join(sphere(), SimplicialGraph(["n", "s"]))]
    graphs += [cross_polytope(rng, k) for k in (6, 7)]
    for g in graphs:
        for p in (2, 3, 5):
            for supp in ((1 << len(g)) - 1,
                         g.mask(v for v in g.vertices if rng.random() < 0.7)):
                link_homology_table(g, supp, p)
    squares = 0                         # degrees n, n + 1 both nonempty
    for adj, core, p in ranked:
        if core:
            stars = flag_homology._star_cover(adj, core)
            cx = ChainComplexFp(clique_masks(adj, core, stars), p, -1,
                                stars=stars)
            assert cx.dd_violation() is None, (adj, core, p)
            squares += sum(cx.dims[n] > 0 and cx.dims[n + 1] > 0
                           for n in range(cx.lo + 1, cx.hi))
    assert squares > 20


def test_too_high_rank_above_degree_0_is_a_negative_dimension(monkeypatch):
    # one rank too many for the triangles of the 2-sphere leaves h_-1
    # and h_0 right, so only the negative degree-1 dimension shows
    monkeypatch.setattr(flag_homology, "rank_fp", lambda m, **kw:
                        fpmatrix.rank_fp(m, **kw) + (m.rows == 16))
    with pytest.raises(InternalDefect, match="negative .* at degree 1"):
        mask_reduced_homology(sphere(), (1 << 14) - 1, 3)


def test_a_vertex_set_outside_the_graph_is_a_schema_error():
    g = SimplicialGraph("ab")
    for bad, shown in ((0b100, "0b100"), (-1, "-0b1")):
        with pytest.raises(SchemaError, match=f"{shown} .* 2 vertices"):
            mask_reduced_homology(g, bad, 2)
    assert g._homology == {}
    assert mask_reduced_homology(g, 0b11, 2) == {-1: 0, 0: 1}


def test_avoiding_dfs_is_the_full_dfs_filtered():
    rng = random.Random("avoid")
    for _ in range(60):
        g = with_extras(rng, random_graph(rng, rng.randint(1, 9),
                                          rng.uniform(0.2, 0.9)))
        full = (1 << len(g)) - 1
        vset = g.mask(v for v in g.vertices if rng.random() < 0.8)
        avoid = tuple(rng.randint(0, full) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.5:          # closed neighbourhoods, as ranked
            avoid = tuple(g.masks[i] & vset | 1 << i
                          for i in range(len(g)) if rng.random() < 0.3) \
                or avoid
        kept = [[c for c in group if all(c & ~a for a in avoid)]
                for group in clique_masks(g.masks, vset)]
        while len(kept) > 1 and not kept[-1]:
            kept.pop()
        assert clique_masks(g.masks, vset, avoid) == kept, (g, vset, avoid)


def test_relative_ranks_match_the_tuple_oracle_at_benchmark_scale(
        monkeypatch):
    # random graphs of up to 13 vertices, cross-polytopes k = 5 and 6,
    # and the suspension of the flag RP^2, whose reduced homology is
    # F_2 in degrees 2 and 3 at p = 2 and nothing at an odd prime
    ranked = []

    def recording(adj, vset, avoid=()):
        groups = clique_masks(adj, vset, avoid)
        ranked.append((clique_masks(adj, vset), groups))
        return groups

    monkeypatch.setattr(flag_homology, "clique_masks", recording)
    rng = random.Random("relative-oracle")
    graphs = [random_graph(rng, rng.randint(9, 13), rng.uniform(0.3, 0.7))
              for _ in range(10)]
    graphs += [cross_polytope(rng, k) for k in (5, 6)]
    suspension = examples.join(examples.rp2(), SimplicialGraph(["n", "s"]))
    graphs.append(suspension)
    for g in graphs:
        full = (1 << len(g)) - 1
        for vset in [full] + [g.mask(v for v in g.vertices
                                     if rng.random() < 0.7)
                              for _ in range(2)]:
            for p in (2, 3, 5):
                dims = mask_reduced_homology(g, vset, p)
                oracle = reduced_homology(enumerate_cliques(g, vset), p)
                assert set(dims) <= set(oracle)
                assert {d: dims.get(d, 0) for d in oracle} == oracle, \
                    (g, vset, p)
    for p, torsion in ((2, 1), (3, 0), (5, 0)):
        h = mask_reduced_homology(suspension, (1 << 33) - 1, p)
        assert {d: h.get(d, 0) for d in range(-1, 4)} == \
            {-1: 0, 0: 0, 1: 0, 2: torsion, 3: torsion}
    # both ends were met: a nonempty core ranked with nothing left
    # over, and one with relative cliques in at least two degrees
    assert any(len(whole) > 1 and groups == [[]] for whole, groups in ranked)
    assert any(sum(map(bool, groups)) >= 2 for _, groups in ranked)
    relative = sum(len(c) for _, groups in ranked for c in groups)
    absolute = sum(len(c) for whole, _ in ranked for c in whole)
    assert 4 * relative < absolute

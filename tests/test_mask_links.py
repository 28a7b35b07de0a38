"""The bitmask link route against the tuple route it replaced.

``link_homology_table`` builds each link as a vertex bitmask, strong-
collapses it and ranks the boundaries of what is left.  The tuple route
(``link_complex`` -> ``flag_complex`` -> ``reduced_homology``) builds the
uncollapsed complex with named simplices and is the oracle here.
"""

import random
from itertools import combinations

import pytest

from raagfp import corpus
from raagfp.flag_homology import link_complex, reduced_homology
from raagfp.fpcheck import (Character, analyze, character_complex,
                            homology_from_links, link_homology_table, max_fp,
                            outside_cliques)
from raagfp.graph import (SimplicialGraph, clique_masks, clique_number,
                          component_count, enumerate_cliques, induced_subgraph,
                          is_connected, strong_collapse)


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
    closed = {v: (g.neighbors(v) & members) | {v} for v in members}
    return {g.index(v) for v in members
            if any(u != v and closed[v] <= closed[u] for u in members)}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mask_links_match_tuple_oracle_in_every_degree(p):
    collapsed = empty = 0
    for g, supp in seeded_cases(f"mask-links:{p}"):
        table = link_homology_table(g, supp, p)
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
        groups = enumerate_cliques(g, len(g))
        while len(groups) > 1 and not groups[-1]:
            groups.pop()
        named = [[tuple(v for v in g.vertices if c >> g.index(v) & 1)
                  for c in group] for group in clique_masks(g.masks, full)]
        assert named == groups
        # a vertex subset: the DFS of the induced subgraph
        keep = [v for v in g.vertices if rng.random() < 0.6]
        sub = clique_masks(g.masks, g.mask(keep))
        assert [[tuple(v for v in g.vertices if c >> g.index(v) & 1)
                 for c in group] for group in sub] == \
            [grp for grp in enumerate_cliques(induced_subgraph(g, keep),
                                              len(keep)) if grp]


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
        assert component_count(g.masks, core) == \
            component_count(g.masks, vset)


def test_cones_collapse_to_a_point():
    rng = random.Random("cone-collapse")
    for _ in range(20):
        base = random_graph(rng, rng.randint(0, 6), 0.5)
        cone = corpus.join(base, SimplicialGraph(["apex"], []))
        core = strong_collapse(cone.masks, (1 << len(cone)) - 1)
        assert core.bit_count() == 1


def test_component_count_against_named_graphs():
    rng = random.Random("components")
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 8), rng.uniform(0.1, 0.6))
        keep = [v for v in g.vertices if rng.random() < 0.7]
        sub = induced_subgraph(g, keep)
        count = component_count(g.masks, g.mask(keep))
        assert (count == 1) == is_connected(sub)
        if keep:
            assert count == reduced_homology(link_complex(g, keep, ()), 2)[0] + 1
        else:
            assert count == 0


def test_top_degree_is_the_clique_number():
    for g, supp in seeded_cases("top"):
        groups = enumerate_cliques(g, len(g))
        omega = max(k for k, group in enumerate(groups) if group)
        assert clique_number(g.masks, (1 << len(g)) - 1) == omega
        chi = Character(3, {v: int(v in supp) for v in g.vertices})
        assert character_complex(g, chi).hi == omega
        table = link_homology_table(g, supp, 3)
        assert len(homology_from_links(g, table)) == omega
        if supp:
            assert len(analyze(g, chi).degrees) == omega


def test_cone_keeps_every_degree_row():
    # the S = () link of a cone collapses to a point, yet the report
    # still lists every clique size of the graph
    cone = corpus.join(corpus.octahedron(), SimplicialGraph(["apex"], []))
    rep = analyze(cone, corpus.ones_character(cone, 2))
    assert [r.clique_size for r in rep.degrees] == [1, 2, 3, 4]
    assert rep.max_fp == float("inf")


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

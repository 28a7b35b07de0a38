import copy
import json
import pickle
import random
from itertools import combinations

import examples
import pytest

from graphref import cliques, is_connected, is_dominant, neighbours
from raagfp.errors import SchemaError
from raagfp.fpcheck import connected_and_dominant
from raagfp.graph import (SimplicialGraph, components, enumerate_cliques,
                          graph_document, induced_subgraph, join_factors,
                          parse_graph)


def c4():
    return examples.cycle(4)


def p3():
    return examples.path(3)


# parsing

def test_parse_k2():
    g = parse_graph({"vertices": ["a", "b"], "edges": [["a", "b"]]})
    assert g.vertices == ("a", "b")
    assert g.edges == {("a", "b")}


def test_parse_rejects_self_loop_naming_offender():
    with pytest.raises(SchemaError, match="'a'"):
        parse_graph({"vertices": ["a"], "edges": [["a", "a"]]})


def test_parse_rejects_duplicate_vertex():
    with pytest.raises(SchemaError, match="duplicate vertex"):
        parse_graph({"vertices": ["a", "a"], "edges": []})


def test_parse_rejects_unknown_endpoint():
    with pytest.raises(SchemaError, match="'c'"):
        parse_graph({"vertices": ["a", "b"], "edges": [["a", "c"]]})


def test_parse_deduplicates_reversed_edges():
    g = parse_graph({"vertices": ["a", "b"],
                     "edges": [["a", "b"], ["b", "a"], ["a", "b"]]})
    assert len(g.edges) == 1


def test_parse_c4_roundtrip():
    doc = {"vertices": ["v1", "v2", "v3", "v4"],
           "edges": [["v1", "v2"], ["v2", "v3"], ["v3", "v4"], ["v4", "v1"]]}
    g = parse_graph(doc)
    assert g == c4()
    assert parse_graph(graph_document(g)) == g


# identity and immutability

def test_equal_graphs_from_duplicated_reversed_or_reordered_edges():
    rng = random.Random("identity")
    for _ in range(30):
        n = rng.randint(0, 7)
        vs = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(vs, 2) if rng.random() < 0.5]
        g = SimplicialGraph(vs, edges)
        noisy = edges + [(b, a) for a, b in edges if rng.random() < 0.5] \
            + [e for e in edges if rng.random() < 0.3]
        rng.shuffle(noisy)
        h = SimplicialGraph(vs, noisy)
        assert h == g and hash(h) == hash(g) and h.edges == g.edges
        if n > 1:
            other = edges[:-1] if edges else [(vs[0], vs[1])]
            assert SimplicialGraph(vs, other) != g
            assert SimplicialGraph(vs[::-1], edges) != g


def test_repr_and_document_bytes():
    g = SimplicialGraph(["c", "a", "b", "d", "e"],
                        [("b", "c"), ("a", "c"), ("d", "a"), ("b", "a"),
                         ("c", "b"), ("e", "c")])
    assert repr(g) == ("SimplicialGraph(['c', 'a', 'b', 'd', 'e'], "
                       "[('c', 'a'), ('c', 'b'), ('c', 'e'), ('a', 'b'), "
                       "('a', 'd')])")
    assert json.dumps(graph_document(g)) == (
        '{"vertices": ["c", "a", "b", "d", "e"], "edges": [["c", "a"], '
        '["c", "b"], ["c", "e"], ["a", "b"], ["a", "d"]]}')
    assert g.edges == {("c", "a"), ("c", "b"), ("c", "e"), ("a", "b"),
                       ("a", "d")}


def test_graphs_are_read_only():
    g = SimplicialGraph(["a", "b"], [("a", "b")])
    with pytest.raises(AttributeError):
        g.vertices = ("z",)
    with pytest.raises(AttributeError):
        g.masks = (0, 0)
    for name in ("vertices", "masks", "edges", "_omega", "_homology", "new"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert enumerate_cliques(g) == [[()], [("a",), ("b",)], [("a", "b")]]
    assert g.edges == {("a", "b")}


def test_pickle_and_copy_round_trip():
    g = examples.octahedron()
    assert g._clique_number() == 3              # fill the omega cache
    for h in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
        assert h.masks == g.masks and h.edges == g.edges
        assert enumerate_cliques(h) == enumerate_cliques(g)


# induced subgraphs, links

def test_induced_opposite_corners():
    g = induced_subgraph(c4(), {"v1", "v3"})
    assert g.vertices == ("v1", "v3") and not g.edges


def test_induced_identity_and_path():
    assert induced_subgraph(c4(), c4().vertices) == c4()
    g = induced_subgraph(p3(), {"v1", "v2"})
    assert g.edges == {("v1", "v2")}


def test_induced_unknown_vertex():
    with pytest.raises(SchemaError):
        induced_subgraph(c4(), {"v1", "zz"})


def test_induced_monotone():
    rng = random.Random("monotone")
    for _ in range(20):
        n = rng.randint(1, 8)
        vs = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(vs, 2) if rng.random() < 0.5]
        g = SimplicialGraph(vs, edges)
        keep2 = {v for v in vs if rng.random() < 0.7}
        keep1 = {v for v in keep2 if rng.random() < 0.7}
        assert induced_subgraph(g, keep1).edges <= induced_subgraph(g, keep2).edges


# connectivity and dominance

def test_components_examples():
    assert components(c4().masks, 0b1111) == [0b1111]
    assert components(examples.edgeless(2).masks, 0b11) == [0b01, 0b10]
    assert components((), 0) == []
    # P_3 without its middle vertex falls apart
    assert components(p3().masks, 0b101) == [0b001, 0b100]


def test_connected_and_dominant_examples():
    assert connected_and_dominant(p3(), 0b010) == (True, True)
    assert connected_and_dominant(p3(), 0b001) == (True, False)
    assert connected_and_dominant(p3(), 0b101) == (False, True)
    assert connected_and_dominant(c4(), 0b1111) == (True, True)
    with pytest.raises(SchemaError):
        connected_and_dominant(p3(), 0b1000)


def test_components_against_set_bfs():
    rng = random.Random("components")
    split = 0
    for _ in range(200):
        n = rng.randint(0, 10)
        vs = [f"v{i}" for i in range(n)]
        d = rng.uniform(0.05, 0.7)
        g = SimplicialGraph(vs, [e for e in combinations(vs, 2)
                                 if rng.random() < d])
        keep = [v for v in vs if rng.random() < 0.7]
        vset = g.mask(keep)
        comps = components(g.masks, vset)
        lowest = [c & -c for c in comps]
        assert lowest == sorted(lowest)
        union = 0
        for c in comps:                            # a partition of vset
            assert c and not c & union
            union |= c
        assert union == vset
        named = [g.members(c) for c in comps]
        for part in named:                         # each one connected
            assert is_connected(induced_subgraph(g, part))
        nbrs = neighbours(g)
        for x, y in combinations(named, 2):        # no edge between two
            assert not any(b in nbrs[a] for a in x for b in y)
        assert (len(comps) == 1) == is_connected(induced_subgraph(g, keep))
        split += len(comps) > 1
    assert split > 20


def test_connected_and_dominant_against_set_reference():
    checked = 0
    for g in examples.connected_graph_catalog(5):
        for bits in range(1 << len(g)):
            supp = [v for i, v in enumerate(g.vertices) if bits >> i & 1]
            assert connected_and_dominant(g, g.mask(supp)) == \
                (is_connected(induced_subgraph(g, supp)), is_dominant(g, supp))
            checked += 1
    assert checked > 500


# join decomposition

def test_join_factors_examples():
    assert join_factors(examples.complete(3)) == [("v1",), ("v2",), ("v3",)]
    assert join_factors(c4()) == [("v1", "v3"), ("v2", "v4")]
    # P_3 is the join of its middle vertex with the edgeless outer pair
    assert join_factors(p3()) == [("v1", "v3"), ("v2",)]
    with pytest.raises(ValueError):
        join_factors(SimplicialGraph([], []))


def test_join_factors_partition_and_rebuild():
    rng = random.Random("join")
    for _ in range(30):
        n = rng.randint(1, 8)
        vs = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(vs, 2) if rng.random() < 0.6]
        g = SimplicialGraph(vs, edges)
        factors = join_factors(g)
        flat = [v for f in factors for v in f]
        assert sorted(flat) == sorted(vs)          # partition
        lookup = {v: i for i, f in enumerate(factors) for v in f}
        nbrs = neighbours(g)
        for a, b in combinations(vs, 2):           # join rebuild
            if lookup[a] != lookup[b]:
                assert b in nbrs[a]
        for f in factors:                          # indecomposable
            comp = SimplicialGraph(f, [(a, b) for a, b in combinations(f, 2)
                                       if b not in nbrs[a]])
            assert len(f) == 1 or is_connected(comp)


# cliques

def brute_cliques(g, max_size):
    nbrs = neighbours(g)
    groups = [[] for _ in range(max_size + 1)]
    for k in range(max_size + 1):
        for sub in combinations(g.vertices, k):
            if all(b in nbrs[a] for a, b in combinations(sub, 2)):
                groups[k].append(sub)
    return groups


def test_enumerate_cliques_examples():
    groups = enumerate_cliques(c4())
    assert [len(x) for x in groups] == [1, 4, 4]
    groups = enumerate_cliques(examples.complete(3))
    assert [len(x) for x in groups] == [1, 3, 3, 1]
    groups = enumerate_cliques(examples.edgeless(2))
    assert groups[0] == [()] and len(groups[1]) == 2 and len(groups) == 2
    assert enumerate_cliques(SimplicialGraph([], [])) == [[()]]


def test_enumerate_cliques_against_bruteforce():
    rng = random.Random("cliques")
    for _ in range(15):
        n = rng.randint(0, 8)
        vs = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(vs, 2) if rng.random() < 0.6]
        g = SimplicialGraph(vs, edges)
        expected = brute_cliques(g, n)
        while len(expected) > 1 and not expected[-1]:
            expected.pop()
        assert enumerate_cliques(g) == expected


def test_enumerate_cliques_inside_a_vertex_set():
    rng = random.Random("clique sets")
    for _ in range(60):
        n = rng.randint(0, 9)
        vs = [f"v{i}" for i in range(n)]
        d = rng.uniform(0.2, 0.9)
        g = SimplicialGraph(vs, [e for e in combinations(vs, 2)
                                 if rng.random() < d])
        full = (1 << n) - 1
        vsets = {0, full} | {rng.randint(0, full) for _ in range(12)}
        for vset in vsets:
            keep = g.members(vset)
            groups = enumerate_cliques(g, vset)
            assert groups == enumerate_cliques(induced_subgraph(g, keep))
            assert [set(map(frozenset, group)) for group in groups] == \
                cliques(g, keep)
        assert enumerate_cliques(g, 0) == [[()]]
        assert enumerate_cliques(g, full) == enumerate_cliques(g)


def test_a_vertex_set_outside_the_graph_is_a_schema_error():
    g = SimplicialGraph("ab")
    for bad, shown in ((0b100, "0b100"), (-1, "-0b1")):
        with pytest.raises(SchemaError, match=f"{shown} .* 2 vertices"):
            enumerate_cliques(g, bad)
    assert enumerate_cliques(g, 0b11) == [[()], [("a",), ("b",)]]


def test_enumerate_cliques_order():
    g = examples.complete(4)
    groups = enumerate_cliques(g)
    assert len(groups) == 5
    assert groups[2] == sorted(groups[2], key=lambda c: (g.index(c[0]),
                                                         g.index(c[1])))


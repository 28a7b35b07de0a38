import random
from itertools import combinations

import pytest

from raagfp import corpus
from raagfp.flag_homology import (FlagComplex, flag_complex, is_k_acyclic,
                                  link_complex, reduced_homology,
                                  simplicial_chain_complex)
from raagfp.graph import SimplicialGraph


def random_graph(rng, n, density=0.5):
    vs = [f"v{i}" for i in range(n)]
    edges = [e for e in combinations(vs, 2) if rng.random() < density]
    return SimplicialGraph(vs, edges)


def test_flag_complex_counts():
    fc = flag_complex(corpus.cycle(4))
    assert [len(fc.group(k)) for k in (1, 2, 3)] == [4, 4, 0]
    fc = flag_complex(corpus.complete(3))
    assert [len(fc.group(k)) for k in (1, 2, 3)] == [3, 3, 1]
    assert flag_complex(SimplicialGraph([], [])).is_empty


def test_link_complex_examples():
    p3 = corpus.path(3)
    lk = link_complex(p3, {"v1", "v3"}, ("v2",))
    assert lk.vertex_count() == 2 and not lk.group(2)
    c4 = corpus.cycle(4)
    assert link_complex(c4, c4.vertices, ()) == flag_complex(c4)
    lk = link_complex(p3, {"v2"}, ("v1",))
    assert [s for s in lk.group(1)] == [("v2",)]
    with pytest.raises(ValueError, match="not a clique"):
        link_complex(c4, c4.vertices, ("v1", "v3"))


def test_simplicial_chain_complex_dims():
    cx = simplicial_chain_complex(flag_complex(corpus.cycle(4)), 2)
    assert cx.dims == {-1: 1, 0: 4, 1: 4}
    cx = simplicial_chain_complex(flag_complex(corpus.complete(3)), 3)
    assert [cx.dims[d] for d in (-1, 0, 1, 2)] == [1, 3, 3, 1]
    cx = simplicial_chain_complex(FlagComplex([]), 5)
    assert cx.dims == {-1: 1}


def test_boundary_rank_of_cycle_edges():
    # edges -> vertices of the 4-cycle over F_2: spanning-tree rank
    cx = simplicial_chain_complex(flag_complex(corpus.cycle(4)), 2)
    assert cx.boundary_rank(1) == 3


def test_chain_condition_holds():
    rng = random.Random("dd-simplicial")
    for _ in range(15):
        g = random_graph(rng, rng.randint(0, 7))
        for p in (2, 3):
            cx = simplicial_chain_complex(flag_complex(g), p)
            assert cx.dd_violation() is None


def test_reduced_homology_examples():
    assert reduced_homology(flag_complex(corpus.cycle(4)), 2) == \
        {-1: 0, 0: 0, 1: 1}
    point = flag_complex(SimplicialGraph(["x"], []))
    assert reduced_homology(point, 2) == {-1: 0, 0: 0}
    empty = flag_complex(SimplicialGraph([], []))
    assert reduced_homology(empty, 2) == {-1: 1}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_octahedron_is_a_2_sphere(p):
    h = reduced_homology(flag_complex(corpus.octahedron()), p)
    assert h == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_complete_graphs_are_acyclic():
    for n in range(1, 6):
        h = reduced_homology(flag_complex(corpus.complete(n)), 2)
        assert all(v == 0 for v in h.values())


def test_cones_are_acyclic():
    rng = random.Random("cones")
    for _ in range(10):
        base = random_graph(rng, rng.randint(0, 6))
        cone = corpus.join(base, SimplicialGraph(["apex"], []))
        for p in (2, 3):
            h = reduced_homology(flag_complex(cone), p)
            assert all(v == 0 for v in h.values())


def test_homology_independent_of_vertex_order():
    rng = random.Random("order")
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 7))
        perm = list(g.vertices)
        rng.shuffle(perm)
        g2 = SimplicialGraph(perm, list(g.edges))
        for p in (2, 3):
            assert reduced_homology(flag_complex(g), p) == \
                reduced_homology(flag_complex(g2), p)


def test_is_k_acyclic_conventions():
    two_points = flag_complex(corpus.edgeless(2))
    assert not is_k_acyclic(two_points, 2, 0)
    assert is_k_acyclic(two_points, 2, -1)
    empty = flag_complex(SimplicialGraph([], []))
    assert not is_k_acyclic(empty, 2, -1)
    point = flag_complex(SimplicialGraph(["x"], []))
    assert is_k_acyclic(point, 2, 100)
    with pytest.raises(ValueError):
        is_k_acyclic(point, 2, -2)

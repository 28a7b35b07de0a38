import random
from itertools import combinations

import examples
import pytest
from dense import dense_homology

from raagfp.errors import SchemaError
from raagfp.flag_homology import (link_complex, reduced_homology,
                                  simplicial_chain_complex)
from raagfp.graph import SimplicialGraph, enumerate_cliques


def random_graph(rng, n, density=0.5):
    vs = [f"v{i}" for i in range(n)]
    edges = [e for e in combinations(vs, 2) if rng.random() < density]
    return SimplicialGraph(vs, edges)


def test_flag_complex_counts():
    # a flag complex is its clique groups, with no trailing empty group
    fc = enumerate_cliques(examples.cycle(4))
    assert [len(group) for group in fc] == [1, 4, 4]
    fc = enumerate_cliques(examples.complete(3))
    assert [len(group) for group in fc] == [1, 3, 3, 1]
    assert enumerate_cliques(SimplicialGraph([], [])) == [[()]]


def test_link_complex_examples():
    p3 = examples.path(3)
    lk = link_complex(p3, {"v1", "v3"}, ("v2",))
    assert lk == [[()], [("v1",), ("v3",)]]
    c4 = examples.cycle(4)
    assert link_complex(c4, c4.vertices, ()) == enumerate_cliques(c4)
    lk = link_complex(p3, {"v2"}, ("v1",))
    assert lk == [[()], [("v2",)]]
    with pytest.raises(ValueError, match="not a clique"):
        link_complex(c4, c4.vertices, ("v1", "v3"))
    with pytest.raises(SchemaError, match="'zz'"):
        link_complex(c4, {"v1", "zz"}, ("v2",))
    with pytest.raises(SchemaError, match="'zz'"):
        link_complex(c4, c4.vertices, ("zz",))


def test_simplicial_chain_complex_dims():
    cx = simplicial_chain_complex(enumerate_cliques(examples.cycle(4)), 2)
    assert cx.dims == {-1: 1, 0: 4, 1: 4}
    cx = simplicial_chain_complex(enumerate_cliques(examples.complete(3)), 3)
    assert [cx.dims[d] for d in (-1, 0, 1, 2)] == [1, 3, 3, 1]
    cx = simplicial_chain_complex([[()]], 5)
    assert cx.dims == {-1: 1}
    with pytest.raises(ValueError, match="empty degree range"):
        simplicial_chain_complex([], 5)
    with pytest.raises(ValueError, match="prime"):
        simplicial_chain_complex([[()]], 4)


def test_boundary_rank_of_cycle_edges():
    # edges -> vertices of the 4-cycle over F_2 has the spanning-tree
    # rank 3: dims 1, 4, 4 and boundary ranks 1, 3
    cx = simplicial_chain_complex(enumerate_cliques(examples.cycle(4)), 2)
    assert cx.homology() == dense_homology(cx) == {-1: 0, 0: 0, 1: 1}


def test_chain_condition_holds():
    rng = random.Random("dd-simplicial")
    for _ in range(15):
        g = random_graph(rng, rng.randint(0, 7))
        for p in (2, 3):
            cx = simplicial_chain_complex(enumerate_cliques(g), p)
            assert cx.dd_violation() is None


def test_reduced_homology_examples():
    assert reduced_homology(enumerate_cliques(examples.cycle(4)), 2) == \
        {-1: 0, 0: 0, 1: 1}
    point = enumerate_cliques(SimplicialGraph(["x"], []))
    assert reduced_homology(point, 2) == {-1: 0, 0: 0}
    empty = enumerate_cliques(SimplicialGraph([], []))
    assert reduced_homology(empty, 2) == {-1: 1}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_octahedron_is_a_2_sphere(p):
    h = reduced_homology(enumerate_cliques(examples.octahedron()), p)
    assert h == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_complete_graphs_are_acyclic():
    for n in range(1, 6):
        h = reduced_homology(enumerate_cliques(examples.complete(n)), 2)
        assert all(v == 0 for v in h.values())


def test_cones_are_acyclic():
    rng = random.Random("cones")
    for _ in range(10):
        base = random_graph(rng, rng.randint(0, 6))
        cone = examples.join(base, SimplicialGraph(["apex"], []))
        for p in (2, 3):
            h = reduced_homology(enumerate_cliques(cone), p)
            assert all(v == 0 for v in h.values())


def test_homology_independent_of_vertex_order():
    rng = random.Random("order")
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 7))
        perm = list(g.vertices)
        rng.shuffle(perm)
        g2 = SimplicialGraph(perm, list(g.edges))
        for p in (2, 3):
            assert reduced_homology(enumerate_cliques(g), p) == \
                reduced_homology(enumerate_cliques(g2), p)


def test_reduced_homology_acyclicity_conventions():
    # k-acyclic means h vanishes in degrees -1..k; (-1)-acyclic is
    # nonempty, and the empty complex carries h_-1 = 1
    assert reduced_homology([[()]], 2) == {-1: 1}
    point = enumerate_cliques(SimplicialGraph(["x"], []))
    assert reduced_homology(point, 2) == {-1: 0, 0: 0}
    two_points = enumerate_cliques(examples.edgeless(2))
    assert reduced_homology(two_points, 2) == {-1: 0, 0: 1}

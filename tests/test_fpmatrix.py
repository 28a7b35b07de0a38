import random

import examples
import pytest
from dense import (dense_boundary, dense_homology, dense_rank, from_rows,
                   to_dense)

from raagfp.flag_homology import simplicial_chain_complex
from raagfp.fpcheck import Character, character_complex
from raagfp.fpmatrix import MatrixFp, check_prime, rank_fp
from raagfp.graph import SimplicialGraph, enumerate_cliques


def test_prime_validation():
    check_prime(2)
    check_prime(2147483647)
    for bad in (0, 1, 4, 9, 2 ** 31, 2 ** 31 + 11, 2.0):
        with pytest.raises(ValueError):
            check_prime(bad)


def test_zero_and_identity():
    assert rank_fp(MatrixFp(5, 3, [{} for _ in range(7)])) == 0
    identity = [[int(i == j) for j in range(6)] for i in range(6)]
    assert rank_fp(from_rows(identity, 5)) == 6
    assert MatrixFp(2, 5, [{}, {}, {}]).cols == 3


def test_equal_matrices_hash_alike():
    a = MatrixFp(3, 5, [{0: 1, 2: 4}, {}])
    b = MatrixFp(3, 5, [{2: 4, 0: 1}, {}])
    assert a == b == from_rows([[1, 0], [0, 0], [4, 0]], 5)
    assert hash(a) == hash(b)
    assert a != MatrixFp(3, 5, [{}, {}])
    assert a != from_rows([[1, 0], [0, 0], [4, 0]], 7)


def test_entries_normalized_mod_p():
    m = from_rows([[3, 4], [0, -1]], 3)
    assert m.columns == [{}, {0: 1, 1: 2}]
    assert to_dense(m) == [[0, 1], [0, 2]]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 2147483647])
def test_rank_against_dense_oracle(p):
    rng = random.Random(f"rank:{p}")
    for _ in range(25):
        nr = rng.randint(0, 12)
        nc = rng.randint(0, 12)
        dense = [[rng.randint(-p, p) if rng.random() < 0.4 else 0
                  for _ in range(nc)] for _ in range(nr)]
        m = from_rows(dense, p)
        assert rank_fp(m) == dense_rank(dense, p)


def boundary_test_graphs():
    """Seeded random graphs on at most 8 vertices, and the k-dimensional
    cross-polytopes (flag spheres) for k <= 4 in shuffled vertex order."""
    rng = random.Random("boundary-shapes")
    for _ in range(20):
        vs = [f"v{i}" for i in range(rng.randint(1, 8))]
        density = rng.choice((0.3, 0.6, 0.9))
        yield SimplicialGraph(vs, [(a, b) for i, a in enumerate(vs)
                                   for b in vs[i + 1:] if rng.random() < density])
    for k in range(1, 5):
        vs = [f"x{i}{s}" for i in range(k) for s in "+-"]
        rng.shuffle(vs)
        yield SimplicialGraph(vs, [(a, b) for i, a in enumerate(vs)
                                   for b in vs[i + 1:] if a[:-1] != b[:-1]])


@pytest.mark.parametrize("p", [2, 3, 5, 2147483647])
def test_rank_of_flag_boundaries_against_dense_oracle(p):
    # the matrices rank_fp sees in practice: boundary maps of flag complexes
    for g in boundary_test_graphs():
        cx = simplicial_chain_complex(enumerate_cliques(g), p)
        for n in range(cx.lo + 1, cx.hi + 1):
            assert rank_fp(cx.boundary(n)) == \
                dense_rank(dense_boundary(cx, n), p)


def shuffled_cross_polytopes():
    """The cross-polytopes k = 3..5 (flag spheres up to 243 cliques),
    each in two shuffled vertex orders."""
    rng = random.Random("clearing-spheres")
    for k in (3, 4, 5):
        for _ in range(2):
            vs = [f"x{i}{s}" for i in range(k) for s in "+-"]
            rng.shuffle(vs)
            yield SimplicialGraph(vs, [(a, b) for i, a in enumerate(vs)
                                       for b in vs[i + 1:] if a[:-1] != b[:-1]])


@pytest.mark.parametrize("p", [2, 3, 5, 2147483647])
def test_boundary_ranks_with_clearing_against_dense_oracle(p):
    # ChainComplexFp ranks every boundary top-down, leaving out the
    # columns of d_n that are lows of d_(n+1); each rank must still be
    # the rank of the whole matrix.  The dims and the homology in every
    # degree fix every rank, so the homology is checked against the dims
    # minus the dense ranks.
    rng = random.Random(f"clearing:{p}")
    graphs = list(boundary_test_graphs()) + list(shuffled_cross_polytopes())
    for g in graphs:
        cx = simplicial_chain_complex(enumerate_cliques(g), p)
        assert cx.homology() == dense_homology(cx), g
        # the support complex, which starts at the empty clique in degree 0
        values = {v: rng.choice((0, 1, -1, 2)) for v in g.vertices}
        cx = character_complex(g, Character(p, values))
        assert cx.homology() == dense_homology(cx), (g, values)
    c4 = examples.cycle(4)
    cx = character_complex(c4, examples.ones_character(c4, p))
    # dims 1, 4, 4 and boundary ranks 0, 1, 3
    assert cx.homology() == dense_homology(cx) == {0: 0, 1: 0, 2: 1}


@pytest.mark.parametrize("p", [2, 3, 5, 2147483647])
def test_rank_of_cleared_columns_against_dense_submatrix(p):
    rng = random.Random(f"cleared:{p}")
    for _ in range(40):
        nr, nc = rng.randint(0, 10), rng.randint(0, 10)
        dense = [[rng.randint(-p, p) if rng.random() < 0.4 else 0
                  for _ in range(nc)] for _ in range(nr)]
        cleared = frozenset(j for j in range(nc) if rng.random() < 0.3)
        kept = [[row[j] for j in range(nc) if j not in cleared] for row in dense]
        # the clearing pass hands rank_fp only the columns it keeps
        m = from_rows(dense, p)
        lows = set()
        rank = rank_fp(MatrixFp(nr, p, [
            col for j, col in enumerate(m.columns) if j not in cleared]),
            lows=lows)
        assert rank == dense_rank(kept, p)
        # one low per pivot, each a row index
        assert len(lows) == rank and lows <= set(range(nr))
        # the whole matrix is the reference and sees every column
        assert rank_fp(m) == dense_rank(dense, p)


def test_rank_with_empty_shapes_and_zero_columns():
    for rows, cols in ((0, 4), (4, 0), (0, 0)):
        assert rank_fp(MatrixFp(rows, 3, [{}] * cols)) == 0
    # zero columns around the pivots, and a column (the fourth, twice
    # the second) that reduces to zero against an earlier pivot
    dense = [[0, 1, 0, 2, 1, 0],
             [0, 2, 0, 1, 0, 0],
             [0, 0, 0, 0, 1, 0]]
    assert rank_fp(from_rows(dense, 3)) == dense_rank(dense, 3) == 2


def test_rank_of_rank_deficient_products():
    rng = random.Random("deficient")
    p = 5
    for _ in range(10):
        # outer-product sums have rank at most the number of summands
        n, terms = rng.randint(3, 9), rng.randint(1, 3)
        dense = [[0] * n for _ in range(n)]
        for _ in range(terms):
            u = [rng.randint(0, p - 1) for _ in range(n)]
            v = [rng.randint(0, p - 1) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    dense[i][j] = (dense[i][j] + u[i] * v[j]) % p
        assert rank_fp(from_rows(dense, p)) <= terms

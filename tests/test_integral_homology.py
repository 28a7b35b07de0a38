"""Integral homology as the oracle for the prime dependence of the F_p
homology: the Smith normal forms of integer boundary matrices predict
``mask_reduced_homology`` at every prime by the universal coefficient
theorem, and the primes at which ``max_fp`` changes."""

import random
from functools import lru_cache
from itertools import combinations
from math import gcd

import examples
import pytest
from integral import (boundary, fp_dimensions, integral_homology,
                      smith_invariants)
from test_fpcheck import planted_torsion

from raagfp.flag_homology import mask_reduced_homology, simplicial_chain_complex
from raagfp.fpcheck import Character, character_complex, max_fp
from raagfp.graph import SimplicialGraph, enumerate_cliques

PRIMES = (2, 3, 5, 7, 11)


def determinant(rows) -> int:
    if not rows:
        return 1
    return sum((-1) ** j * x
               * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def determinantal_invariants(rows) -> list:
    """Invariant factors as quotients of d_k, the gcd of the k-by-k
    minors: the definition, independent of any elimination."""
    out, previous = [], 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d = 0
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(len(rows[0])), k):
                minor = [[rows[r][c] for c in cs] for r in rs]
                d = gcd(d, determinant(minor))
        if not d:
            break
        out.append(d // previous)
        previous = d
    return out


def test_smith_invariants_against_determinantal_divisors():
    rng = random.Random("smith")
    for _ in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(nc)]
                for _ in range(nr)]
        columns = [{i: row[j] for i, row in enumerate(rows) if row[j]}
                   for j in range(nc)]
        assert smith_invariants(columns) == \
            determinantal_invariants(rows), rows


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mask_boundaries_are_the_integer_boundaries_mod_p(p):
    # ChainComplexFp builds every boundary column from clique bitmasks;
    # integral.boundary builds them from vertex tuples.  Under the map
    # that sends the i-th vertex of groups[1] to bit i, the flag complex
    # has the integer columns mod p, and the support complex keeps the
    # terms that remove a support vertex.
    rng = random.Random(f"mask-columns:{p}")
    for _ in range(30):
        vs = [f"v{i}" for i in range(rng.randint(0, 8))]
        density = rng.choice((0.3, 0.6, 0.9))
        g = SimplicialGraph(vs, [e for e in combinations(vs, 2)
                                 if rng.random() < density])
        groups = enumerate_cliques(g)
        bit = {v: 1 << i for i, (v,) in enumerate(groups[1])} \
            if len(groups) > 1 else {}
        masks = [[sum(bit[v] for v in c) for c in group] for group in groups]
        chi = Character(p, {v: rng.choice((0, 1, -1, 2)) for v in vs})
        support = set(chi.support(g))
        flag = simplicial_chain_complex(groups, p)
        cx = character_complex(g, chi)
        assert flag.groups == cx.groups == masks
        for k in range(1, len(groups)):
            below = groups[k - 1]
            integer = boundary(groups, k)
            assert flag.boundary(k - 1).columns == [
                {masks[k - 1][i]: s % p for i, s in col.items()}
                for col in integer], (g, k)
            assert cx.boundary(k).columns == [
                {masks[k - 1][i]: s % p for i, s in col.items()
                 if set(c) - set(below[i]) <= support}
                for c, col in zip(groups[k], integer)], (g, support, k)


def suspension(g):
    """The join with two non-adjacent points."""
    return examples.join(g, SimplicialGraph(["n", "s"]))


@lru_cache(maxsize=None)
def whole(name):
    """The flag complex of a named example or its suspension, as a graph
    and the mask of all its vertices."""
    piece, _, suspended = name.partition(":")
    g = getattr(examples, piece)()
    g = suspension(g) if suspended else g
    return g, (1 << len(g)) - 1


@lru_cache(maxsize=None)
def planted_links(piece):
    """The link of every outside clique of two planted-torsion graphs
    (the outside cliques are () and (z,)), as graphs and masks."""
    rng = random.Random(f"integral-torsion:{piece}")
    out = []
    for _ in range(2):
        g, values = planted_torsion(rng, getattr(examples, piece)())
        supp = g.mask(v for v in g.vertices if values[v])
        out += [(g, supp), (g, supp & g.masks[g.index("z")])]
    return out


# each named complex: degree -> its torsion's invariant factors; every
# Betti number is 0
TORSION = {"rp2": {1: [2]}, "moore3": {1: [3]},
           "rp2:suspended": {2: [2]}, "moore3:suspended": {2: [3]}}


@pytest.mark.parametrize("name", sorted(TORSION))
def test_torsion_of_the_named_complexes(name):
    h = integral_homology(*whole(name))
    assert {n: torsion for n, (_, torsion) in h.items() if torsion} == \
        TORSION[name]
    assert not any(betti for betti, _ in h.values())


def complexes():
    return [whole(name) for name in sorted(TORSION)] + \
        planted_links("rp2") + planted_links("moore3")


def test_universal_coefficients_predict_the_mask_homology():
    for g, vset in complexes():
        integral = integral_homology(g, vset)
        for p in PRIMES:
            h = mask_reduced_homology(g, vset, p)
            expected = fp_dimensions(integral, p)
            # the collapsed homology may stop below the top degree
            assert all(h.get(n, 0) == dim for n, dim in expected.items())
            assert set(h) <= set(expected), (g, vset, p)


def test_planted_links_carry_the_torsion_of_their_piece():
    for piece, factor in (("rp2", 2), ("moore3", 3)):
        for g, vset in planted_links(piece):
            assert integral_homology(g, vset)[1][1] == [factor]


def test_max_fp_changes_exactly_at_the_torsion_primes():
    # with the all-ones character the one outside clique is (), whose
    # link is the whole flag complex K, so max_fp(p) - 1 is the lowest
    # degree where H~(K; F_p) is nonzero.  It differs from its value at
    # 7 exactly at the primes dividing an invariant factor of the
    # torsion below the lowest degree with a nonzero Betti number.  A
    # planted graph's whole complex is a cone wedged with a small graph,
    # which has no torsion
    graphs = [whole(name)[0] for name in sorted(TORSION)]
    graphs += [g for g, _ in planted_links("rp2")[::2]]
    changed = []
    for g in graphs:
        integral = integral_homology(g, (1 << len(g)) - 1)
        lowest = min((n for n, (betti, _) in integral.items() if betti),
                     default=len(integral))
        torsion_primes = {p for p in PRIMES for n, (_, torsion)
                          in integral.items()
                          if n < lowest and any(f % p == 0 for f in torsion)}
        levels = {p: max_fp(g, examples.ones_character(g, p)) for p in PRIMES}
        assert {p for p in PRIMES if levels[p] != levels[7]} == \
            torsion_primes, levels
        changed.append(torsion_primes)
    assert changed == [{3}, {3}, {2}, {2}, set(), set()]

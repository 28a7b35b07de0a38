"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
Every expected value is exact; the timed criteria assert their stated
runtime bounds.
"""

import math
import random
import time
from itertools import combinations

import examples

from raagfp import fpcheck
from raagfp.coabelian import (CoabelianSpec, enumerate_patterns, fg_coabelian,
                              fpn_coabelian, matrix_rank)
from raagfp.flag_homology import (link_complex, reduced_homology,
                                  simplicial_chain_complex)
from raagfp.fpcheck import (Character, analyze, character_complex,
                            decomposition_check, fp_via_complex, fp_via_links,
                            is_fg, max_fp)
from raagfp.gog import (check_bounds, euler_characteristic, free_rank,
                        is_dihedral_type, lcm_vertex_orders, reduce)
from raagfp.graph import SimplicialGraph, enumerate_cliques
from raagfp.verify import random_character, random_gog, random_graph


def crit1_instances():
    for n in range(4, 9):
        for p in (2, 3, 5):
            g = examples.cycle(n)
            yield g, examples.ones_character(g, p)


def crit2_instances():
    for g in examples.connected_graph_catalog(6):
        nv = len(g.vertices)
        for mask in range(1, 1 << nv):
            supp = {v for i, v in enumerate(g.vertices) if mask >> i & 1}
            yield g, examples.support_character(g, supp, 2)


def crit3_instances():
    rng = random.Random("acceptance:decomposition")
    for _ in range(500):
        g = random_graph(rng, 8, min_vertices=1)
        for _ in range(3):
            base = random_character(rng, g, 2, nonzero=False)
            for p in (2, 3):
                yield g, Character(p, dict(base.values))


def test_criterion_1_cycles_fg_but_not_fp2():
    t0 = time.perf_counter()
    for g, chi in crit1_instances():
        assert is_fg(g, chi)
        assert not fp_via_complex(g, chi, 2)
        assert character_complex(g, chi).homology()[2] == 1
        assert not fp_via_links(g, chi, 2)
        assert max_fp(g, chi) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS cycles C_4..C_8, p in 2,3,5: fg, not FP_2, "
          f"dim H_2 = 1, max_fp = 1 ({elapsed:.2f}s)")


def test_criterion_2_fg_equals_fp1_exhaustively():
    t0 = time.perf_counter()
    checked = 0
    for g, chi in crit2_instances():
        fg = is_fg(g, chi)
        assert fp_via_complex(g, chi, 1) == fg
        assert fp_via_links(g, chi, 1) == fg
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 7815
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS {checked} instances (connected graphs <= 6 "
          f"vertices x all 0/1 characters), zero mismatches ({elapsed:.1f}s)")


def test_criterion_3_decomposition_identity():
    t0 = time.perf_counter()
    checked = 0
    for g, chi in crit3_instances():
        report = decomposition_check(g, chi)
        assert report["ok"], (g, chi.values, chi.p)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 3000
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 3 PASS decomposition identity on {checked} "
          f"instances ({elapsed:.1f}s)")


def test_criterion_4_chain_complexes_square_to_zero():
    count = 0
    streams = (crit1_instances(), crit2_instances(), crit3_instances())
    for stream in streams:
        for g, chi in stream:
            cx = character_complex(g, chi)
            assert cx.dd_violation() is None
            supp = chi.support(g)
            for s in fpcheck.outside_cliques(g, supp):
                link = simplicial_chain_complex(
                    link_complex(g, supp, s), chi.p)
                assert link.dd_violation() is None
                count += 1
            count += 1
    print(f"\nACCEPTANCE 4 PASS d.d = 0 for {count} complexes generated by "
          f"criteria 1-3")


def test_criterion_5_zero_pattern_invariance():
    rng = random.Random("acceptance:invariance")
    for _ in range(100):
        g = random_graph(rng, 7, min_vertices=1)
        p = rng.choice((2, 3, 5))
        chi = random_character(rng, g, p)
        fresh = {v: (0 if c == 0 else rng.choice((1, -1, 2, p, -p, p * p, 7)))
                 for v, c in chi.values.items()}
        a = analyze(g, chi)
        b = analyze(g, Character(p, fresh))
        a.pop("rescaled_by_power")
        b.pop("rescaled_by_power")
        assert a == b
    print("\nACCEPTANCE 5 PASS zero-pattern invariance on 100 instances")


def test_criterion_6_coabelian_aggregation():
    rng = random.Random("acceptance:coabelian")

    # k = 1 agrees with the single-character analysis
    for _ in range(100):
        g = random_graph(rng, 6, min_vertices=1)
        row = [rng.randint(-3, 3) for _ in g.vertices]
        if not any(row):
            row[0] = 1
        m = CoabelianSpec(2, (tuple(row),), tuple(g.vertices))
        chi = Character(2, dict(zip(g.vertices, row)))
        assert fg_coabelian(g, m)["fg"] == is_fg(g, chi)
        n = rng.randint(1, 3)
        assert fpn_coabelian(g, m, n)["fp"] == fp_via_complex(g, chi, n)

    # the identity matrix on the edgeless pair: fg fails at pattern ()
    pair = examples.edgeless(2)
    rep = fg_coabelian(pair, CoabelianSpec(2, ((1, 0), (0, 1)),
                                           tuple(pair.vertices)))
    assert not rep["fg"] and rep["fg_witness"] == []

    # enumeration is complete against the random-direction oracle
    for _ in range(50):
        nv = rng.randint(1, 7)
        k = rng.randint(1, 3)
        vertices = tuple(f"v{i}" for i in range(1, nv + 1))
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(nv))
                     for _ in range(k))
        m = CoabelianSpec(2, rows, vertices)
        if matrix_rank(m) == 0:
            continue
        patterns = enumerate_patterns(m)
        enumerated = {frozenset(p.zero_set) for p in patterns}
        cols = [m.column(v) for v in vertices]
        for _ in range(10 ** 4):
            lam = tuple(rng.randint(-9, 9) for _ in range(k))
            if not any(lam):
                continue
            zs = frozenset(v for v, col in zip(vertices, cols)
                           if sum(a * b for a, b in zip(lam, col)) == 0)
            if len(zs) < nv:
                assert zs in enumerated
        for pat in patterns:        # and certificates reproduce the patterns
            observed = frozenset(
                v for v, col in zip(vertices, cols)
                if sum(a * b for a, b in zip(pat.certificate, col)) == 0)
            assert observed == frozenset(pat.zero_set)
    print("\nACCEPTANCE 6 PASS coabelian aggregation: k=1 agreement, "
          "edgeless-pair witness, pattern completeness vs 10^4 samples")


def test_criterion_7_gog_suite():
    t0 = time.perf_counter()
    rng = random.Random("acceptance:gog")
    bounds_checked = 0
    for _ in range(1000):
        raw = random_gog(rng, 6)
        x = reduce(raw)
        assert euler_characteristic(raw) == euler_characteristic(x)
        ell = lcm_vertex_orders(x)
        ranks = [free_rank(x, ell * t) for t in range(1, 5)]
        assert all(isinstance(r, int) for r in ranks)
        if is_dihedral_type(x):
            continue
        for t in range(1, 5):
            if ranks[t - 1] >= 2:
                assert not check_bounds(x, ell * t)["defect"]
                bounds_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert bounds_checked > 500
    print(f"\nACCEPTANCE 7 PASS 1000 graph-of-groups instances: chi invariant "
          f"under reduction, {bounds_checked} bound checks hold "
          f"({elapsed:.1f}s)")


def test_criterion_8_topology_sanity():
    for p in (2, 3, 5):
        h = reduced_homology(enumerate_cliques(examples.octahedron()), p)
        assert {d: v for d, v in h.items() if v} == {2: 1}
    for n in range(1, 6):
        h = reduced_homology(enumerate_cliques(examples.complete(n)), 2)
        assert not any(h.values())
    rng = random.Random("acceptance:cones")
    for _ in range(10):
        base = random_graph(rng, 6, min_vertices=0)
        cone = examples.join(base, SimplicialGraph(["apex"], []))
        h = reduced_homology(enumerate_cliques(cone), 2)
        assert not any(h.values())
    print("\nACCEPTANCE 8 PASS octahedron is a 2-sphere, complete graphs and "
          "cones are acyclic")

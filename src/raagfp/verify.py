"""Seeded randomized verification suites behind the verify command.

Each suite draws its own instances from a named random stream, so runs
are reproducible given the seed.  A failing suite reports a minimal
failing instance: graph shrinking retries the predicate with single
vertices removed until no smaller instance still fails.  The suites
run one after another in the calling process.
"""

from __future__ import annotations

import random

from . import coabelian, fpcheck, gog
from .flag_homology import link_complex, simplicial_chain_complex
from .fpcheck import Character
from .graph import (SimplicialGraph, enumerate_cliques, graph_document,
                    induced_subgraph)


def _suite(name: str, trials: int, failures: list) -> dict:
    """One suite's block of the ``verify`` report."""
    return {"suite": name, "trials": trials, "passed": not failures,
            "failures": failures}


def random_graph(rng: random.Random, max_vertices: int, min_vertices: int = 1,
                 density=None) -> SimplicialGraph:
    n = rng.randint(min_vertices, max_vertices)
    d = rng.uniform(0.2, 0.8) if density is None else density
    vs = [f"v{i}" for i in range(1, n + 1)]
    edges = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
             if rng.random() < d]
    return SimplicialGraph(vs, edges)


def random_character(rng: random.Random, g: SimplicialGraph, p: int,
                     nonzero: bool = True) -> Character:
    for _ in range(100):
        vals = {v: rng.randint(-4, 4) for v in g.vertices}
        if not nonzero or any(vals.values()):
            return Character(p, vals)
    vals[g.vertices[0]] = 1
    return Character(p, vals)


def _instance_doc(g: SimplicialGraph, chi: Character) -> dict:
    return {"graph": graph_document(g), "character": chi.document()}


def shrink(g: SimplicialGraph, chi: Character, still_fails) -> tuple:
    """Greedy single-vertex removal while the predicate keeps failing."""
    changed = True
    while changed and len(g.vertices) > 1:
        changed = False
        for v in g.vertices:
            keep = [w for w in g.vertices if w != v]
            g2 = induced_subgraph(g, keep)
            chi2 = Character(chi.p, {w: chi.values[w] for w in keep})
            try:
                bad = still_fails(g2, chi2)
            except ValueError:
                bad = False
            if bad:
                g, chi = g2, chi2
                changed = True
                break
    return g, chi


def suite_chain_condition(seed, trials, max_vertices) -> dict:
    rng = random.Random(f"dd:{seed}")
    failures = []
    for _ in range(trials):
        g = random_graph(rng, max_vertices)
        p = rng.choice((2, 3, 5))
        chi = random_character(rng, g, p, nonzero=False)
        bad = []
        cx = fpcheck.character_complex(g, chi)
        if cx.dd_violation() is not None:
            bad.append("support complex")
        supp = chi.support(g)
        for s in fpcheck.outside_cliques(g, supp):
            link = link_complex(g, supp, s)
            if simplicial_chain_complex(link, p).dd_violation() is not None:
                bad.append(f"link of {s!r}")
        flag = simplicial_chain_complex(enumerate_cliques(g), p)
        if flag.dd_violation() is not None:
            bad.append("flag complex")
        if bad:
            failures.append({**_instance_doc(g, chi), "broken": bad})
            break
    return _suite("chain_condition", trials, failures)


def suite_route_agreement(seed, trials, max_vertices) -> dict:
    rng = random.Random(f"routes:{seed}")
    failures = []
    for _ in range(trials):
        g = random_graph(rng, max_vertices)
        p = rng.choice((2, 3, 5))
        chi = random_character(rng, g, p)
        n = rng.randint(1, len(g.vertices))

        def disagrees(g2, chi2, n=n):
            if not any(chi2.values[v] for v in g2.vertices):
                return False
            via_c = fpcheck.fp_via_complex(g2, chi2, n)
            via_l = fpcheck.fp_via_links(g2, chi2, n)
            fg = fpcheck.is_fg(g2, chi2)
            return via_c != via_l or (n == 1 and via_c != fg)

        if disagrees(g, chi):
            g, chi = shrink(g, chi, disagrees)
            failures.append({**_instance_doc(g, chi), "degree": n})
            break
    return _suite("route_agreement", trials, failures)


def suite_decomposition(seed, trials, max_vertices) -> dict:
    rng = random.Random(f"decomposition:{seed}")
    failures = []
    for _ in range(trials):
        g = random_graph(rng, max_vertices)
        p = rng.choice((2, 3))
        chi = random_character(rng, g, p, nonzero=False)

        def mismatch(g2, chi2):
            return not fpcheck.decomposition_check(g2, chi2)["ok"]

        if mismatch(g, chi):
            g, chi = shrink(g, chi, mismatch)
            rep = fpcheck.decomposition_check(g, chi)
            failures.append({**_instance_doc(g, chi),
                             "rows": [(r["degree"], r["complex_dim"],
                                       r["links_sum"])
                                      for r in rep["degrees"]]})
            break
    return _suite("decomposition", trials, failures)


def suite_zero_pattern(seed, trials, max_vertices) -> dict:
    rng = random.Random(f"zero-pattern:{seed}")
    failures = []
    for _ in range(trials):
        g = random_graph(rng, max_vertices)
        p = rng.choice((2, 3, 5))
        chi = random_character(rng, g, p)
        fresh = {v: (0 if chi.values[v] == 0
                     else rng.choice((1, -1, p, 3 * p, -p * p, 7)))
                 for v in g.vertices}
        chi2 = Character(p, fresh)
        a, b = fpcheck.analyze(g, chi), fpcheck.analyze(g, chi2)
        del a["rescaled_by_power"], b["rescaled_by_power"]
        if a != b:
            failures.append({**_instance_doc(g, chi),
                             "replacement": chi2.document()})
            break
    return _suite("zero_pattern_invariance", trials, failures)


def random_gog(rng: random.Random, max_vertices: int) -> gog.GraphOfFiniteGroups:
    orders_pool = (1, 2, 3, 4, 6, 8)
    n = rng.randint(1, max_vertices)
    vs = [(f"u{i}", rng.choice(orders_pool)) for i in range(1, n + 1)]
    orders = dict(vs)
    names = [v for v, _ in vs]
    edges = []
    eid = 0
    for i in range(1, n):  # random spanning tree keeps it connected
        other = names[rng.randrange(i)]
        edges.append(_random_edge(rng, f"e{eid}", names[i], other, orders))
        eid += 1
    for _ in range(rng.randint(0, n)):
        a = rng.choice(names)
        b = rng.choice(names)
        edges.append(_random_edge(rng, f"e{eid}", a, b, orders))
        eid += 1
    return gog.GraphOfFiniteGroups(vs, edges)


def _random_edge(rng, eid, a, b, orders):
    from math import gcd
    g = gcd(orders[a], orders[b])
    divisors = [d for d in range(1, g + 1) if g % d == 0]
    return gog.GogEdge(eid, a, b, rng.choice(divisors))


def suite_gog_bounds(seed, trials, max_vertices=6) -> dict:
    rng = random.Random(f"gog:{seed}")
    failures = []
    for _ in range(trials):
        raw = random_gog(rng, max_vertices)
        x = gog.reduce(raw)
        if gog.euler_characteristic(raw) != gog.euler_characteristic(x):
            failures.append({"gog": gog.gog_document(raw),
                             "broken": "chi changed under reduce"})
            break
        if gog.is_dihedral_type(x):
            continue
        ell = gog.lcm_vertex_orders(x)
        t = rng.randint(1, 4)
        m = ell * t
        if gog.free_rank(x, m) < 2:
            continue
        report = gog.check_bounds(x, m)
        if report["defect"]:
            failures.append({"gog": gog.gog_document(x), "index": m,
                             "report": report})
            break
    return _suite("gog_bounds", trials, failures)


def suite_pattern_completeness(seed, trials, max_vertices=7,
                               samples=1000) -> dict:
    rng = random.Random(f"patterns:{seed}")
    failures = []
    for _ in range(trials):
        n = rng.randint(1, max_vertices)
        k = rng.randint(1, 3)
        vertices = tuple(f"v{i}" for i in range(1, n + 1))
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                     for _ in range(k))
        m = coabelian.CoabelianSpec(2, rows, vertices)
        if coabelian.matrix_rank(m) == 0:
            continue
        enumerated = {frozenset(pat.zero_set)
                      for pat in coabelian.enumerate_patterns(m)}
        cols = [m.column(v) for v in vertices]
        for _ in range(samples):
            lam = tuple(rng.randint(-9, 9) for _ in range(k))
            if not any(lam):
                continue
            zs = frozenset(v for v, col in zip(vertices, cols)
                           if sum(a * b for a, b in zip(lam, col)) == 0)
            if len(zs) < n and zs not in enumerated:
                failures.append({"matrix": m.document(), "lambda": lam,
                                 "missing_pattern": sorted(zs)})
                break
        if failures:
            break
    return _suite("pattern_completeness", trials, failures)


SUITES = {
    "chain_condition": suite_chain_condition,
    "route_agreement": suite_route_agreement,
    "decomposition": suite_decomposition,
    "zero_pattern_invariance": suite_zero_pattern,
    "gog_bounds": suite_gog_bounds,
    "pattern_completeness": suite_pattern_completeness,
}


def run_all(seed: int = 0, trials: int = 100, max_vertices: int = 7) -> list:
    """Every suite's report block, in ``SUITES`` order."""
    return [suite(seed, trials, max_vertices) for suite in SUITES.values()]

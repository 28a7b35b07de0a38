"""Seeded randomized verification suites behind the verify command.

Each suite is a trial, ``trial(rng, max_vertices)``, that draws one
instance from the random stream it is given and returns a failure
block, or None when the instance passes.  ``SUITES`` names each suite's
stream and trial, and ``run_all`` seeds each stream from the run's seed
and runs the trials one after another in the calling process, so runs
are reproducible given the seed.  A suite stops at its first failure.
The route-agreement and decomposition trials report a minimal failing
instance: graph shrinking retries the predicate with single vertices
removed until no smaller instance still fails.
"""

from __future__ import annotations

import random

from . import coabelian, fpcheck, gog
from .flag_homology import link_complex, simplicial_chain_complex
from .fpcheck import Character
from .graph import (SimplicialGraph, enumerate_cliques, graph_document,
                    induced_subgraph)


def random_graph(rng: random.Random, max_vertices: int) -> SimplicialGraph:
    """A graph on v1..vn, n drawn from 1..max_vertices, each edge kept
    with one probability drawn from [0.2, 0.8], in that order."""
    n = rng.randint(1, max_vertices)
    d = rng.uniform(0.2, 0.8)
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


def trial_chain_condition(rng, max_vertices):
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
    return {**_instance_doc(g, chi), "broken": bad} if bad else None


def trial_route_agreement(rng, max_vertices):
    g = random_graph(rng, max_vertices)
    p = rng.choice((2, 3, 5))
    chi = random_character(rng, g, p)
    n = rng.randint(1, len(g.vertices))

    def disagrees(g2, chi2):
        if not any(chi2.values[v] for v in g2.vertices):
            return False
        via_c = fpcheck.fp_via_complex(g2, chi2, n)
        via_l = fpcheck.fp_via_links(g2, chi2, n)
        fg = fpcheck.is_fg(g2, chi2)
        return via_c != via_l or (n == 1 and via_c != fg)

    if not disagrees(g, chi):
        return None
    g, chi = shrink(g, chi, disagrees)
    return {**_instance_doc(g, chi), "degree": n}


def trial_decomposition(rng, max_vertices):
    g = random_graph(rng, max_vertices)
    p = rng.choice((2, 3))
    chi = random_character(rng, g, p, nonzero=False)

    def mismatch(g2, chi2):
        return not fpcheck.decomposition_check(g2, chi2)["ok"]

    if not mismatch(g, chi):
        return None
    g, chi = shrink(g, chi, mismatch)
    rep = fpcheck.decomposition_check(g, chi)
    return {**_instance_doc(g, chi),
            "rows": [[r["degree"], r["complex_dim"], r["links_sum"]]
                     for r in rep["degrees"]]}


def trial_zero_pattern(rng, max_vertices):
    g = random_graph(rng, max_vertices)
    p = rng.choice((2, 3, 5))
    chi = random_character(rng, g, p)
    fresh = {v: (0 if chi.values[v] == 0
                 else rng.choice((1, -1, p, 3 * p, -p * p, 7)))
             for v in g.vertices}
    chi2 = Character(p, fresh)
    a, b = fpcheck.analyze(g, chi), fpcheck.analyze(g, chi2)
    del a["rescaled_by_power"], b["rescaled_by_power"]
    if a == b:
        return None
    return {**_instance_doc(g, chi), "replacement": chi2.document()}


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


def trial_gog_bounds(rng, max_vertices):
    raw = random_gog(rng, max_vertices)
    x = gog.reduce(raw)
    if gog.euler_characteristic(raw) != gog.euler_characteristic(x):
        return {"gog": gog.gog_document(raw),
                "broken": "chi changed under reduce"}
    if gog.is_dihedral_type(x):
        return None
    ell = gog.lcm_vertex_orders(x)
    t = rng.randint(1, 4)
    m = ell * t
    if gog.free_rank(x, m) < 2:
        return None
    report = gog.check_bounds(x, m)
    if report["defect"]:
        return {"gog": gog.gog_document(x), "index": m, "report": report}
    return None


def trial_pattern_completeness(rng, max_vertices):
    n = rng.randint(1, max_vertices)
    k = rng.randint(1, 3)
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                 for _ in range(k))
    m = coabelian.CoabelianSpec(2, rows, vertices)
    if coabelian.matrix_rank(m) == 0:
        return None
    enumerated = {pat.zero_set for pat in coabelian.enumerate_patterns(m)}
    cols = [m.column(v) for v in vertices]
    for _ in range(1000):
        lam = [rng.randint(-9, 9) for _ in range(k)]
        if not any(lam):
            continue
        zs = tuple(v for v, col in zip(vertices, cols)
                   if sum(a * b for a, b in zip(lam, col)) == 0)
        if len(zs) < n and zs not in enumerated:
            return {"matrix": m.document(), "lambda": lam,
                    "missing_pattern": list(zs)}
    return None


# suite name: (name of its random stream, trial)
SUITES = {
    "chain_condition": ("dd", trial_chain_condition),
    "route_agreement": ("routes", trial_route_agreement),
    "decomposition": ("decomposition", trial_decomposition),
    "zero_pattern_invariance": ("zero-pattern", trial_zero_pattern),
    "gog_bounds": ("gog", trial_gog_bounds),
    "pattern_completeness": ("patterns", trial_pattern_completeness),
}


def run_all(seed: int, trials: int, max_vertices: int) -> list:
    """Every suite's block of the ``verify`` report, in ``SUITES`` order:
    up to ``trials`` trials on the suite's stream seeded by ``seed``,
    stopping at the first failure.  The command line holds the only
    defaults."""
    blocks = []
    for name, (stream, trial) in SUITES.items():
        rng = random.Random(f"{stream}:{seed}")
        failures = []
        for _ in range(trials):
            failure = trial(rng, max_vertices)
            if failure is not None:
                failures.append(failure)
                break
        blocks.append({"suite": name, "trials": trials,
                       "passed": not failures, "failures": failures})
    return blocks

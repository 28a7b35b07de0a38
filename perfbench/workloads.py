"""Seeded instance streams for the two benchmark workloads.

Instance i of a workload is the i-th draw from
``random.Random(f"{workload}:{seed}")``.  Each workload cycles through a
fixed period of instance kinds, so every run sees the same mix of sizes
whatever the seed; the seed only decides edges, vertex orders,
characters and matrices.  That keeps the cost of a run steady across
seeds while no two instances of a run are identical, so a cache that
lives across calls in one process cannot turn repeats into hits that a
fresh CLI process would never see.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

ZERO_SHARE = 0.15               # share of character values that are zero


@dataclass
class Instance:
    """One CLI invocation: its arguments, the JSON documents it reads and
    what the oracle checks need to know about how it was built."""

    index: int
    command: str
    docs: dict                  # file stem -> JSON document
    args: list                  # argv after the command; "{stem}" is a file
    meta: dict = field(default_factory=dict)

    def argv(self, paths: dict) -> list:
        out = [self.command]
        for a in self.args:
            out.append(paths[a[1:-1]] if a.startswith("{") else a)
        return out


def cross_polytope(rng: random.Random, k: int) -> dict:
    """k pairs of non-adjacent vertices, every other pair adjacent; its
    flag complex is the (k-1)-sphere with 3**k cliques.  The vertex
    order is shuffled."""
    vs = [f"x{i}{side}" for i in range(1, k + 1) for side in "ab"]
    rng.shuffle(vs)
    edges = [[a, b] for i, a in enumerate(vs) for b in vs[i + 1:]
             if a[:-1] != b[:-1]]
    return {"vertices": vs, "edges": edges}


def random_graph(rng: random.Random, n: int, density: float) -> dict:
    vs = [f"v{i}" for i in range(1, n + 1)]
    edges = [[a, b] for i, a in enumerate(vs) for b in vs[i + 1:]
             if rng.random() < density]
    return {"vertices": vs, "edges": edges}


def character(rng: random.Random, vertices, p: int, zero_share: float) -> dict:
    """Exactly round(zero_share * n) zero values at random vertices; the
    rest are drawn from small nonzero integers."""
    zeros = set(rng.sample(vertices, round(zero_share * len(vertices))))
    return {"p": p, "chi": {v: 0 if v in zeros else rng.choice((1, -1, 2, 3, 5))
                            for v in vertices}}


# fpn_large: slot i uses p = 2 for even i and p = 3 for odd i.  The
# nowhere-zero cross-polytope slot feeds the max_fp == k-1 oracle.
FPN_PERIOD = (("cross", 7, ZERO_SHARE), ("random", 28, ZERO_SHARE),
              ("random", 30, ZERO_SHARE), ("cross", 7, ZERO_SHARE),
              ("cross", 6, 0.0), ("random", 32, ZERO_SHARE),
              ("random", 28, ZERO_SHARE), ("cross", 6, ZERO_SHARE))


def fpn_instance(rng: random.Random, i: int) -> Instance:
    kind, size, zero_share = FPN_PERIOD[i % len(FPN_PERIOD)]
    p = 2 if i % 2 == 0 else 3
    g = cross_polytope(rng, size) if kind == "cross" else \
        random_graph(rng, size, 0.5)
    chi = character(rng, g["vertices"], p, zero_share)
    meta = {"kind": kind, "size": size}
    if kind == "cross" and zero_share == 0:
        meta["sphere_dim"] = size - 1
    return Instance(i, "fpn", {"graph": g, "chi": chi},
                    ["{graph}", "{chi}"], meta)


COABELIAN_PERIOD = ((10, 3), (11, 3), (12, 3), (13, 3), (10, 4), (11, 3))
COABELIAN_MAX_N = 2


def coabelian_instance(rng: random.Random, i: int) -> Instance:
    n, k = COABELIAN_PERIOD[i % len(COABELIAN_PERIOD)]
    g = random_graph(rng, n, 0.25)
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if any(any(r) for r in rows):     # rank 0 would exit 3
            break
    return Instance(i, "coabelian", {"graph": g, "matrix": {"p": 2, "rows": rows}},
                    ["{graph}", "{matrix}", "--max-n", str(COABELIAN_MAX_N)],
                    {"rows": rows, "vertices": g["vertices"],
                     "max_n": COABELIAN_MAX_N})


@dataclass(frozen=True)
class Workload:
    name: str
    make: object                # (rng, index) -> Instance
    traced_instances: int       # fixed prefix the traced run covers


WORKLOADS = {
    "fpn_large": Workload("fpn_large", fpn_instance, 64),
    "coabelian_wide": Workload("coabelian_wide", coabelian_instance, 60),
}


def stream(workload: str, seed: int):
    """Endless, deterministic sequence of the workload's instances."""
    make = WORKLOADS[workload].make
    rng = random.Random(f"{workload}:{seed}")
    i = 0
    while True:
        yield make(rng, i)
        i += 1

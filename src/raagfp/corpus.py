"""Named example graphs, characters and an exhaustive small-graph catalog.

Everything here is generated deterministically in-process so the test
suites and the CLI examples run offline.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .fpcheck import Character
from .graph import SimplicialGraph, components


def _verts(n, prefix="v"):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def cycle(n: int) -> SimplicialGraph:
    """The circuit v1 - v2 - ... - vn - v1, n >= 3."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    vs = _verts(n)
    return SimplicialGraph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def path(n: int) -> SimplicialGraph:
    vs = _verts(n)
    return SimplicialGraph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def complete(n: int) -> SimplicialGraph:
    vs = _verts(n)
    return SimplicialGraph(vs, list(combinations(vs, 2)))


def edgeless(n: int) -> SimplicialGraph:
    return SimplicialGraph(_verts(n), [])


def complete_bipartite(a: int, b: int) -> SimplicialGraph:
    left = [f"a{i}" for i in range(1, a + 1)]
    right = [f"b{i}" for i in range(1, b + 1)]
    return SimplicialGraph(left + right, [(x, y) for x in left for y in right])


def octahedron() -> SimplicialGraph:
    """Complement of three disjoint edges; its flag complex is a 2-sphere."""
    vs = ["a1", "a2", "b1", "b2", "c1", "c2"]
    anti = {("a1", "a2"), ("b1", "b2"), ("c1", "c2")}
    edges = [e for e in combinations(vs, 2) if e not in anti]
    return SimplicialGraph(vs, edges)


def join(g1: SimplicialGraph, g2: SimplicialGraph) -> SimplicialGraph:
    """Disjoint union plus every edge between the two vertex sets."""
    overlap = set(g1.vertices) & set(g2.vertices)
    if overlap:
        raise ValueError(f"vertex names collide: {sorted(overlap)}")
    edges = list(g1.edges) + list(g2.edges) + \
        [(a, b) for a in g1.vertices for b in g2.vertices]
    return SimplicialGraph(tuple(g1.vertices) + tuple(g2.vertices), edges)


def ones_character(g: SimplicialGraph, p: int) -> Character:
    return Character(p, {v: 1 for v in g.vertices})


def support_character(g: SimplicialGraph, support, p: int) -> Character:
    support = set(support)
    return Character(p, {v: (1 if v in support else 0) for v in g.vertices})


@lru_cache(maxsize=None)
def connected_graph_catalog(max_vertices: int) -> tuple:
    """One representative per isomorphism class of connected graphs on
    1..max_vertices vertices, enumerated by edge-set orbits under vertex
    permutations.  Deterministic: the representative is the least edge
    mask in its orbit."""
    graphs = []
    for n in range(1, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        pair_index = {pq: i for i, pq in enumerate(pairs)}
        remaps = []
        for perm in permutations(range(n)):
            remaps.append([pair_index[tuple(sorted((perm[a], perm[b])))]
                           for (a, b) in pairs])
        nmasks = 1 << len(pairs)
        seen = bytearray(nmasks)
        for mask in range(nmasks):
            if seen[mask]:
                continue
            for table in remaps:
                mm = 0
                rest = mask
                while rest:
                    low = rest & -rest
                    mm |= 1 << table[low.bit_length() - 1]
                    rest &= rest - 1
                seen[mm] = 1
            vs = _verts(n)
            g = SimplicialGraph(vs, [(vs[a], vs[b])
                                     for i, (a, b) in enumerate(pairs)
                                     if mask >> i & 1])
            if len(components(g.masks, (1 << n) - 1)) == 1:
                graphs.append(g)
    return tuple(graphs)

"""Named example graphs, characters and an exhaustive small-graph catalog
for the tests.

Everything here is generated deterministically in-process.  ``rp2()`` is
the graph shipped as ``corpus/rp2.graph.json``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from raagfp.fpcheck import Character
from raagfp.graph import SimplicialGraph, components


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


# the 6-vertex triangulation of the real projective plane
RP2_TRIANGLES = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6))


def subdivision(triangles):
    """Flag complex of the barycentric subdivision of a triangulated
    surface: its vertices are the faces, named by their vertices and
    ordered by size, and its edges join a face to its proper faces."""
    faces = sorted({f for t in triangles for k in (1, 2, 3)
                    for f in combinations(t, k)}, key=lambda f: (len(f), f))
    name = {f: "f" + "".join(map(str, f)) for f in faces}
    return SimplicialGraph(name.values(),
                           [(name[a], name[b]) for a in faces for b in faces
                            if len(a) < len(b) and set(a) < set(b)])


def rp2():
    """Flag triangulation of RP^2: the barycentric subdivision of the
    6-vertex RP^2, with 31 vertices and 90 edges.  H_1 is Z/2, so over
    F_2 the reduced homology is 1 in degrees 1 and 2, and over an odd
    prime 0."""
    return subdivision(RP2_TRIANGLES)


# a mod-3 Moore space: a 9-gon b0..b8 coned off at c, with its boundary
# wrapped three times around the triangle a0 a1 a2 (a indices mod 3)
MOORE3_TRIANGLES = tuple(
    tuple(sorted(t)) for i in range(9)
    for t in ((f"a{i % 3}", f"a{(i + 1) % 3}", f"b{i}"),
              (f"a{(i + 1) % 3}", f"b{i}", f"b{(i + 1) % 9}"),
              ("c", f"b{i}", f"b{(i + 1) % 9}")))


def moore3():
    """Flag complex of the mod-3 Moore space: the barycentric
    subdivision of 27 triangles, with 79 vertices and 240 edges.  H_1
    is Z/3, so over F_3 the reduced homology is 1 in degrees 1 and 2,
    and over any other prime 0."""
    return subdivision(MOORE3_TRIANGLES)


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

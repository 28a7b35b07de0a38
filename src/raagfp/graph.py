"""Finite simplicial graphs with a fixed total vertex order.

The vertex order is the order of the input array and is normative:
clique tuples are sorted by it, boundary-matrix signs depend on it, and
every deterministic output order is derived from it.

A graph's only adjacency is one bitmask per vertex position
(``SimplicialGraph.masks``): bit j of ``masks[i]`` is set iff the
vertices in positions i and j are adjacent.  A vertex set is then an
int (``g.mask`` builds one from names, ``g.members`` turns one back into
a vertex tuple), the common neighbours of a clique are the AND of its
members' masks, and every graph query reads the masks: the edge set is
derived from them, and ``enumerate_cliques(g, vset)`` lists the cliques
inside any vertex set without building its subgraph.  The mask
functions at the end of this module (the clique DFS ``clique_masks``,
which can also leave out the cliques inside given vertex sets,
``clique_number``, the one connectivity routine ``components``, and
``strong_collapse``) work on ``(masks, vertex set)`` pairs without
building any subgraph.
"""

from __future__ import annotations

from .errors import SchemaError
from .frozen import Frozen


class SimplicialGraph(Frozen):
    """Immutable finite simple graph (no loops, no multi-edges).

    Vertices keep their given order, and the adjacency masks are the
    only record of the edges: ``edges`` is derived from them, as pairs
    sorted by vertex order.  Assigning or deleting an attribute raises
    AttributeError; equality and hash read ``(vertices, masks)``, and
    pickling rebuilds a graph from its vertices and edge pairs.  Three
    private caches that depend only on the masks are filled on first
    use: ``_omega``, the largest clique size, ``_homology``, the memo of
    ``flag_homology.mask_reduced_homology``, and ``_components``, the
    counts of ``flag_homology.component_count``, which the h_0
    self-check of ``mask_reduced_homology`` and the fg reading of
    ``fpcheck.connected_and_dominant`` both read.  A graph may be
    shared between tasks.

    >>> g = SimplicialGraph(["a", "b", "c"], [("b", "a"), ("b", "c")])
    >>> sorted(g.edges)
    [('a', 'b'), ('b', 'c')]
    >>> ("a", "c") in g.edges
    False
    """

    __slots__ = ("vertices", "masks", "_index", "_omega", "_homology",
                 "_components")

    def __init__(self, vertices, edges=()):
        vs = tuple(vertices)
        index = {}
        for v in vs:
            if v in index:
                raise SchemaError(f"duplicate vertex id: {v!r}")
            index[v] = len(index)
        masks = [0] * len(vs)
        for a, b in edges:
            if a not in index:
                raise SchemaError(f"edge endpoint is not a vertex: {a!r}")
            if b not in index:
                raise SchemaError(f"edge endpoint is not a vertex: {b!r}")
            if a == b:
                raise SchemaError(f"self-loop at vertex: {a!r}")
            masks[index[a]] |= 1 << index[b]
            masks[index[b]] |= 1 << index[a]
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_omega", None)
        # (vertex set, p) -> reduced homology; vertex set -> components
        object.__setattr__(self, "_homology", {})
        object.__setattr__(self, "_components", {})

    @property
    def edges(self) -> frozenset:
        """The edges as pairs sorted by vertex order."""
        return frozenset(self._pairs())

    def _pairs(self) -> list:
        """The edge pairs in lexicographic order of vertex positions."""
        members = self.members
        return [(v, w) for i, v in enumerate(self.vertices)
                for w in members(self.masks[i] & ~((2 << i) - 1))]

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self._index

    def index(self, v):
        """Position of v in the fixed vertex order."""
        return self._index[v]

    def mask(self, subset) -> int:
        """The vertex set ``subset`` as a bitmask of positions."""
        out = 0
        for v in subset:
            if v not in self._index:
                raise SchemaError(f"unknown vertex: {v!r}")
            out |= 1 << self._index[v]
        return out

    def members(self, vset: int) -> tuple:
        """The vertices whose positions are set in vset, in vertex order."""
        out = []
        while vset:
            bit = vset & -vset
            vset ^= bit
            out.append(self.vertices[bit.bit_length() - 1])
        return tuple(out)

    def is_clique(self, members) -> bool:
        """True iff members are distinct and pairwise adjacent."""
        ms = list(members)
        vset = self.mask(ms)
        if vset.bit_count() != len(ms):
            return False
        return all(vset & ~self.masks[self._index[v]] == 1 << self._index[v]
                   for v in ms)

    def _clique_number(self) -> int:
        """Size of the largest clique, computed once: the graph is fixed."""
        if self._omega is None:
            object.__setattr__(self, "_omega",
                               clique_number(self.masks, (1 << len(self)) - 1))
        return self._omega

    def __repr__(self):
        return f"SimplicialGraph({list(self.vertices)!r}, {self._pairs()!r})"

    def __reduce__(self):
        return SimplicialGraph, (self.vertices, self._pairs())


def parse_graph(document) -> SimplicialGraph:
    """Build a graph from ``{"vertices": [...], "edges": [[a, b], ...]}``.

    The vertex array order becomes the vertex order.  Edges are
    deduplicated after sorting each pair; self-loops, duplicate vertex
    ids and unknown or non-string endpoints are rejected with the
    offender named.
    """
    if not isinstance(document, dict):
        raise SchemaError("graph document must be a JSON object")
    verts = document.get("vertices")
    edges = document.get("edges", [])
    if not isinstance(verts, list) or not all(isinstance(v, str) for v in verts):
        raise SchemaError('"vertices" must be an array of strings')
    if not isinstance(edges, list):
        raise SchemaError('"edges" must be an array of vertex pairs')
    pairs = []
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise SchemaError(f"edge is not a pair: {e!r}")
        a, b = e
        if not isinstance(a, str) or not isinstance(b, str):
            raise SchemaError(f"edge endpoints must be strings: {e!r}")
        pairs.append((a, b))
    return SimplicialGraph(verts, pairs)


def graph_document(g: SimplicialGraph) -> dict:
    """Inverse of parse_graph, with edges in deterministic order."""
    return {"vertices": list(g.vertices),
            "edges": [list(e) for e in g._pairs()]}


def induced_subgraph(g: SimplicialGraph, keep) -> SimplicialGraph:
    """Subgraph spanned by ``keep``, vertex order inherited from g."""
    vs = g.members(g.mask(keep))
    kept = set(vs)
    return SimplicialGraph(vs, [(v, w) for v, w in g._pairs()
                                if v in kept and w in kept])


def join_factors(g: SimplicialGraph) -> list:
    """Finest partition of the vertices into indecomposable join factors.

    A join of induced subgraphs (every cross pair adjacent) corresponds
    to a direct-product splitting of the graph group, so the finest
    factors are the connected components of the complement graph.
    Factors come out sorted by their first vertex.

    >>> c4 = SimplicialGraph("abcd", [("a","b"),("b","c"),("c","d"),("d","a")])
    >>> join_factors(c4)
    [('a', 'c'), ('b', 'd')]
    """
    if not g.vertices:
        raise ValueError("empty graph has no join decomposition")
    full = (1 << len(g)) - 1
    complement = [full & ~(m | 1 << i) for i, m in enumerate(g.masks)]
    return [g.members(c) for c in components(complement, full)]


def enumerate_cliques(g: SimplicialGraph, vset: int | None = None) -> list:
    """All cliques of g inside the vertex set ``vset`` (a bitmask of
    positions; default every vertex) as vertex tuples, grouped by size.

    Returns a list indexed by size, ending with the largest size that
    occurs; entry k lists the size-k cliques as tuples sorted by vertex
    order, each group in lexicographic order of vertex positions.  The
    empty clique is included at size 0, so vset = 0 gives ``[[()]]``.
    This is ``clique_masks`` decoded by ``g.members``, and equals the
    cliques of the subgraph induced on vset.  A vset with a bit outside
    g's positions raises SchemaError.

    >>> k3 = SimplicialGraph("abc", [("a","b"),("a","c"),("b","c")])
    >>> [len(group) for group in enumerate_cliques(k3)]
    [1, 3, 3, 1]
    >>> enumerate_cliques(k3, k3.mask("ac"))
    [[()], [('a',), ('c',)], [('a', 'c')]]
    """
    if vset is None:
        vset = (1 << len(g)) - 1
    check_vertex_set(vset, len(g))
    members = g.members
    return [[members(c) for c in group] for group in clique_masks(g.masks, vset)]


# Vertex sets as bitmasks.  ``adj`` is a graph's ``masks``; ``vset`` is
# an int whose set bits are the vertex positions in play.


def check_vertex_set(vset: int, n: int):
    """Raise SchemaError unless vset is a vertex set of a graph with n
    vertices: a non-negative int with no bit at position n or above."""
    if vset < 0 or vset >> n:
        raise SchemaError(f"vertex set {vset:#b} is not a set of positions "
                          f"of a graph with {n} vertices")


def clique_masks(adj, vset: int, avoid=()) -> list:
    """All cliques inside vset as bitmasks, grouped by size.

    Entry k lists the size-k cliques; entry 0 is the empty clique, and
    the list ends with the largest size that occurs.  Each group comes
    in lexicographic order of vertex positions.

    ``avoid`` is a sequence of vertex sets, and a clique that lies inside
    one of them is left out, the empty clique included; the list then
    ends with the largest size left in, and is ``[[]]`` when none is.
    The DFS cuts a branch as soon as its clique and every candidate
    left lie inside one vertex set of ``avoid``.
    """
    groups = [[] if avoid else [0]]

    # live: the sets of avoid that hold clique.  It only shrinks, and a
    # clique with none is in, as is every clique that extends it.  Once
    # the candidates left lie inside a live set, so does the rest of
    # the branch, so the loop stops after the last candidate outside it.
    def extend(clique, cand, size, live):
        if live:
            first = cand                # the outside part that empties first
            for a in live:
                out = cand & ~a
                if out < first:
                    first = out
            if not first:
                return
        if size == len(groups):
            groups.append([])
        group = groups[size]
        while cand:
            bit = cand & -cand
            cand ^= bit
            below = cand & adj[bit.bit_length() - 1]
            if live:
                if bit > first:
                    return
                inside = [a for a in live if a & bit]
                if inside:              # clique | bit is left out
                    if below:
                        extend(clique | bit, below, size + 1, inside)
                    continue
            group.append(clique | bit)
            if below:
                extend(clique | bit, below, size + 1, ())

    if vset:
        extend(0, vset, 1, avoid)
    while len(groups) > 1 and not groups[-1]:
        groups.pop()
    return groups


def clique_number(adj, vset: int) -> int:
    """Size of the largest clique inside vset, by branch and bound: a
    branch is cut when its clique plus every candidate left cannot beat
    the best size found."""
    best = 0

    def grow(size, cand):
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            bit = cand & -cand
            cand ^= bit
            grow(size + 1, cand & adj[bit.bit_length() - 1])
        if size > best:
            best = size

    grow(0, vset)
    return best


def components(adj, vset: int) -> list:
    """Connected components of the subgraph induced on vset, as masks
    ordered by their lowest position; [] when vset is 0."""
    out = []
    while vset:
        comp = frontier = vset & -vset
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                reach |= adj[bit.bit_length() - 1]
            frontier = reach & vset & ~comp
            comp |= frontier
        vset &= ~comp
        out.append(comp)
    return out


def strong_collapse(adj, vset: int) -> int:
    """vset with dominated vertices deleted until none is left.

    A vertex v is dominated when its closed neighbourhood inside the set
    lies in the closed neighbourhood of another vertex u.  Deleting v
    from a flag complex is then a strong collapse, which keeps the
    homotopy type (Barmak-Minian, "Strong homotopy types, nerves and
    collapses", Discrete Comput. Geom. 47, 2012), so every reduced
    homology group stays the same.  A cone collapses to a point.
    Vertices are tried in increasing position, against the set as it
    stands, until a whole pass deletes nothing.
    """
    changed = True
    while changed:
        changed = False
        todo = vset
        while todo:
            bit = todo & -todo
            todo ^= bit
            closed = adj[bit.bit_length() - 1] & vset | bit
            others = closed ^ bit
            while others:
                other = others & -others
                others ^= other
                if not closed & ~(adj[other.bit_length() - 1] | other):
                    vset ^= bit
                    changed = True
                    break
    return vset

"""Finite simplicial graphs with a fixed total vertex order.

The vertex order is the order of the input array and is normative:
clique tuples are sorted by it, boundary-matrix signs depend on it, and
every deterministic output order is derived from it.

A graph's only adjacency is one bitmask per vertex position
(``SimplicialGraph.masks``): bit j of ``masks[i]`` is set iff the
vertices in positions i and j are adjacent.  A vertex set is then an
int (``g.mask`` builds one from names, ``g.members`` turns one back into
a vertex tuple), the common neighbours of a clique are the AND of its
members' masks, and every graph query reads the masks.  The mask
functions at the end of this module (the clique DFS ``clique_masks``,
``clique_number``, the one connectivity routine ``components``, and
``strong_collapse``) work on ``(masks, vertex set)`` pairs without
building any subgraph.
"""

from __future__ import annotations

from .errors import SchemaError


class SimplicialGraph:
    """Immutable finite simple graph (no loops, no multi-edges).

    Vertices keep their given order; edges are stored as pairs sorted by
    that order.  Vertices, edges and masks never change; two private
    caches that depend only on them are filled on first use: ``_omega``,
    the largest clique size, and ``_homology``, the memo of
    ``flag_homology.mask_reduced_homology``.  A graph may be shared
    between tasks.

    >>> g = SimplicialGraph(["a", "b", "c"], [("b", "a"), ("b", "c")])
    >>> sorted(g.neighbors("b"))
    ['a', 'c']
    >>> g.has_edge("a", "c")
    False
    """

    __slots__ = ("vertices", "edges", "masks", "_index", "_omega", "_homology")

    def __init__(self, vertices, edges=()):
        vs = tuple(vertices)
        index = {}
        for v in vs:
            if v in index:
                raise SchemaError(f"duplicate vertex id: {v!r}")
            index[v] = len(index)
        masks = [0] * len(vs)
        norm = set()
        for a, b in edges:
            if a not in index:
                raise SchemaError(f"edge endpoint is not a vertex: {a!r}")
            if b not in index:
                raise SchemaError(f"edge endpoint is not a vertex: {b!r}")
            if a == b:
                raise SchemaError(f"self-loop at vertex: {a!r}")
            if index[a] > index[b]:
                a, b = b, a
            masks[index[a]] |= 1 << index[b]
            masks[index[b]] |= 1 << index[a]
            norm.add((a, b))
        self.vertices = vs
        self.edges = frozenset(norm)
        self.masks = tuple(masks)
        self._index = index
        self._omega = None
        self._homology = {}             # (vertex set, p) -> reduced homology

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self._index

    def index(self, v):
        """Position of v in the fixed vertex order."""
        return self._index[v]

    def neighbors(self, v) -> frozenset:
        if v not in self._index:
            raise SchemaError(f"unknown vertex: {v!r}")
        return frozenset(self.members(self.masks[self._index[v]]))

    def has_edge(self, a, b) -> bool:
        return self.masks[self._index[a]] >> self._index[b] & 1 == 1

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

    def sorted(self, subset):
        """The members of subset as a tuple in vertex order."""
        return tuple(sorted(subset, key=self._index.__getitem__))

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
            self._omega = clique_number(self.masks, (1 << len(self)) - 1)
        return self._omega

    def __eq__(self, other):
        return (isinstance(other, SimplicialGraph)
                and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        es = sorted(self.edges, key=lambda e: (self._index[e[0]], self._index[e[1]]))
        return f"SimplicialGraph({list(self.vertices)!r}, {es!r})"


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
        if not all(isinstance(v, str) for v in e):
            raise SchemaError(f"edge endpoints must be strings: {e!r}")
        pairs.append((e[0], e[1]))
    return SimplicialGraph(verts, pairs)


def graph_document(g: SimplicialGraph) -> dict:
    """Inverse of parse_graph, with edges in deterministic order."""
    es = sorted(g.edges, key=lambda e: (g.index(e[0]), g.index(e[1])))
    return {"vertices": list(g.vertices), "edges": [list(e) for e in es]}


def induced_subgraph(g: SimplicialGraph, keep) -> SimplicialGraph:
    """Subgraph spanned by ``keep``, vertex order inherited from g."""
    vset = g.mask(keep)
    vs = g.members(vset)
    es = []
    for v in vs:
        i = g.index(v)
        later = g.masks[i] & vset & ~((2 << i) - 1)    # positions above i
        es.extend((v, w) for w in g.members(later))
    return SimplicialGraph(vs, es)


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


def enumerate_cliques(g: SimplicialGraph) -> list:
    """All cliques of g as vertex tuples, grouped by size.

    Returns a list indexed by size, ending with the largest size that
    occurs; entry k lists the size-k cliques as tuples sorted by vertex
    order, each group in lexicographic order of vertex positions.  The
    empty clique is included at size 0.  This is ``clique_masks`` on the
    whole vertex set, decoded by ``g.members``.

    >>> k3 = SimplicialGraph("abc", [("a","b"),("a","c"),("b","c")])
    >>> [len(group) for group in enumerate_cliques(k3)]
    [1, 3, 3, 1]
    """
    members = g.members
    return [[members(c) for c in group]
            for group in clique_masks(g.masks, (1 << len(g)) - 1)]


# Vertex sets as bitmasks.  ``adj`` is a graph's ``masks``; ``vset`` is
# an int whose set bits are the vertex positions in play.


def clique_masks(adj, vset: int) -> list:
    """All cliques inside vset as bitmasks, grouped by size.

    Entry k lists the size-k cliques; entry 0 is the empty clique, and
    the list ends with the largest size that occurs.  Each group comes
    in lexicographic order of vertex positions.
    """
    groups = [[0]]

    def extend(clique, cand, size):
        if size == len(groups):
            groups.append([])
        group = groups[size]
        while cand:
            bit = cand & -cand
            cand ^= bit
            group.append(clique | bit)
            below = cand & adj[bit.bit_length() - 1]
            if below:
                extend(clique | bit, below, size + 1)

    if vset:
        extend(0, vset, 1)
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

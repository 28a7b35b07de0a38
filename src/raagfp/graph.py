"""Finite simplicial graphs with a fixed total vertex order.

The vertex order is the order of the input array and is normative:
clique tuples are sorted by it, boundary-matrix signs depend on it, and
every deterministic output order is derived from it.
"""

from __future__ import annotations

from .errors import SchemaError


class SimplicialGraph:
    """Immutable finite simple graph (no loops, no multi-edges).

    Vertices keep their given order; edges are stored as pairs sorted by
    that order.  Instances are never mutated after construction and may
    be shared freely between concurrent tasks.

    >>> g = SimplicialGraph(["a", "b", "c"], [("b", "a"), ("b", "c")])
    >>> sorted(g.neighbors("b"))
    ['a', 'c']
    >>> g.has_edge("a", "c")
    False
    """

    __slots__ = ("vertices", "edges", "_index", "_adj")

    def __init__(self, vertices, edges=()):
        vs = tuple(vertices)
        index = {}
        for v in vs:
            if v in index:
                raise SchemaError(f"duplicate vertex id: {v!r}")
            index[v] = len(index)
        adj = {v: set() for v in vs}
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
            norm.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        self.vertices = vs
        self.edges = frozenset(norm)
        self._index = index
        self._adj = {v: frozenset(s) for v, s in adj.items()}

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self._index

    def index(self, v):
        """Position of v in the fixed vertex order."""
        return self._index[v]

    def neighbors(self, v):
        if v not in self._index:
            raise SchemaError(f"unknown vertex: {v!r}")
        return self._adj[v]

    def has_edge(self, a, b):
        return b in self._adj[a]

    def sorted(self, subset):
        """The members of subset as a tuple in vertex order."""
        return tuple(sorted(subset, key=self._index.__getitem__))

    def is_clique(self, members):
        ms = list(members)
        for i, a in enumerate(ms):
            for b in ms[i + 1:]:
                if a == b or not self.has_edge(a, b):
                    return False
        return True

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
    keep = set(keep)
    for v in keep:
        if v not in g:
            raise SchemaError(f"unknown vertex: {v!r}")
    vs = [v for v in g.vertices if v in keep]
    es = [e for e in g.edges if e[0] in keep and e[1] in keep]
    return SimplicialGraph(vs, es)


def is_connected(g: SimplicialGraph) -> bool:
    """True iff g is nonempty and has one component.

    The empty graph counts as not connected: the finite-generation test
    is_fg = is_connected and is_dominant then needs no separate
    emptiness check.
    """
    if not g.vertices:
        return False
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


def is_dominant(g: SimplicialGraph, sub) -> bool:
    """True iff every vertex outside ``sub`` has a neighbor inside it."""
    sub = set(sub)
    for v in sub:
        if v not in g:
            raise SchemaError(f"unknown vertex: {v!r}")
    return all(g.neighbors(v) & sub for v in g.vertices if v not in sub)


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
    unseen = set(g.vertices)
    factors = []
    for v in g.vertices:
        if v not in unseen:
            continue
        unseen.discard(v)
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            # complement neighbors: unseen vertices not adjacent to u
            new = unseen - g.neighbors(u)
            comp |= new
            unseen -= new
            stack.extend(new)
        factors.append(g.sorted(comp))
    return factors


def enumerate_cliques(g: SimplicialGraph, max_size: int) -> list:
    """All cliques of size <= max_size, grouped by size.

    Returns a list indexed by size; entry k lists the size-k cliques as
    tuples sorted by vertex order, each group in lexicographic order of
    vertex positions.  The empty clique is included at size 0.

    >>> k3 = SimplicialGraph("abc", [("a","b"),("a","c"),("b","c")])
    >>> [len(group) for group in enumerate_cliques(k3, 3)]
    [1, 3, 3, 1]
    """
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    groups = [[] for _ in range(max_size + 1)]
    groups[0].append(())

    def extend(clique, cand):
        for i, v in enumerate(cand):
            cur = clique + (v,)
            groups[len(cur)].append(cur)
            if len(cur) < max_size:
                extend(cur, [w for w in cand[i + 1:] if g.has_edge(v, w)])

    if max_size >= 1:
        extend((), list(g.vertices))
    return groups


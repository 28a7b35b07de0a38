"""Set-based neighbours, connectivity, dominance and cliques, the
reference for the mask routines ``graph.components``,
``fpcheck.connected_and_dominant`` and ``graph.enumerate_cliques``.
Neighbour sets are read off ``g.edges``, never off the masks."""

from itertools import combinations

from raagfp.errors import SchemaError


def neighbours(g) -> dict:
    """Each vertex's set of neighbours, from the edge pairs of g."""
    nbrs = {v: set() for v in g.vertices}
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


def is_connected(g) -> bool:
    """True iff g is nonempty and has one component, by a BFS over
    neighbour sets."""
    if not g.vertices:
        return False
    nbrs = neighbours(g)
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


def is_dominant(g, sub) -> bool:
    """True iff every vertex outside ``sub`` has a neighbor inside it."""
    sub = set(sub)
    for v in sub:
        if v not in g:
            raise SchemaError(f"unknown vertex: {v!r}")
    nbrs = neighbours(g)
    return all(nbrs[v] & sub for v in g.vertices if v not in sub)


def cliques(g, keep) -> list:
    """The cliques of g inside ``keep`` as one set of frozensets per
    size, from the empty clique up to the largest size, by testing
    every subset against neighbour sets."""
    nbrs = neighbours(g)
    groups = []
    for k in range(len(keep) + 1):
        group = {frozenset(sub) for sub in combinations(keep, k)
                 if all(b in nbrs[a] for a, b in combinations(sub, 2))}
        if not group:           # cliques are closed under taking subsets
            break
        groups.append(group)
    return groups

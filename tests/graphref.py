"""Set-based connectivity and dominance, the reference for the mask
routines ``graph.components`` and ``fpcheck.connected_and_dominant``."""

from raagfp.errors import SchemaError


def is_connected(g) -> bool:
    """True iff g is nonempty and has one component, by a BFS over
    neighbour sets."""
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


def is_dominant(g, sub) -> bool:
    """True iff every vertex outside ``sub`` has a neighbor inside it."""
    sub = set(sub)
    for v in sub:
        if v not in g:
            raise SchemaError(f"unknown vertex: {v!r}")
    return all(g.neighbors(v) & sub for v in g.vertices if v not in sub)

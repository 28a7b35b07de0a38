"""Euler-characteristic calculus for finite graphs of finite groups.

Groups enter only through their orders: every quantity computed here
(reduced form, dihedral-type detection, the fractional Euler
characteristic, free-subgroup ranks and the index bounds) depends only
on the vertex and edge group orders and their divisibility.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .errors import SchemaError
from .frozen import Frozen
from .graph import components


class GogEdge(Frozen):
    """An edge id, its two endpoint vertex ids and its group's order."""

    __slots__ = ("id", "d0", "d1", "order")

    def __init__(self, id: str, d0: str, d1: str, order: int):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "order", order)

    @property
    def is_loop(self) -> bool:
        return self.d0 == self.d1


class GraphOfFiniteGroups(Frozen):
    """Finite connected multigraph with positive orders per vertex and
    edge; loops and parallel edges allowed.  Each edge order divides
    both endpoint orders (the edge group embeds in the vertex groups).

    ``orders`` is a read-only view of a private copy of the vertex
    orders and ``edges`` a tuple sorted by id, so a graph of groups
    stays valid: assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ("orders", "edges")

    def __init__(self, vertex_orders, edges):
        orders = {}
        for vid, order in vertex_orders:
            if vid in orders:
                raise SchemaError(f"duplicate vertex id: {vid!r}")
            if type(order) is not int or order < 1:
                raise SchemaError(f"vertex {vid!r} order must be a positive integer")
            orders[vid] = order
        if not orders:
            raise SchemaError("graph of groups needs at least one vertex")
        seen = set()
        norm = []
        for e in edges:
            if not isinstance(e, GogEdge):
                e = GogEdge(*e)
            if e.id in seen:
                raise SchemaError(f"duplicate edge id: {e.id!r}")
            seen.add(e.id)
            for end in (e.d0, e.d1):
                if end not in orders:
                    raise SchemaError(f"edge {e.id!r} endpoint unknown: {end!r}")
            if type(e.order) is not int or e.order < 1:
                raise SchemaError(f"edge {e.id!r} order must be a positive integer")
            for end in (e.d0, e.d1):
                if orders[end] % e.order:
                    raise SchemaError(
                        f"edge {e.id!r} order {e.order} does not divide "
                        f"vertex {end!r} order {orders[end]}")
            norm.append(e)
        norm.sort(key=lambda e: e.id)
        position = {v: i for i, v in enumerate(orders)}
        adj = [0] * len(orders)
        for e in norm:
            adj[position[e.d0]] |= 1 << position[e.d1]
            adj[position[e.d1]] |= 1 << position[e.d0]
        if len(components(adj, (1 << len(orders)) - 1)) != 1:
            raise SchemaError("underlying multigraph is not connected")
        object.__setattr__(self, "orders", MappingProxyType(orders))
        object.__setattr__(self, "edges", tuple(norm))

    def __repr__(self):
        return (f"GraphOfFiniteGroups(vertices={dict(self.orders)!r}, "
                f"edges={[(e.id, e.d0, e.d1, e.order) for e in self.edges]!r})")

    def __reduce__(self):
        return GraphOfFiniteGroups, (tuple(self.orders.items()), self.edges)


def parse_gog(document) -> GraphOfFiniteGroups:
    """Read ``{"vertices": [{"id", "order"}], "edges": [{"id", "d0",
    "d1", "order"}]}``."""
    if not isinstance(document, dict):
        raise SchemaError("graph-of-groups document must be a JSON object")
    vs = document.get("vertices")
    es = document.get("edges", [])
    if not isinstance(vs, list) or not isinstance(es, list):
        raise SchemaError('"vertices" and "edges" must be arrays')
    for kind, entries in (("vertex", vs), ("edge", es)):
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise SchemaError(f"graph-of-groups {kind} entry {i} is not "
                                  f"a JSON object: {entry!r}")
    try:
        vertex_orders = [(v["id"], v["order"]) for v in vs]
        edges = [GogEdge(e["id"], e["d0"], e["d1"], e["order"]) for e in es]
    except KeyError as exc:
        raise SchemaError(f"missing field in graph-of-groups document: {exc}") \
            from None
    for name in [v for v, _ in vertex_orders] + \
            [n for e in edges for n in (e.id, e.d0, e.d1)]:
        if not isinstance(name, str):
            raise SchemaError(f"vertex and edge ids must be strings: {name!r}")
    return GraphOfFiniteGroups(vertex_orders, edges)


def gog_document(x: GraphOfFiniteGroups) -> dict:
    return {"vertices": [{"id": v, "order": o} for v, o in x.orders.items()],
            "edges": [{"id": e.id, "d0": e.d0, "d1": e.d1, "order": e.order}
                      for e in x.edges]}


def is_reduced(x: GraphOfFiniteGroups) -> bool:
    """No non-loop edge order equals an endpoint order (loops exempt)."""
    return not any(_violates(x.orders, e) for e in x.edges)


def _violates(orders: dict, e: GogEdge) -> bool:
    return not e.is_loop and (orders[e.d0] == e.order
                              or orders[e.d1] == e.order)


def reduce(x: GraphOfFiniteGroups) -> GraphOfFiniteGroups:
    """Collapse order-equal non-loop edges until the graph is reduced.

    Each step removes the lowest-id violating edge and absorbs the
    endpoint whose order equals the edge order into the other endpoint
    (the terminal endpoint survives when both match).  The fractional
    Euler characteristic is unchanged by every step.
    """
    orders = dict(x.orders)
    edges = list(x.edges)
    while True:
        e = next((e for e in edges if _violates(orders, e)), None)
        if e is None:
            break
        if orders[e.d0] == e.order:
            survivor, removed = e.d1, e.d0
        else:
            survivor, removed = e.d0, e.d1
        del orders[removed]
        repoint = lambda v: survivor if v == removed else v
        edges = [GogEdge(f.id, repoint(f.d0), repoint(f.d1), f.order)
                 for f in edges if f.id != e.id]
    return GraphOfFiniteGroups(list(orders.items()), edges)


def is_dihedral_type(x: GraphOfFiniteGroups) -> bool:
    """One edge, and either a loop of full order or index-2 inclusions
    on both sides."""
    if len(x.edges) != 1:
        return False
    e = x.edges[0]
    if e.is_loop:
        return x.orders[e.d0] == e.order
    return (x.orders[e.d0] == 2 * e.order
            and x.orders[e.d1] == 2 * e.order)


def euler_characteristic(x: GraphOfFiniteGroups) -> Fraction:
    """Sum of reciprocal vertex orders minus reciprocal edge orders,
    loops counted once."""
    return (sum(Fraction(1, o) for o in x.orders.values())
            - sum(Fraction(1, e.order) for e in x.edges))


def lcm_vertex_orders(x: GraphOfFiniteGroups) -> int:
    return lcm(*x.orders.values())


def free_rank(x: GraphOfFiniteGroups, m: int) -> int:
    """Rank of an open free subgroup of index m: 1 - m * chi.

    m must be a positive multiple of every vertex order, so that a free
    subgroup of index m can meet all vertex groups trivially; the
    result is then an integer.
    """
    if m < 1:
        raise ValueError("index m must be >= 1")
    ell = lcm_vertex_orders(x)
    if m % ell:
        raise ValueError(f"index m={m} is not a multiple of the vertex-order "
                         f"lcm {ell}")
    rank = 1 - m * euler_characteristic(x)
    if rank.denominator != 1:
        raise ValueError(f"non-integral rank {rank}: inconsistent input")
    return int(rank)


def euler_report(x: GraphOfFiniteGroups) -> dict:
    """The ``gog`` report's ``chi``, ``lcm_orders`` and ``ranks`` keys:
    chi as an exact fraction string, and the free rank at the first
    four multiples of the vertex-order lcm, keyed by index."""
    ell = lcm_vertex_orders(x)
    return {"chi": str(euler_characteristic(x)), "lcm_orders": ell,
            "ranks": {str(ell * t): free_rank(x, ell * t) for t in range(1, 5)}}


def check_bounds(x: GraphOfFiniteGroups, m: int) -> dict:
    """Verify the index bounds at index m; returns the ``gog`` report's
    ``bounds`` block.

    For every edge e and incident vertex v: the inclusion index
    o_v/o_e must stay below 3*rank + 2.  When the input is reduced and
    not of dihedral type, additionally m/o_e must stay below 6*rank for
    every edge; otherwise that clause is skipped with the reason named
    and the edge's quotient fields are None.  A violation on an
    instance meeting the hypotheses is a defect: the inequalities are
    theorems there.
    """
    rank = free_rank(x, m)
    skipped = None
    if is_dihedral_type(x):
        skipped = "dihedral type"
    elif not is_reduced(x):
        skipped = "not reduced"
    rows = []
    defect = False
    for e in x.edges:
        checks = []
        for v in dict.fromkeys((e.d0, e.d1)):
            q = x.orders[v] // e.order
            ok = q < 3 * rank + 2
            checks.append({"vertex": v, "index": q, "bound": 3 * rank + 2,
                           "ok": ok})
            defect = defect or not ok
        qi = quotient_ok = None
        if skipped is None:
            qi = m // e.order
            quotient_ok = qi < 6 * rank
            defect = defect or not quotient_ok
        rows.append({"edge": e.id, "vertex_index_checks": checks,
                     "quotient_index": qi, "quotient_ok": quotient_ok})
    return {"rank": rank, "index": m, "edges": rows,
            "quotient_clause_skipped": skipped, "defect": defect}

"""Euler-characteristic calculus for finite graphs of finite groups.

Groups enter only through their orders: every quantity computed here
(reduced form, dihedral-type detection, the fractional Euler
characteristic, free-subgroup ranks and the index bounds) depends only
on the vertex and edge group orders and their divisibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import SchemaError
from .graph import components


@dataclass(frozen=True)
class GogEdge:
    id: str
    d0: str
    d1: str
    order: int

    @property
    def is_loop(self) -> bool:
        return self.d0 == self.d1


class GraphOfFiniteGroups:
    """Finite connected multigraph with positive orders per vertex and
    edge; loops and parallel edges allowed.  Each edge order divides
    both endpoint orders (the edge group embeds in the vertex groups).
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
            e = GogEdge(e.id, e.d0, e.d1, e.order) if isinstance(e, GogEdge) \
                else GogEdge(*e)
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
        self.orders = orders
        self.edges = tuple(sorted(norm, key=lambda e: e.id))
        position = {v: i for i, v in enumerate(orders)}
        adj = [0] * len(orders)
        for e in self.edges:
            adj[position[e.d0]] |= 1 << position[e.d1]
            adj[position[e.d1]] |= 1 << position[e.d0]
        if len(components(adj, (1 << len(orders)) - 1)) != 1:
            raise SchemaError("underlying multigraph is not connected")

    def __eq__(self, other):
        return (isinstance(other, GraphOfFiniteGroups)
                and self.orders == other.orders and self.edges == other.edges)

    def __repr__(self):
        return (f"GraphOfFiniteGroups(vertices={self.orders!r}, "
                f"edges={[(e.id, e.d0, e.d1, e.order) for e in self.edges]!r})")


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
    return not any(_violates(x, e) for e in x.edges)


def _violates(x: GraphOfFiniteGroups, e: GogEdge) -> bool:
    return not e.is_loop and (x.orders[e.d0] == e.order
                              or x.orders[e.d1] == e.order)


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
        e = next((e for e in edges if not e.is_loop
                  and (orders[e.d0] == e.order or orders[e.d1] == e.order)),
                 None)
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


@dataclass(frozen=True)
class EulerReport:
    chi: Fraction
    lcm_orders: int
    table: dict                 # index m -> free rank

    def document(self) -> dict:
        return {"chi": str(self.chi), "lcm_orders": self.lcm_orders,
                "ranks": {str(m): r for m, r in sorted(self.table.items())}}


def euler_report(x: GraphOfFiniteGroups, multiples: int = 4) -> EulerReport:
    chi = euler_characteristic(x)
    ell = lcm_vertex_orders(x)
    table = {ell * t: free_rank(x, ell * t) for t in range(1, multiples + 1)}
    return EulerReport(chi, ell, table)


@dataclass(frozen=True)
class EdgeBound:
    edge: str
    vertex_checks: tuple        # (vertex, index o_v/o_e, bound, ok)
    quotient_index: int | None  # m / o_e, None when clause (b) skipped
    quotient_ok: bool | None


@dataclass(frozen=True)
class BoundsReport:
    rank: int
    index: int
    rows: tuple
    skipped_reason: str | None  # why clause (b) was not evaluated

    @property
    def defect(self) -> bool:
        for row in self.rows:
            if any(not ok for *_, ok in row.vertex_checks):
                return True
            if row.quotient_ok is False:
                return True
        return False

    def document(self) -> dict:
        return {
            "rank": self.rank,
            "index": self.index,
            "edges": [{
                "edge": r.edge,
                "vertex_index_checks": [
                    {"vertex": v, "index": q, "bound": b, "ok": ok}
                    for v, q, b, ok in r.vertex_checks],
                "quotient_index": r.quotient_index,
                "quotient_ok": r.quotient_ok,
            } for r in self.rows],
            "quotient_clause_skipped": self.skipped_reason,
            "defect": self.defect,
        }


def check_bounds(x: GraphOfFiniteGroups, m: int) -> BoundsReport:
    """Verify the index bounds at index m.

    For every edge e and incident vertex v: the inclusion index
    o_v/o_e must stay below 3*rank + 2.  When the input is reduced and
    not of dihedral type, additionally m/o_e must stay below 6*rank for
    every edge; otherwise that clause is skipped with the reason named.
    A violation on an instance meeting the hypotheses is a defect: the
    inequalities are theorems there.
    """
    rank = free_rank(x, m)
    skipped = None
    if is_dihedral_type(x):
        skipped = "dihedral type"
    elif not is_reduced(x):
        skipped = "not reduced"
    rows = []
    for e in x.edges:
        checks = []
        for v in dict.fromkeys((e.d0, e.d1)):
            q = x.orders[v] // e.order
            checks.append((v, q, 3 * rank + 2, q < 3 * rank + 2))
        if skipped is None:
            qi = m // e.order
            rows.append(EdgeBound(e.id, tuple(checks), qi, qi < 6 * rank))
        else:
            rows.append(EdgeBound(e.id, tuple(checks), None, None))
    return BoundsReport(rank, m, tuple(rows), skipped)

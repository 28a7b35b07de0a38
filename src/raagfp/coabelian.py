"""Matrix-defined coabelian kernels: zero patterns and aggregation.

An integer matrix with one column per vertex defines the kernel of the
induced map onto a free abelian pro-p group.  The rank-one quotients of
that map have supports determined by their zero pattern: the vertex
sets Z realizable as {v : lambda . column(v) = 0} for a nonzero rational
direction lambda are exactly the span-closed proper subsets of the
columns.  Finite generation and FP_n of the kernel aggregate over those
patterns.  A depth-first walk over the independent column subsets
carries each subset's integer nullspace basis, one elimination step
(``_add_column``) from its parent's, with its dots with every column:
the zero dots give the subset's closure, and their combinations the
certificate.  That step is the only elimination here: the matrix rank
is the number of steps a greedy walk down the same tree takes.

All arithmetic is exact and integer-only: fraction-free elimination
over Python's arbitrary-precision integers, no rationals and no
floating point anywhere.
"""

from __future__ import annotations

from itertools import islice
from math import gcd
from operator import mul

from . import fpcheck
from .errors import FiniteQuotientError, InternalDefect, SchemaError
from .fpmatrix import check_prime
from .frozen import Frozen
from .graph import SimplicialGraph, join_factors


class CoabelianSpec(Frozen):
    """Prime p plus an integer matrix, columns in vertex order.

    p, rows and vertices never change: rows and vertices are kept as
    tuples copied from the sequences given.  ``_patterns`` caches the
    zero patterns, which depend only on them, on the first
    ``enumerate_patterns`` call.  Equality, hash and repr ignore it.
    """

    __slots__ = ("p", "rows", "vertices", "_patterns")

    def __init__(self, p: int, rows, vertices):
        check_prime(p)
        rows = tuple(tuple(row) for row in rows)
        vertices = tuple(vertices)
        for row in rows:
            if len(row) != len(vertices):
                raise SchemaError("matrix row length does not match vertex count")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_patterns", None)

    def column(self, v) -> tuple:
        j = self.vertices.index(v)
        return tuple(row[j] for row in self.rows)

    @property
    def k(self) -> int:
        return len(self.rows)

    def document(self) -> dict:
        return {"p": self.p, "rows": [list(r) for r in self.rows]}


def parse_matrix(document, g: SimplicialGraph) -> CoabelianSpec:
    """Read ``{"p": int, "rows": [[int, ...], ...]}`` against a graph."""
    if not isinstance(document, dict):
        raise SchemaError("matrix document must be a JSON object")
    p = document.get("p")
    rows = document.get("rows")
    if type(p) is not int:
        raise SchemaError('"p" must be an integer prime')
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and all(type(x) is int for x in r)
                       for r in rows)):
        raise SchemaError('"rows" must be a non-empty array of integer arrays')
    try:
        return CoabelianSpec(p, rows, g.vertices)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


class ZeroPattern(Frozen):
    """A realizable zero set with its verifying rational direction.

    The certificate is an integer row vector lam with
    lam . column(v) = 0 exactly for the vertices v in the zero set.
    """

    __slots__ = ("zero_set", "certificate")

    def __init__(self, zero_set, certificate):
        object.__setattr__(self, "zero_set", tuple(zero_set))
        object.__setattr__(self, "certificate", tuple(certificate))


def matrix_rank(m: CoabelianSpec) -> int:
    """Rank of the defining matrix over the rationals: k less the rows
    left after adding, in vertex order, every column whose carried dot
    is still nonzero."""
    cols = [m.column(v) for v in m.vertices]
    rows = next(_subset_tree(cols, m.k))[1]     # the unit vectors
    for j in range(len(cols)):
        if any(r[m.k + j] for r in rows):
            rows = _add_column(rows, m.k, j)
    return m.k - len(rows)


def _add_column(rows, k, j):
    """The rows carried by a subset once column j, with a nonzero dot in
    some row, joins it: pivot on the first such row; every other row v
    becomes a*v - x*pivot (a, x their dots at j), divided by its
    vector's gcd and the sign of a."""
    pivot = next(r for r in rows if r[k + j])
    a = pivot[k + j]
    child = []
    for r in rows:
        if r is pivot:
            continue
        x = r[k + j]
        if x:
            r = [a * y - x * q for y, q in zip(r, pivot)]
            g = gcd(*r[:k]) if a > 0 else -gcd(*r[:k])
            r = [y // g for y in r]
        child.append(r)
    return child


def _subset_tree(cols, k):
    """Every independent subset of the columns ``cols`` (k entries each)
    of size below k, or the empty one if k = 0, depth first, as
    (subset, rows, closure).

    Each row is a vector of the subset's canonical nullspace basis (the
    primitive vector per free coordinate f of the reduced row echelon
    form that is positive at f and 0 at the other free coordinates, so
    it depends only on the span) followed by its dots with every column;
    the closure lists the columns where every dot is 0.  The empty
    subset carries the unit vectors, and adding a column not in the
    closure (so the subset stays independent) is one ``_add_column``
    step.  A subset carrying one row has no children: a child would
    carry none, so its closure would be every column.
    """
    units = [[int(i == f) for i in range(k)] + [col[f] for col in cols]
             for f in range(k)]
    zero = [0] * (k + len(cols))    # keeps the transpose whole with no rows
    stack = [((), units)]
    while stack:
        subset, rows = stack.pop()
        closure = tuple(c for c, dots in
                        enumerate(islice(zip(zero, *rows), k, None))
                        if not any(dots))
        yield subset, rows, closure
        if len(rows) == 1:
            continue
        for j in range(subset[-1] + 1 if subset else 0, len(cols)):
            if j not in closure:
                stack.append((subset + (j,), _add_column(rows, k, j)))


def enumerate_patterns(m: CoabelianSpec) -> list:
    """All realizable zero patterns, each with a verified certificate.

    A pattern is realizable by a nonzero rational direction iff it is
    span-closed and proper; every such pattern is the closure of an
    independent column subset, so the proper closures ``_subset_tree``
    reaches cover them all.  With none, every column is zero: the matrix
    has rank 0.  The basis ``_subset_tree`` carries at the first subset
    reaching a closure, the same at every subset with that closure,
    gives the certificate.  Output is sorted by size then vertex order.

    The patterns are computed and their certificates verified on the
    first call for m and kept on m; every call returns a new list of
    those patterns.
    """
    if m._patterns is not None:
        return list(m._patterns)
    cols = [m.column(v) for v in m.vertices]
    flats = {}
    for _, rows, closure in _subset_tree(cols, m.k):
        if len(closure) < len(cols):
            flats.setdefault(closure, rows)
    if not flats:
        raise FiniteQuotientError(
            "matrix has rank 0: the quotient is finite, no rank-one quotients")
    ordered = sorted(flats, key=lambda zs: (len(zs), zs))
    patterns = tuple(_certify(m, cols, zs, flats[zs]) for zs in ordered)
    object.__setattr__(m, "_patterns", patterns)
    return list(patterns)


def _certify(m: CoabelianSpec, cols, zero_idx, rows) -> ZeroPattern:
    """Combine the zero columns' nullspace basis, carried in ``rows``
    with its dots, into a certificate: sum of t**i * rows[i] for the
    first t >= 1 whose dots are nonzero off the zero set (they are 0 on
    it).  At an outside column c some carried dot is nonzero, so the
    dot is a nonzero polynomial in t of degree below r = len(rows), and
    rules out at most r - 1 values: t = (outside columns) * (r - 1) + 1
    is the last to try.  Rows (-1, ..., -m) and (1, ..., 1) need it.
    With r = 1 every t gives rows[0] itself, so there is no search."""
    if len(rows) == 1:
        lam = rows[0]
    else:
        for t in range(1, (len(cols) - len(zero_idx)) * (len(rows) - 1) + 2):
            powers = [t ** i for i in range(len(rows))]
            lam = [sum(map(mul, powers, entries)) for entries in zip(*rows)]
            if lam[m.k:].count(0) == len(zero_idx):
                break
        else:
            raise InternalDefect("no certificate found; pattern not realizable")
    pattern = ZeroPattern(tuple(m.vertices[j] for j in zero_idx), lam[:m.k])
    _verify_certificate(m, cols, pattern)
    return pattern


def _verify_certificate(m: CoabelianSpec, cols, pattern: ZeroPattern):
    zs = set(pattern.zero_set)
    for v, col in zip(m.vertices, cols):
        if (not sum(map(mul, pattern.certificate, col))) != (v in zs):
            raise InternalDefect(f"certificate fails at vertex {v!r}")


def fg_coabelian(g: SimplicialGraph, m: CoabelianSpec) -> dict:
    """Finite generation of the kernel: every zero pattern must leave a
    connected, dominant support.  Returns the ``coabelian`` report's
    ``patterns``, ``fg`` and ``fg_witness`` keys; the witness is the
    zero set of the first pattern failing that test, or None."""
    _check_columns(g, m)
    full = (1 << len(g)) - 1
    rows = []
    witness = None
    for pattern in enumerate_patterns(m):
        connected, dominant = fpcheck.connected_and_dominant(
            g, full & ~g.mask(pattern.zero_set))
        fg = connected and dominant
        rows.append({"zero_set": list(pattern.zero_set),
                     "certificate": list(pattern.certificate),
                     "connected": connected, "dominant": dominant, "fg": fg})
        if witness is None and not fg:
            witness = list(pattern.zero_set)
    return {"patterns": rows, "fg": witness is None, "fg_witness": witness}


def fpn_coabelian(g: SimplicialGraph, m: CoabelianSpec, n: int) -> dict:
    """FP_n of the kernel: conjunction of the single-character FP_n
    verdicts over all zero patterns.  Any character with the pattern's
    zero set serves, since only zero patterns matter, so each pattern's
    results are ``fpcheck.fpn_results`` for its support mask with
    t = 0, the valuation of the support's 0/1 indicator: the block
    ``analyze`` prints for that indicator, up to degree n.  Returns the
    ``coabelian`` report's ``fp_n``, ``fp``, ``fp_witness`` and
    ``per_pattern`` keys.

    Unlike ``fg_coabelian``'s, this aggregation is the paper's theorem
    only for a kernel that is weakly discretely embedded in G, so the
    verdict is conditional on that hypothesis."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_columns(g, m)
    full = (1 << len(g)) - 1
    rows = []
    witness = None
    for pattern in enumerate_patterns(m):
        report = fpcheck.fpn_results(g, full & ~g.mask(pattern.zero_set),
                                     m.p, 0, n)
        rows.append({"zero_set": list(pattern.zero_set), "report": report})
        if witness is None and not report["degrees"][n - 1]["fp_complex"]:
            witness = list(pattern.zero_set)
    return {"fp_n": n, "fp": witness is None, "fp_witness": witness,
            "per_pattern": rows}


def is_full(g: SimplicialGraph, m: CoabelianSpec) -> dict:
    """Whether the kernel meets every indecomposable join factor, as
    the ``coabelian`` report's ``fullness`` block.

    A factor that is not a clique always meets the kernel (its derived
    subgroup does); a clique factor on t vertices meets it iff the
    matrix restricted to those columns has rank below t.  Every clique
    factor has t = 1, so that rank is 0 or 1.  When the kernel is both
    full and finitely generated the block's note is the structural
    remark that the quotient is finite-by-abelian.
    """
    _check_columns(g, m)
    factors = []
    for factor in join_factors(g) if g.vertices else []:
        # a join factor is a component of the complement graph, so one
        # of two or more vertices holds a non-edge: a clique factor is a
        # single vertex, and meets the kernel iff its column is zero
        if len(factor) > 1:
            factors.append({
                "factor": list(factor), "is_clique": False, "intersects": True,
                "reason": "not a clique: the factor's derived subgroup "
                          "lies in the kernel"})
            continue
        (v,) = factor
        rank = int(any(m.column(v)))
        factors.append({
            "factor": [v], "is_clique": True, "intersects": not rank,
            "reason": f"clique factor: restricted column rank {rank} "
                      f"{'=' if rank else '<'} 1"})
    full = all(f["intersects"] for f in factors)
    note = None
    # a zero matrix has no zero pattern to aggregate over
    if full and any(map(any, m.rows)) and fg_coabelian(g, m)["fg"]:
        note = "G/N is finite-by-abelian"
    return {"full": full, "factors": factors, "note": note}


def _check_columns(g: SimplicialGraph, m: CoabelianSpec):
    if tuple(g.vertices) != tuple(m.vertices):
        raise SchemaError("matrix columns do not match the graph's vertex order")

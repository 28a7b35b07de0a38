"""Matrix-defined coabelian kernels: zero patterns and aggregation.

An integer matrix with one column per vertex defines the kernel of the
induced map onto a free abelian pro-p group.  The rank-one quotients of
that map have supports determined by their zero pattern: the vertex
sets Z realizable as {v : lambda . column(v) = 0} for a nonzero rational
direction lambda are exactly the span-closed proper subsets of the
columns.  Finite generation and FP_n of the kernel aggregate over those
patterns.  One integer nullspace per column subset gives the subset's
closure (the columns orthogonal to it) and the certificate's basis.

All arithmetic is exact and integer-only: fraction-free elimination
and back substitution over Python's arbitrary-precision integers, no
rationals and no floating point anywhere.
"""

from __future__ import annotations

from itertools import combinations
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


def _int_echelon(rows):
    """Fraction-free (Bareiss) row echelon form; returns (rows, rank).

    Divisions are exact by the Bareiss determinant identity; rows below
    the rank come out zero.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, 0
    ncols = len(rows[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][c]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        for r in range(rank + 1, len(rows)):
            rc = rows[r][c]
            rows[r] = [(rows[r][j] * pv - rows[rank][j] * rc) // prev
                       for j in range(ncols)]
        prev = pv
        rank += 1
    return rows[:rank], rank


def _nullspace_int(rows, width):
    """Integer vectors spanning {x : rows . x = 0} in dimension width.

    One vector per free column f: the unique primitive integer vector
    with x[f] > 0 and zeros at the other free columns, so the basis
    depends only on the row span.  Back substitution scales the partial
    vector by each pivot so that the solved entry stays integral; the
    gcd and sign are fixed at the end.
    """
    ech, rank = _int_echelon(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in ech]
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for f in free:
        x = [0] * width
        x[f] = 1
        for i in range(rank - 1, -1, -1):
            c = pivots[i]
            s = sum(ech[i][j] * x[j] for j in range(c + 1, width))
            x = [xj * ech[i][c] for xj in x]
            x[c] = -s
        g = 0
        for xj in x:
            g = gcd(g, xj)
        if x[f] < 0:
            g = -g
        basis.append(tuple(xj // g for xj in x))
    return basis


def matrix_rank(m: CoabelianSpec) -> int:
    """Rank of the defining matrix over the rationals."""
    return _int_echelon([list(r) for r in m.rows])[1]


def _closure(cols, subset, k):
    """The nullspace basis of the columns in subset, and the positions of
    the columns orthogonal to all of it: the subset's span closure."""
    basis = _nullspace_int([cols[j] for j in subset], k)
    return basis, frozenset(j for j, col in enumerate(cols)
                            if not any(_dot(b, col) for b in basis))


def enumerate_patterns(m: CoabelianSpec) -> list:
    """All realizable zero patterns, each with a verified certificate.

    A pattern is realizable by a nonzero rational direction iff it is
    span-closed and proper; every such pattern is the closure of an
    independent column subset of size below the matrix rank, so closures
    of the subsets of those sizes cover them all.  A subset of size equal
    to the rank adds nothing: independent, it spans every column and its
    closure is not proper; dependent, its closure is that of a smaller
    independent subset.  One nullspace per subset gives its closure and
    the basis of that pattern's certificate, the same for every subset
    with that closure.  Output is sorted by size then vertex order.

    The patterns are computed and their certificates verified on the
    first call for m and kept on m; every call returns a new list of
    those patterns.
    """
    if m._patterns is not None:
        return list(m._patterns)
    rank = matrix_rank(m)
    if rank == 0:
        raise FiniteQuotientError(
            "matrix has rank 0: the quotient is finite, no rank-one quotients")
    n = len(m.vertices)
    cols = [m.column(v) for v in m.vertices]
    flats = {}
    for size in range(0, rank):
        for subset in combinations(range(n), size):
            basis, closed = _closure(cols, subset, m.k)
            if len(closed) < n and closed not in flats:
                flats[closed] = basis
    ordered = sorted(flats, key=lambda s: (len(s), sorted(s)))
    patterns = tuple(_certify(m, cols, zs, flats[zs]) for zs in ordered)
    object.__setattr__(m, "_patterns", patterns)
    return list(patterns)


def _certify(m: CoabelianSpec, cols, zero_idx, basis) -> ZeroPattern:
    """Combine the zero columns' nullspace basis into a certificate."""
    outside = [cols[j] for j in range(len(cols)) if j not in zero_idx]
    # A generic integer combination avoids the finitely many hyperplanes
    # orthogonal to the outside columns; powers of t suffice for some t.
    for t in range(1, 10000):
        lam = tuple(sum(t ** i * b[j] for i, b in enumerate(basis))
                    for j in range(m.k))
        if all(_dot(lam, col) for col in outside):
            pattern = ZeroPattern(
                tuple(m.vertices[j] for j in sorted(zero_idx)), lam)
            _verify_certificate(m, cols, pattern)
            return pattern
    raise InternalDefect("no certificate found; pattern not realizable")


def _dot(a, b):
    return sum(map(mul, a, b))


def _verify_certificate(m: CoabelianSpec, cols, pattern: ZeroPattern):
    zs = set(pattern.zero_set)
    for v, col in zip(m.vertices, cols):
        d = _dot(pattern.certificate, col)
        if (d == 0) != (v in zs):
            raise InternalDefect(f"certificate fails at vertex {v!r}")


def fg_coabelian(g: SimplicialGraph, m: CoabelianSpec) -> dict:
    """Finite generation of the kernel: every zero pattern must leave a
    connected, dominant support.  Returns the ``coabelian`` report's
    ``patterns``, ``fg`` and ``fg_witness`` keys; the witness is the
    zero set of the first pattern failing that test, or None."""
    _check_columns(g, m)
    rows = []
    witness = None
    for pattern in enumerate_patterns(m):
        supp = set(g.vertices).difference(pattern.zero_set)
        connected, dominant = fpcheck.connected_and_dominant(g, supp)
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
    zero set serves, since only zero patterns matter; the 0/1 indicator
    of the support is used.  Returns the ``coabelian`` report's
    ``fp_n``, ``fp``, ``fp_witness`` and ``per_pattern`` keys, each
    pattern with its ``analyze`` results up to degree n.

    Unlike ``fg_coabelian``'s, this aggregation is the paper's theorem
    only for a kernel that is weakly discretely embedded in G, so the
    verdict is conditional on that hypothesis."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_columns(g, m)
    rows = []
    witness = None
    for pattern in enumerate_patterns(m):
        zset = set(pattern.zero_set)
        chi = fpcheck.Character(m.p, {v: 0 if v in zset else 1
                                      for v in g.vertices})
        report = fpcheck.analyze(g, chi, max_n=n)
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
    matrix restricted to those columns has rank below t.  When the
    kernel is both full and finitely generated the block's note is the
    structural remark that the quotient is finite-by-abelian.
    """
    _check_columns(g, m)
    factors = []
    for factor in join_factors(g) if g.vertices else []:
        if not g.is_clique(factor):
            factors.append({
                "factor": list(factor), "is_clique": False, "intersects": True,
                "reason": "not a clique: the factor's derived subgroup "
                          "lies in the kernel"})
            continue
        _, rank = _int_echelon([list(m.column(v)) for v in factor])
        hits = rank < len(factor)
        factors.append({
            "factor": list(factor), "is_clique": True, "intersects": hits,
            "reason": f"clique factor: restricted column rank {rank} "
                      f"{'<' if hits else '='} {len(factor)}"})
    full = all(f["intersects"] for f in factors)
    note = None
    if full and matrix_rank(m) >= 1 and fg_coabelian(g, m)["fg"]:
        note = "G/N is finite-by-abelian"
    return {"full": full, "factors": factors, "note": note}


def _check_columns(g: SimplicialGraph, m: CoabelianSpec):
    if tuple(g.vertices) != tuple(m.vertices):
        raise SchemaError("matrix columns do not match the graph's vertex order")

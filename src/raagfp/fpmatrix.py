"""Sparse matrices and exact rank computation over prime fields.

A matrix is stored by column: one {row: value} dict per column, with
values in 1..p-1 and zeros absent, so arithmetic is exact by
construction.  ``MatrixFp(rows, cols, p)`` is the zero matrix, and
``MatrixFp.from_columns`` takes columns already in that form.  Rank is
a sparse column reduction, the one persistent homology uses
(Edelsbrunner-Letscher-Zomorodian; Bauer's Ripser):
columns are reduced left to right against a dict of pivot columns keyed
by their largest row index (their low).  Any prime p < 2**31 works.
``rank_fp`` can report the lows of its pivot columns; chain complexes
and their clearing pass live in ``flag_homology``.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> int:
    # the bound comes first: trial division on a huge p would not finish
    if not isinstance(p, int) or p >= 2 ** 31 or not is_prime(p):
        raise ValueError(f"p must be a prime below 2**31, got {p!r}")
    return p


class MatrixFp:
    """Sparse rows x cols matrix over the field with p elements.

    ``columns[j]`` maps the row key of each nonzero entry of column j
    to its value in 1..p-1.  Row keys are any ints, ordered as ints
    (``rows`` counts them); ``mul`` takes 0..rows-1.  The constructor
    gives the zero matrix of that shape.
    """

    __slots__ = ("rows", "cols", "p", "columns")

    def __init__(self, rows: int, cols: int, p: int):
        check_prime(p)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        self.p = p
        self.columns = [{} for _ in range(cols)]

    @classmethod
    def from_columns(cls, rows: int, p: int, columns: list) -> "MatrixFp":
        """The matrix with these columns, taken as they are: ``rows``
        distinct row keys in all, and every value in 1..p-1."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.p, m.columns = rows, len(columns), check_prime(p), columns
        return m

    def is_zero(self) -> bool:
        return not any(self.columns)

    def nnz(self) -> int:
        return sum(map(len, self.columns))

    def mul(self, other: "MatrixFp") -> "MatrixFp":
        if self.cols != other.rows or self.p != other.p:
            raise ValueError("incompatible shapes or moduli")
        p = self.p
        out = []
        for bcol in other.columns:
            acc = {}
            for k, vb in bcol.items():
                for i, va in self.columns[k].items():
                    acc[i] = (acc.get(i, 0) + va * vb) % p
            out.append({i: v for i, v in acc.items() if v})
        return MatrixFp.from_columns(self.rows, p, out)

    def __eq__(self, other):
        return (isinstance(other, MatrixFp) and self.rows == other.rows
                and self.cols == other.cols and self.p == other.p
                and self.columns == other.columns)

    def __hash__(self):
        return hash((self.rows, self.cols, self.p,
                     tuple(frozenset(col.items()) for col in self.columns)))

    def __repr__(self):
        return f"MatrixFp({self.rows}x{self.cols} mod {self.p}, nnz={self.nnz()})"


def rank_fp(m: MatrixFp, lows=None) -> int:
    """Rank of m over the field with m.p elements.

    Column reduction: each column is reduced against the stored pivot
    columns until it is zero or its largest row index (its low) has no
    pivot yet; it is then normalised to low entry 1 and stored as that
    low's pivot.  The rank is the number of pivots.  When ``lows`` is a
    set, the low of every pivot is added to it.  The columns of m are
    not modified.
    """
    p = m.p
    pivots = {}
    for column in m.columns:
        col = column
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                inv = pow(col[low], -1, p)
                pivots[low] = col if inv == 1 else {i: v * inv % p
                                                    for i, v in col.items()}
                break
            if col is column:
                col = dict(column)
            f = col[low]
            for i, v in piv.items():
                nv = (col.get(i, 0) - f * v) % p
                if nv:
                    col[i] = nv
                else:
                    del col[i]
    if lows is not None:
        lows.update(pivots)
    return len(pivots)

"""Sparse matrices and exact rank computation over prime fields.

A matrix is stored by column: one {row: value} dict per column, with
values in 1..p-1 and zeros absent, so arithmetic is exact by
construction.  ``MatrixFp(rows, p, columns)``, the one constructor,
takes columns already in that form.  Rank is a sparse column
reduction, the one persistent homology uses
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
    (``rows`` counts them).  The constructor takes the columns as they
    are, so cols is ``len(columns)``: a list of empty dicts gives the
    zero matrix.
    """

    __slots__ = ("rows", "cols", "p", "columns")

    def __init__(self, rows: int, p: int, columns: list):
        self.rows, self.cols, self.p, self.columns = \
            rows, len(columns), check_prime(p), columns

    def nnz(self) -> int:
        return sum(map(len, self.columns))

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

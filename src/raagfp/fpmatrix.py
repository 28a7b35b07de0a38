"""Sparse matrices and exact rank computation over prime fields.

Entries are stored reduced mod p with zeros absent, so arithmetic is
exact by construction.  Rank is a sparse column reduction, the one
persistent homology uses (Edelsbrunner-Letscher-Zomorodian; Bauer's
Ripser): columns are reduced left to right against a dict of pivot
columns keyed by their largest row index.  Any prime p < 2**31 works.
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
    """Sparse rows x cols matrix over the field with p elements."""

    __slots__ = ("rows", "cols", "p", "entries")

    def __init__(self, rows: int, cols: int, p: int, entries=None):
        check_prime(p)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        self.p = p
        cleaned = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry index out of bounds: {(i, j)}")
            v %= p
            if v:
                cleaned[(i, j)] = v
        self.entries = cleaned

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def mul(self, other: "MatrixFp") -> "MatrixFp":
        if self.cols != other.rows or self.p != other.p:
            raise ValueError("incompatible shapes or moduli")
        p = self.p
        orows = [{} for _ in range(other.rows)]
        for (k, j), v in other.entries.items():
            orows[k][j] = v
        acc = {}
        for (i, k), va in self.entries.items():
            for j, vb in orows[k].items():
                key = (i, j)
                acc[key] = (acc.get(key, 0) + va * vb) % p
        return MatrixFp(self.rows, other.cols, p, acc)

    def __eq__(self, other):
        return (isinstance(other, MatrixFp) and self.rows == other.rows
                and self.cols == other.cols and self.p == other.p
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.p, frozenset(self.entries.items())))

    def __repr__(self):
        return f"MatrixFp({self.rows}x{self.cols} mod {self.p}, nnz={self.nnz()})"


def rank_fp(m: MatrixFp) -> int:
    """Rank of m over the field with m.p elements.

    Column reduction: each column, as a {row: value} dict, is reduced
    against the stored pivot columns until it is zero or its largest
    row index (its low) has no pivot yet; it is then normalised to low
    entry 1 and stored as that low's pivot.  The rank is the number of
    pivots.
    """
    p = m.p
    cols = {}
    for (i, j), v in m.entries.items():
        cols.setdefault(j, {})[i] = v
    pivots = {}
    for j in sorted(cols):
        col = cols[j]
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                inv = pow(col[low], -1, p)
                pivots[low] = {i: v * inv % p for i, v in col.items()}
                break
            f = col[low]
            for i, v in piv.items():
                nv = (col.get(i, 0) - f * v) % p
                if nv:
                    col[i] = nv
                else:
                    del col[i]
    return len(pivots)

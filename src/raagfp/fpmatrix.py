"""Sparse matrices and exact rank computation over prime fields.

Entries are stored reduced mod p with zeros absent, so arithmetic is
exact by construction.  Rank uses sparse Gaussian elimination with
minimal-fill (Markowitz) pivot selection; any prime p < 2**31 works.
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
    if not isinstance(p, int) or not is_prime(p) or p >= 2 ** 31:
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

    @classmethod
    def from_rows(cls, dense, p: int) -> "MatrixFp":
        nr = len(dense)
        nc = len(dense[0]) if dense else 0
        entries = {}
        for i, row in enumerate(dense):
            if len(row) != nc:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v % p:
                    entries[(i, j)] = v % p
        return cls(nr, nc, p, entries)

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def row_dicts(self) -> list:
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def to_dense(self) -> list:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def mul(self, other: "MatrixFp") -> "MatrixFp":
        if self.cols != other.rows or self.p != other.p:
            raise ValueError("incompatible shapes or moduli")
        p = self.p
        orows = other.row_dicts()
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


def rank_of_row_dicts(rows, p: int) -> int:
    """Rank of a matrix given as a list of {col: value} dicts, mod p.

    Sparse elimination; the pivot minimizes the Markowitz fill product
    (row nnz - 1) * (column nnz - 1).  The input list is consumed.
    """
    work = [r for r in (dict(r) for r in rows) if r]
    col_rows = {}
    for i, r in enumerate(work):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    active = set(range(len(work)))
    rank = 0
    while active:
        best = None
        for i in sorted(active):
            row = work[i]
            if not row:
                active.discard(i)
                continue
            rterm = len(row) - 1
            for c, _ in row.items():
                score = rterm * (len(col_rows[c]) - 1)
                if best is None or score < best[0]:
                    best = (score, i, c)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, pi, pc = best
        piv = work[pi]
        inv = pow(piv[pc], -1, p)
        for j in tuple(col_rows[pc]):
            if j == pi:
                continue
            rj = work[j]
            f = (rj[pc] * inv) % p
            for c, v in piv.items():
                nv = (rj.get(c, 0) - f * v) % p
                if nv:
                    if c not in rj:
                        col_rows[c].add(j)
                    rj[c] = nv
                elif c in rj:
                    del rj[c]
                    col_rows[c].discard(j)
        active.discard(pi)
        for c in piv:
            col_rows[c].discard(pi)
        rank += 1
    return rank


def rank_fp(m: MatrixFp) -> int:
    """Rank of m over the field with m.p elements."""
    return rank_of_row_dicts(m.row_dicts(), m.p)

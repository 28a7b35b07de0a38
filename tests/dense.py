"""Dense-list views of MatrixFp for writing test fixtures and expectations,
and plain row reduction as the independent oracle for every F_p rank."""

from raagfp.flag_homology import ChainComplexFp
from raagfp.fpmatrix import MatrixFp


def from_rows(dense, p: int) -> MatrixFp:
    """The matrix whose rows are the lists in ``dense``, read mod p."""
    nc = len(dense[0]) if dense else 0
    if any(len(row) != nc for row in dense):
        raise ValueError("ragged rows")
    columns = [{i: row[j] % p for i, row in enumerate(dense) if row[j] % p}
               for j in range(nc)]
    return MatrixFp(len(dense), p, columns)


def to_dense(m: MatrixFp) -> list:
    """The rows of m as lists, zeros included."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for j, col in enumerate(m.columns):
        for i, v in col.items():
            out[i][j] = v
    return out


def dense_product(a, b, p: int) -> list:
    """The product of the row lists a and b, read mod p."""
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


def dense_rank(rows, p):
    """Plain row reduction to echelon form, the independent oracle for
    rank_fp."""
    rows = [[x % p for x in r] for r in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        top = rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c]
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], top)]
        rank += 1
    return rank


def dense_boundary(cx, n: int) -> list:
    """d_n of a ChainComplexFp as row lists: one row per clique of degree
    n-1 and one column per clique of degree n, each in its order in
    ``cx.groups``.  A row key that is no clique of degree n-1 raises
    KeyError."""
    m = cx.boundary(n)
    index = {c: i for i, c in enumerate(cx.groups[n - 1 - cx.lo])}
    return to_dense(MatrixFp(m.rows, m.p, [{index[c]: v for c, v in col.items()}
                                           for col in m.columns]))


def dense_homology(cx) -> dict:
    """The homology of a ChainComplexFp from its dims and the dense
    ranks of its boundaries: dims[n] - rank d_n - rank d_(n+1), where
    d_lo and d_(hi+1) have rank 0."""
    rank = {n: dense_rank(dense_boundary(cx, n), cx.p)
            if cx.lo < n <= cx.hi else 0 for n in range(cx.lo, cx.hi + 2)}
    return {n: cx.dims[n] - rank[n] - rank[n + 1]
            for n in range(cx.lo, cx.hi + 1)}


class FaultyComplex(ChainComplexFp):
    """The complex cx, except that ``boundary(n)`` returns ``faults[n]``
    for each degree n in ``faults``: a boundary with injected faults."""

    __slots__ = ("faults",)

    def __init__(self, cx, faults: dict):
        super().__init__(cx.groups, cx.p, cx.lo, cx.removable, cx.stars)
        self.faults = faults

    def boundary(self, n: int, cleared=()) -> MatrixFp:
        if n in self.faults:
            return self.faults[n]
        return super().boundary(n, cleared)

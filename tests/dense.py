"""Dense-list views of MatrixFp for writing test fixtures and expectations."""

from raagfp.fpmatrix import MatrixFp


def from_rows(dense, p: int) -> MatrixFp:
    """The matrix whose rows are the lists in ``dense``, read mod p."""
    nc = len(dense[0]) if dense else 0
    if any(len(row) != nc for row in dense):
        raise ValueError("ragged rows")
    columns = [{i: row[j] % p for i, row in enumerate(dense) if row[j] % p}
               for j in range(nc)]
    return MatrixFp.from_columns(len(dense), p, columns)


def to_dense(m: MatrixFp) -> list:
    """The rows of m as lists, zeros included."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for j, col in enumerate(m.columns):
        for i, v in col.items():
            out[i][j] = v
    return out

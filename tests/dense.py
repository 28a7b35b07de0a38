"""Dense-list views of MatrixFp for writing test fixtures and expectations."""

from raagfp.fpmatrix import MatrixFp


def from_rows(dense, p: int) -> MatrixFp:
    """The matrix whose rows are the lists in ``dense``, read mod p."""
    nc = len(dense[0]) if dense else 0
    if any(len(row) != nc for row in dense):
        raise ValueError("ragged rows")
    return MatrixFp(len(dense), nc, p, {(i, j): v for i, row in enumerate(dense)
                                        for j, v in enumerate(row)})


def to_dense(m: MatrixFp) -> list:
    """The rows of m as lists, zeros included."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        out[i][j] = v
    return out

"""Integral reduced homology of flag complexes, the oracle for how every
F_p homology depends on p.

The boundary matrices are built here from ``enumerate_cliques(g,
vset)``: removing the vertex in 0-based position i of a clique gives the
integer sign (-1)**i.  Nothing comes from ``MatrixFp`` or
``ChainComplexFp``.  They are brought to Smith normal form by integer
row and column operations.  By the universal coefficient theorem,
dim H~_n(K; F_p) = b_n + t_n(p) + t_(n-1)(p), where b_n is the rank of
H~_n(K; Z) and t_n(p) counts its invariant factors that p divides.
"""

from raagfp.graph import enumerate_cliques


def boundary(groups, k) -> list:
    """The boundary out of the size-k cliques of ``groups``, as one
    ``{face index: sign}`` column per clique."""
    index = {c: i for i, c in enumerate(groups[k - 1])}
    return [{index[c[:i] + c[i + 1:]]: (-1) ** i for i in range(k)}
            for c in groups[k]]


def smith_invariants(columns) -> list:
    """The nonzero diagonal entries of the Smith normal form of the
    integer matrix with the given ``{row: value}`` columns, as positive
    ints, each dividing the next.

    Each step takes an entry a of least absolute value as the pivot and
    clears its column and row by subtracting multiples of a; a nonzero
    remainder is smaller than a, and the step starts again.  Once a is
    alone in its row and column, a row holding an entry that a does not
    divide is added to a's row, and the step starts again; otherwise a
    is the next invariant factor, and its row and column go.
    """
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows = {}
    for j, col in cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v

    def put(i, j, v):
        if v:
            rows[i][j] = cols[j][i] = v
        else:
            rows[i].pop(j, None)
            cols[j].pop(i, None)

    factors = []
    while True:
        # the least entry, and among those one with the fewest fill-ins
        i, j = min(((i, j) for j, col in cols.items() for i in col),
                   key=lambda ij: (abs(rows[ij[0]][ij[1]]),
                                   len(rows[ij[0]]) * len(cols[ij[1]])),
                   default=(None, None))
        if i is None:
            return factors
        a = rows[i][j]
        for r, b in list(cols[j].items()):
            if r != i:
                q = b // a
                for c, v in list(rows[i].items()):
                    put(r, c, rows[r].get(c, 0) - q * v)
        if len(cols[j]) > 1:
            continue
        # column j is zero off row i, so a column operation changes row i
        # alone
        for c, b in list(rows[i].items()):
            if c != j:
                put(i, c, b % a)
        if len(rows[i]) > 1:
            continue
        if abs(a) > 1:
            bad = next((r for r, row in rows.items()
                        if any(v % a for v in row.values())), None)
            if bad is not None:
                for c, v in list(rows[bad].items()):
                    put(i, c, rows[i].get(c, 0) + v)
                continue
        factors.append(abs(a))
        del rows[i], cols[j]
        for c in [c for c, col in cols.items() if not col]:
            del cols[c]


def integral_homology(g, vset: int) -> dict:
    """Reduced integral homology of the flag complex on the vertex set
    ``vset`` of g: degree n -> (Betti number, invariant factors above 1
    of the torsion), for n from -1 to the top degree."""
    groups = enumerate_cliques(g, vset)
    # d_n, out of degree n, starts at the size-(n + 1) cliques
    factors = {n: smith_invariants(boundary(groups, n + 1))
               for n in range(len(groups) - 1)}
    return {n: (len(groups[n + 1]) - len(factors.get(n, ()))
                - len(factors.get(n + 1, ())),
                [f for f in factors.get(n + 1, ()) if f > 1])
            for n in range(-1, len(groups) - 1)}


def fp_dimensions(integral: dict, p: int) -> dict:
    """dim H~_n(K; F_p) = b_n + t_n(p) + t_(n-1)(p) for each degree n of
    ``integral_homology``'s result."""
    def t(n):
        return sum(f % p == 0 for f in integral.get(n, (0, ()))[1])

    return {n: betti + t(n) + t(n - 1) for n, (betti, _) in integral.items()}

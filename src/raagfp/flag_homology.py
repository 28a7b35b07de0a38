"""Flag complexes, links, chain complexes over F_p and reduced homology.

A size-k clique spans a (k-1)-simplex.  All boundary signs use the
fixed vertex order of the ambient graph: removing the vertex in 1-based
position i contributes the sign (-1)**(i-1).

Two routes lead to the same reduced homology.  ``mask_reduced_homology``
is the one the decision procedures use: it takes a vertex set as a
bitmask of the ambient graph (a link is the support mask ANDed with the
adjacency masks of the clique's members) and deletes dominated vertices
until none is left (a strong collapse, which keeps the homotopy type).
Each vertex set is collapsed, and each core left is ranked, once per
graph and prime, building only the boundary columns that clearing
keeps: a face of c is ``c ^ bit``, keyed by that mask, and its sign is
the parity of the bit's position in c.
The tuple route ``link_complex`` -> ``simplicial_chain_complex`` ->
``reduced_homology`` builds the uncollapsed complex with named
simplices; it is the oracle of ``fpcheck.fp_via_links``, the ``verify``
suites and the tests.  A flag complex there is just its clique groups
as ``graph.enumerate_cliques`` returns them: ``groups[k]`` lists the
size-k cliques as vertex tuples, ``groups[0] == [()]``, and the list
ends with the largest size that occurs.

This module owns every chain-complex convention.  Both routes, and the
support complex of ``fpcheck.character_complex``, are ranked by one
top-down clearing pass (``_clearing_pass``), and both tuple complexes
come from one clique-boundary builder (``_clique_complex``).  Every
complex starts at the empty clique and squares to zero in every degree.
"""

from __future__ import annotations

from .errors import InternalDefect
from .fpmatrix import MatrixFp, check_prime, rank_fp
from .graph import (SimplicialGraph, clique_masks, components,
                    enumerate_cliques, strong_collapse)


def link_complex(g: SimplicialGraph, support, s) -> list:
    """Link of the clique ``s`` inside the flag complex on ``support``.

    The result is the clique groups (``enumerate_cliques``) inside the
    support mask ANDed with the adjacency masks of s's members, that is
    the common neighbors of s in support; for s = () it is the flag
    complex of the subgraph induced on support.  An unknown vertex
    raises SchemaError, and an s that is not a clique ValueError.
    """
    s = tuple(s)
    if not g.is_clique(s):
        raise ValueError(f"not a clique: {s!r}")
    link = g.mask(support)
    for v in s:
        link &= g.masks[g.index(v)]
    return enumerate_cliques(g, link)


class ChainComplexFp:
    """Graded F_p vector spaces with boundary maps d_n: degree n -> n-1.

    ``dims`` maps each degree in [lo, hi] to its basis size and
    ``boundaries[n]`` holds d_n for lo < n <= hi (absent means zero).
    The clearing pass that ranks the boundaries needs d_n . d_(n+1) = 0;
    every complex this module builds satisfies it in every degree, and
    ``dd_violation`` checks it.
    """

    __slots__ = ("p", "lo", "hi", "dims", "boundaries", "_ranks", "_homology")

    def __init__(self, p, lo, hi, dims, boundaries):
        check_prime(p)
        if hi < lo:
            raise ValueError("empty degree range")
        self.p = p
        self.lo = lo
        self.hi = hi
        self.dims = {n: int(dims.get(n, 0)) for n in range(lo, hi + 1)}
        self.boundaries = dict(boundaries)
        self._ranks = self._homology = None
        for n, m in self.boundaries.items():
            if not (lo < n <= hi):
                raise ValueError(f"boundary degree out of range: {n}")
            if (m.rows, m.cols) != (self.dims[n - 1], self.dims[n]):
                raise ValueError(f"boundary {n} has shape {(m.rows, m.cols)}, "
                                 f"expected {(self.dims[n - 1], self.dims[n])}")

    def boundary(self, n: int) -> MatrixFp:
        """d_n, materialized as a zero matrix when absent."""
        return self.boundaries.get(n) or MatrixFp(
            self.dims.get(n - 1, 0), self.dims.get(n, 0), self.p)

    def _reduce(self):
        """Rank every boundary and take the homology, in one clearing
        pass over the columns of each d_n whose indices are not lows."""
        def columns(k, cleared):
            m = self.boundaries.get(self.lo + k)
            if m is None:
                return []
            return [col for j, col in enumerate(m.columns) if j not in cleared]

        ranks, h = _clearing_pass(
            self.p, self.lo, [self.dims[n] for n in range(self.lo, self.hi + 1)],
            columns)
        self._ranks = dict(enumerate(ranks, self.lo))
        self._homology = dict(enumerate(h, self.lo))

    def boundary_rank(self, n: int) -> int:
        if self._ranks is None:
            self._reduce()
        return self._ranks.get(n, 0)

    def dd_violation(self):
        """First degree n with d_n . d_(n+1) != 0, else None."""
        for n in range(self.lo + 1, self.hi):
            if not self.boundary(n).mul(self.boundary(n + 1)).is_zero():
                return n
        return None

    def homology(self) -> dict:
        """Dimension of ker d_n / im d_(n+1) for lo <= n <= hi."""
        if self._homology is None:
            self._reduce()
        return dict(self._homology)


def _clearing_pass(p: int, lo: int, sizes: list, columns) -> tuple:
    """Boundary ranks and homology of a chain complex with sizes[k]
    basis elements in degree lo + k, in one top-down pass.

    ``columns(k, cleared)`` lists the columns of the boundary out of
    degree lo + k as ``{row key: value}`` dicts, leaving out the columns
    whose keys are in ``cleared``: the lows of the boundary one degree
    up.  A reduced column of that boundary is a boundary, hence a cycle,
    whose largest key is its low, so the column of that low would reduce
    to zero (Chen-Kerber clearing; this needs d . d = 0, and any order
    of keys works).  Returns ``(ranks, h)``: ranks[k] is the rank of the
    boundary out of degree lo + k (ranks[0] and ranks[-1] are 0) and
    h[k] the homology dimension in degree lo + k.
    """
    ranks = [0] * (len(sizes) + 1)
    lows = set()                        # lows of the boundary one degree up
    for k in range(len(sizes) - 1, 0, -1):
        cleared, lows = lows, set()
        ranks[k] = rank_fp(MatrixFp.from_columns(sizes[k - 1], p,
                                                 columns(k, cleared)), lows=lows)
    h = []
    for k, size in enumerate(sizes):
        dim = size - ranks[k] - ranks[k + 1]
        if dim < 0:
            raise InternalDefect(f"negative homology dimension at degree {lo + k}")
        h.append(dim)
    return ranks, h


def _clique_complex(groups, p: int, lo: int, removable=None) -> ChainComplexFp:
    """Chain complex with one basis element per clique: ``groups[k]``
    lists the size-k cliques as vertex tuples (groups[0] holds the empty
    clique) and sits in degree lo + k.

    The boundary of a clique removes each of its vertices that lies in
    ``removable`` (every vertex when None); removing the vertex in
    0-based position i gives the sign (-1)**i.  Each boundary is built
    column by column, one column per clique.
    """
    boundaries = {}
    for k in range(1, len(groups)):
        index_below = {c: i for i, c in enumerate(groups[k - 1])}
        signs = [1 if pos % 2 == 0 else p - 1 for pos in range(k)]
        boundaries[lo + k] = MatrixFp.from_columns(len(groups[k - 1]), p, [
            {index_below[c[:pos] + c[pos + 1:]]: sign
             for pos, sign in enumerate(signs)
             if removable is None or c[pos] in removable}
            for c in groups[k]])
    dims = {lo + k: len(group) for k, group in enumerate(groups)}
    return ChainComplexFp(p, lo, lo + len(groups) - 1, dims, boundaries)


def simplicial_chain_complex(groups, p: int) -> ChainComplexFp:
    """Augmented chain complex of the flag complex with clique groups
    ``groups``: size-n cliques sit in degree n-1, the empty clique in
    degree -1, and d_0 sends every vertex to 1."""
    return _clique_complex(groups, p, -1)


def reduced_homology(groups, p: int) -> dict:
    """Reduced homology dimensions over F_p of the flag complex with
    clique groups ``groups``, degrees -1 .. len(groups) - 2.

    The empty complex has dimension 1 in degree -1 and nothing else.
    The two lowest degrees are checked against a count that uses no
    rank: h_-1 is 1 exactly when there are no vertices, and h_0 + 1 is
    the number of connected components of the 1-skeleton.
    """
    h = simplicial_chain_complex(groups, p).homology()
    vertices = groups[1] if len(groups) > 1 else []
    index = {v: i for i, (v,) in enumerate(vertices)}
    adj = [0] * len(index)
    for a, b in groups[2] if len(groups) > 2 else []:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    _check_low_degrees(h, len(index),
                       len(components(adj, (1 << len(index)) - 1)))
    return h


def _check_low_degrees(h: dict, vertices: int, components: int):
    """Raise InternalDefect unless h_-1 is 1 exactly on the complex with
    no vertices and h_0 + 1 is the component count of any other."""
    if h[-1] != (0 if vertices else 1):
        raise InternalDefect(f"reduced homology in degree -1 is {h[-1]} "
                             f"on a complex with {vertices} vertices")
    if vertices and h[0] + 1 != components:
        raise InternalDefect(f"reduced homology in degree 0 is {h[0]}, "
                             f"but the 1-skeleton has {components} "
                             f"connected components")


def mask_reduced_homology(g: SimplicialGraph, vset: int, p: int) -> dict:
    """Reduced homology dimensions over F_p of the flag complex on the
    vertex set ``vset`` of g.

    The complex is strong-collapsed first, so the result lists degrees
    -1 .. dim of the collapsed complex, which may stop below dim of the
    original; every degree it leaves out has dimension 0.  The result
    is g's memo entry for ``(core, p)``, shared by every link with that
    core, so it must not be modified.  It is also kept under
    ``(vset, p)``, so a vertex set seen before is not collapsed again (a
    core collapses to itself, so both keys hold the same homology).  The
    h_-1 and h_0 self-checks run on every call against the emptiness
    and component count of vset.
    """
    adj = g.masks
    memo = g._homology
    h = memo.get((vset, p))
    if h is None:
        core = strong_collapse(adj, vset)
        h = memo.get((core, p))
        if h is None:
            h = memo[core, p] = _core_homology(adj, core, p)
        memo[vset, p] = h
    _check_low_degrees(h, vset.bit_count(), len(components(adj, vset)))
    return h


def _core_homology(adj, vset: int, p: int) -> dict:
    """Reduced homology of the flag complex on vset.

    Degree k-1 has one basis element per size-k clique, degree -1 the
    empty clique.  The column of c has the row ``c ^ bit`` with sign
    (-1)**i for the bit in 0-based position i of c, so d_0 sends every
    vertex to 1.  Columns are keyed by their clique masks, so a cleared
    low is a clique whose column is never built.
    """
    groups = clique_masks(adj, vset)
    signs = [1 if pos % 2 == 0 else p - 1 for pos in range(len(groups))]

    def columns(k, cleared):
        out = []
        for c in groups[k]:
            if c in cleared:
                continue
            column = {}
            rest, pos = c, 0
            while rest:
                bit = rest & -rest
                rest ^= bit
                column[c ^ bit] = signs[pos]
                pos += 1
            out.append(column)
        return out

    _, h = _clearing_pass(p, -1, list(map(len, groups)), columns)
    return dict(enumerate(h, -1))

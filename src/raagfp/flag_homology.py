"""Flag complexes, links, chain complexes over F_p and reduced homology.

A size-k clique spans a (k-1)-simplex.  All boundary signs use the
fixed vertex order of the ambient graph: removing the vertex in 1-based
position i contributes the sign (-1)**(i-1).

Two routes lead to the same reduced homology.  ``mask_reduced_homology``
is the one the decision procedures use: it takes a vertex set as a
bitmask of the ambient graph (a link is the support mask ANDed with the
adjacency masks of the clique's members) and deletes dominated vertices
until none is left (a strong collapse, which keeps the homotopy type).
Each core left is ranked once per graph and prime, building only the
boundary columns that clearing keeps: a face of c is ``c ^ bit``, keyed
by that mask, and its sign is the parity of the bit's position in c.
The tuple route ``link_complex`` -> ``flag_complex`` ->
``simplicial_chain_complex`` -> ``reduced_homology`` builds the
uncollapsed complex with named simplices; it is the oracle of the
``verify`` suites and the tests.
"""

from __future__ import annotations

from .errors import InternalDefect, SchemaError
from .fpmatrix import MatrixFp, check_prime, rank_fp
from .graph import (SimplicialGraph, clique_masks, components,
                    enumerate_cliques, induced_subgraph, strong_collapse)


class FlagComplex:
    """The simplices (nonempty cliques) of a graph, grouped by size."""

    __slots__ = ("simplices",)

    def __init__(self, simplices):
        self.simplices = [tuple(group) for group in simplices]
        while self.simplices and not self.simplices[-1]:
            self.simplices.pop()

    @property
    def is_empty(self) -> bool:
        return not self.simplices

    @property
    def dim(self) -> int:
        """Top simplex dimension; -1 for the empty complex."""
        return len(self.simplices) - 1

    def group(self, size: int):
        """All simplices with ``size`` vertices."""
        if 1 <= size <= len(self.simplices):
            return self.simplices[size - 1]
        return ()

    def vertex_count(self) -> int:
        return len(self.group(1))

    def __eq__(self, other):
        return isinstance(other, FlagComplex) and self.simplices == other.simplices

    def __repr__(self):
        counts = [len(g) for g in self.simplices]
        return f"FlagComplex(sizes={counts})"


def flag_complex(g: SimplicialGraph) -> FlagComplex:
    """Complex glued from every nonempty clique of g."""
    return FlagComplex(enumerate_cliques(g)[1:])


def link_complex(g: SimplicialGraph, support, s) -> FlagComplex:
    """Link of the clique ``s`` inside the flag complex on ``support``.

    The result is the flag complex of the subgraph induced on the
    common neighbors of s intersected with support; for s = () it is
    the flag complex of the subgraph induced on support.
    """
    s = tuple(s)
    if not g.is_clique(s):
        raise ValueError(f"not a clique: {s!r}")
    cand = set(support)
    for v in cand:
        if v not in g:
            raise SchemaError(f"unknown vertex: {v!r}")
    for v in s:
        cand &= g.neighbors(v)
    return flag_complex(induced_subgraph(g, cand))


class ChainComplexFp:
    """Graded F_p vector spaces with boundary maps d_n: degree n -> n-1.

    ``dims`` maps each degree in [lo, hi] to its basis size and
    ``boundaries[n]`` holds d_n for lo < n <= hi (absent means zero).
    ``chain_floor`` is the least degree n for which d_n . d_(n+1) = 0 is
    part of the contract; homology is defined from that degree up.  For
    simplicial complexes the whole range qualifies.  The support
    complex of a character keeps its bottom rung (the augmentation
    receiving the empty clique) for display, but its chain condition
    and homology start at degree 1.

    All boundary ranks come from one top-down pass with clearing: d_n
    is reduced after d_(n+1), skipping the columns that are lows of
    d_(n+1)'s pivots.  A reduced column of d_(n+1) is a boundary, hence
    a cycle of d_n, whose largest basis index is its low, so that column
    of d_n is a combination of earlier ones and would reduce to zero.
    This needs d_n . d_(n+1) = 0, so only d_n with n >= chain_floor is
    cleared.
    """

    __slots__ = ("p", "lo", "hi", "dims", "boundaries", "chain_floor",
                 "_ranks")

    def __init__(self, p, lo, hi, dims, boundaries, chain_floor=None):
        check_prime(p)
        if hi < lo:
            raise ValueError("empty degree range")
        self.p = p
        self.lo = lo
        self.hi = hi
        self.dims = {n: int(dims.get(n, 0)) for n in range(lo, hi + 1)}
        self.boundaries = dict(boundaries)
        self.chain_floor = lo if chain_floor is None else chain_floor
        self._ranks = None
        for n, m in self.boundaries.items():
            if not (lo < n <= hi):
                raise ValueError(f"boundary degree out of range: {n}")
            if (m.rows, m.cols) != (self.dims[n - 1], self.dims[n]):
                raise ValueError(f"boundary {n} has shape {(m.rows, m.cols)}, "
                                 f"expected {(self.dims[n - 1], self.dims[n])}")

    def boundary(self, n: int) -> MatrixFp:
        """d_n, materialized as a zero matrix when absent."""
        if n in self.boundaries:
            return self.boundaries[n]
        rows = self.dims.get(n - 1, 0)
        cols = self.dims.get(n, 0)
        return MatrixFp(rows, cols, self.p)

    def boundary_rank(self, n: int) -> int:
        if self._ranks is None:
            self._ranks = self._reduce()
        return self._ranks.get(n, 0)

    def _reduce(self) -> dict:
        """Rank of every nonzero boundary, top degree first, clearing
        each d_n with n >= chain_floor by the lows of d_(n+1)."""
        ranks = {}
        lows = set()                    # lows of d_(n+1)
        for n in range(self.hi, self.lo, -1):
            cleared = lows if n >= self.chain_floor else frozenset()
            lows = set()
            if n in self.boundaries:
                ranks[n] = rank_fp(self.boundaries[n], cleared=cleared,
                                   lows=lows)
        return ranks

    def dd_violation(self):
        """First degree n >= chain_floor with d_n . d_(n+1) != 0, else None."""
        for n in range(max(self.chain_floor, self.lo + 1), self.hi):
            if not self.boundary(n).mul(self.boundary(n + 1)).is_zero():
                return n
        return None

    def homology(self) -> dict:
        """Dimension of ker d_n / im d_(n+1) for chain_floor <= n <= hi."""
        out = {}
        for n in range(max(self.chain_floor, self.lo), self.hi + 1):
            dim = self.dims[n] - self.boundary_rank(n) - self.boundary_rank(n + 1)
            if dim < 0:
                raise InternalDefect(f"negative homology dimension at degree {n}")
            out[n] = dim
        return out


def simplicial_chain_complex(k: FlagComplex, p: int, augmented: bool = True
                             ) -> ChainComplexFp:
    """Chain complex of a flag complex; size-n cliques sit in degree n-1.

    With ``augmented`` the complex gains degree -1 of dimension 1 and
    the map sending every vertex to 1.  Each boundary is built column by
    column, one column per simplex, with entries +1 and -1 mod p.
    """
    check_prime(p)
    lo = -1 if augmented else 0
    hi = max(k.dim, lo)
    dims = {-1: 1} if augmented else {}
    for d in range(0, k.dim + 1):
        dims[d] = len(k.group(d + 1))
    boundaries = {}
    if augmented and dims.get(0):
        boundaries[0] = MatrixFp.from_columns(1, p,
                                              [{0: 1} for _ in range(dims[0])])
    for d in range(1, k.dim + 1):
        index_below = {simplex: i for i, simplex in enumerate(k.group(d))}
        signs = [1 if pos % 2 == 0 else p - 1 for pos in range(d + 1)]
        boundaries[d] = MatrixFp.from_columns(dims[d - 1], p, [
            {index_below[simplex[:pos] + simplex[pos + 1:]]: sign
             for pos, sign in enumerate(signs)}
            for simplex in k.group(d + 1)])
    return ChainComplexFp(p, lo, hi, dims, boundaries)


def reduced_homology(k: FlagComplex, p: int) -> dict:
    """Reduced homology dimensions over F_p, degrees -1 .. dim(k).

    The empty complex has dimension 1 in degree -1 and nothing else.
    The two lowest degrees are checked against a count that uses no
    rank: h_-1 is 1 exactly when k is empty, and h_0 + 1 is the number
    of connected components of the 1-skeleton.
    """
    h = simplicial_chain_complex(k, p, augmented=True).homology()
    index = {v: i for i, (v,) in enumerate(k.group(1))}
    adj = [0] * len(index)
    for a, b in k.group(2):
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
    core, so it must not be modified.  The h_-1 and h_0 self-checks run
    on every call against the emptiness and component count of vset.
    """
    adj = g.masks
    core = strong_collapse(adj, vset)
    h = g._homology.get((core, p))
    if h is None:
        h = g._homology[core, p] = _core_homology(adj, core, p)
    _check_low_degrees(h, vset.bit_count(), len(components(adj, vset)))
    return h


def _core_homology(adj, vset: int, p: int) -> dict:
    """Reduced homology of the flag complex on vset, top degree first.

    Degree k-1 has one basis element per size-k clique, degree -1 the
    empty clique.  The column of c has the row ``c ^ bit`` with sign
    (-1)**i for the bit in 0-based position i of c, so d_0 sends every
    vertex to 1.  A low of the boundary one degree up gets no column:
    it is the largest key of a boundary, hence of a cycle, so its column
    would reduce to zero (Chen-Kerber clearing; any order of keys works).
    """
    groups = clique_masks(adj, vset)
    signs = [1 if pos % 2 == 0 else p - 1 for pos in range(len(groups))]
    ranks = [0] * (len(groups) + 1)     # ranks[k]: boundary of size-k cliques
    lows = set()
    for k in range(len(groups) - 1, 0, -1):
        cleared, lows = lows, set()
        columns = []
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
            columns.append(column)
        ranks[k] = rank_fp(MatrixFp.from_columns(len(groups[k - 1]), p,
                                                 columns), lows=lows)
    h = {}
    for k, group in enumerate(groups):
        dim = len(group) - ranks[k] - ranks[k + 1]
        if dim < 0:
            raise InternalDefect(f"negative homology dimension at degree {k - 1}")
        h[k - 1] = dim
    return h


def is_k_acyclic(k: FlagComplex, p: int, level: int) -> bool:
    """True iff the reduced homology vanishes in degrees -1 .. level.

    Level -1 therefore just asks the complex to be nonempty; the empty
    complex has one dimension of reduced homology in degree -1.
    """
    if level < -1:
        raise ValueError("level must be >= -1")
    h = reduced_homology(k, p)
    return all(h.get(i, 0) == 0 for i in range(-1, level + 1))

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
graph and prime.  A core is ranked relative to a contractible
subcomplex, the union of the stars of a maximal clique, so only the
cliques outside every star get a basis element, and only the boundary
columns that clearing keeps are built: a face of c is ``c ^ bit``,
keyed by that mask, its sign is the parity of the bit's position in c,
and a face inside a star is left out.
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
are ``ChainComplexFp``s built from their clique groups.  Every
tuple complex starts at the empty clique, the relative complex of a
core at its first clique outside the stars, and each squares to zero
in every degree.
"""

from __future__ import annotations

from .errors import InternalDefect
from .fpmatrix import MatrixFp, check_prime, rank_fp
from .graph import (SimplicialGraph, check_vertex_set, clique_masks,
                    components, enumerate_cliques, strong_collapse)


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
    """Chain complex over F_p with one basis element per clique.

    ``groups[k]`` lists the size-k cliques as vertex tuples (groups[0]
    holds the empty clique) and sits in degree lo + k, so ``dims`` maps
    each degree in [lo, hi] to its group size, hi = lo + len(groups) - 1,
    and ``boundaries[n]`` holds d_n: degree n -> n-1 for every
    lo < n <= hi, with the row of a face keyed by its index in its
    group.  The boundary of a clique removes each of its vertices that
    lies in ``removable`` (every vertex when None); removing the vertex
    in 0-based position i gives the sign (-1)**i.  Each boundary is
    built column by column, one column per clique.  The clearing pass
    that ranks the boundaries needs d_n . d_(n+1) = 0.  It holds in
    every degree, since removing two removable vertices in either order
    gives opposite signs, and ``dd_violation`` checks it.
    """

    __slots__ = ("p", "lo", "hi", "dims", "boundaries")

    def __init__(self, groups, p: int, lo: int, removable=None):
        check_prime(p)
        if not groups:
            raise ValueError("empty degree range")
        self.p = p
        self.lo = lo
        self.hi = lo + len(groups) - 1
        self.dims = {lo + k: len(group) for k, group in enumerate(groups)}
        self.boundaries = {}
        for k in range(1, len(groups)):
            index_below = {c: i for i, c in enumerate(groups[k - 1])}
            signs = [1 if pos % 2 == 0 else p - 1 for pos in range(k)]
            self.boundaries[lo + k] = MatrixFp(len(groups[k - 1]), p, [
                {index_below[c[:pos] + c[pos + 1:]]: sign
                 for pos, sign in enumerate(signs)
                 if removable is None or c[pos] in removable}
                for c in groups[k]])

    def dd_violation(self):
        """First degree n with d_n . d_(n+1) != 0, else None.  Each
        column of d_(n+1) adds up the columns of d_n mod p, weighted by
        its entries; d_n . d_(n+1) is zero when every sum is."""
        p = self.p
        for n in range(self.lo + 1, self.hi):
            below = self.boundaries[n].columns
            for column in self.boundaries[n + 1].columns:
                image = {}
                for k, weight in column.items():
                    for i, v in below[k].items():
                        image[i] = (image.get(i, 0) + weight * v) % p
                if any(image.values()):
                    return n
        return None

    def homology(self) -> dict:
        """Dimension of ker d_n / im d_(n+1) for lo <= n <= hi, in one
        clearing pass over the columns of each d_n that are not lows."""
        def columns(k, cleared):
            return [col for j, col in
                    enumerate(self.boundaries[self.lo + k].columns)
                    if j not in cleared]

        h = _clearing_pass(
            self.p, self.lo,
            [self.dims[n] for n in range(self.lo, self.hi + 1)], columns)
        return dict(enumerate(h, self.lo))


def _clearing_pass(p: int, lo: int, sizes: list, columns) -> list:
    """Homology of a chain complex with sizes[k] basis elements in
    degree lo + k, in one top-down pass.

    ``columns(k, cleared)`` lists the columns of the boundary out of
    degree lo + k as ``{row key: value}`` dicts, leaving out the columns
    whose keys are in ``cleared``: the lows of the boundary one degree
    up.  A reduced column of that boundary is a boundary, hence a cycle,
    whose largest key is its low, so the column of that low would reduce
    to zero (Chen-Kerber clearing; this needs d . d = 0, and any order
    of keys works).  Returns h, with h[k] the homology dimension in
    degree lo + k.
    """
    # ranks[k] is the rank of the boundary out of degree lo + k
    ranks = [0] * (len(sizes) + 1)
    lows = set()                        # lows of the boundary one degree up
    for k in range(len(sizes) - 1, 0, -1):
        cleared, lows = lows, set()
        ranks[k] = rank_fp(MatrixFp(sizes[k - 1], p, columns(k, cleared)),
                           lows=lows)
    h = []
    for k, size in enumerate(sizes):
        dim = size - ranks[k] - ranks[k + 1]
        if dim < 0:
            raise InternalDefect(f"negative homology dimension at degree {lo + k}")
        h.append(dim)
    return h


def simplicial_chain_complex(groups, p: int) -> ChainComplexFp:
    """Augmented chain complex of the flag complex with clique groups
    ``groups``: size-n cliques sit in degree n-1, the empty clique in
    degree -1, and d_0 sends every vertex to 1."""
    return ChainComplexFp(groups, p, -1)


def reduced_homology(groups, p: int) -> dict:
    """Reduced homology dimensions over F_p of the flag complex with
    clique groups ``groups``, degrees -1 .. len(groups) - 2.

    The empty complex has dimension 1 in degree -1 and nothing else.
    The two lowest degrees are checked against a count that uses no
    rank: h_-1 is 1 exactly when there are no vertices, and h_0 + 1 is
    the number of components of the 1-skeleton, the ``SimplicialGraph``
    of the size-1 and size-2 cliques.
    """
    h = simplicial_chain_complex(groups, p).homology()
    vertices = [v for (v,) in groups[1]] if len(groups) > 1 else []
    skeleton = SimplicialGraph(vertices, groups[2] if len(groups) > 2 else [])
    count = len(components(skeleton.masks, (1 << len(vertices)) - 1))
    _check_low_degrees(h, len(vertices), count)
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

    The complex is strong-collapsed first and then ranked relative to a
    contractible subcomplex (``_core_homology``), so the result lists
    degrees -1 .. the top degree of what is left, at least -1 and 0
    when vset is nonempty; every degree it leaves out has dimension 0.
    The result is g's memo entry for ``(core, p)``, shared by every link
    with that core, so it must not be modified.  It is also kept under
    ``(vset, p)``, so a vertex set seen before is not collapsed again (a
    core collapses to itself, so both keys hold the same homology).  A
    vset that is not a set of g's positions raises SchemaError on a memo
    miss.  The h_-1 and h_0 self-checks run on every call against the
    emptiness and component count of vset; the count is kept in g's
    ``_components`` memo, so each vertex set is searched once.
    """
    adj = g.masks
    memo = g._homology
    h = memo.get((vset, p))
    if h is None:
        check_vertex_set(vset, len(adj))
        core = strong_collapse(adj, vset)
        h = memo.get((core, p))
        if h is None:
            h = memo[core, p] = _core_homology(adj, core, p)
        memo[vset, p] = h
    count = g._components.get(vset)
    if count is None:
        count = g._components[vset] = len(components(adj, vset))
    _check_low_degrees(h, vset.bit_count(), count)
    return h


def _star_cover(adj, vset: int) -> list:
    """The closed neighbourhoods N[v] inside vset of the members v of a
    maximal clique T of the nonempty vset.

    T is greedy: the vertex of highest degree inside vset, ties to the
    lowest position, among the candidates adjacent to every vertex
    taken so far.
    """
    stars = []
    cand = vset
    while cand:
        best = degree = -1
        rest = cand
        while rest:
            bit = rest & -rest
            rest ^= bit
            d = (adj[bit.bit_length() - 1] & vset).bit_count()
            if d > degree:
                best, degree = bit, d
        star = adj[best.bit_length() - 1] & vset
        stars.append(star | best)
        cand &= star
    return stars


def _core_homology(adj, vset: int, p: int) -> dict:
    """Reduced homology of the flag complex K on vset, as the homology
    of K relative to a contractible subcomplex L.

    L is the union of the full subcomplexes on the sets ``_star_cover``
    returns, the closed neighbourhoods N[v] of the members v of a
    maximal clique T.  For any nonempty U inside T, the pieces of the
    members of U meet in the full subcomplex on the common closed
    neighbourhood of U, a cone on any member of U; so by the nerve
    lemma L is homotopy equivalent to a simplex, and H~_n(K) = H_n(K, L)
    over every field (Mrozek-Pilarczyk-Zelazna, "Homology algorithm
    based on acyclic subspace", Comput. Math. Appl. 55, 2008).

    Degree k-1 has one basis element per size-k clique inside no N[v],
    so degree -1 has none; the result lists degrees -1 .. the top
    relative degree, and at least -1 and 0 for a nonempty vset.  The
    column of c has the row ``c ^ bit`` with sign (-1)**i for the bit
    in 0-based position i of c, unless that face lies in L.  Columns are
    keyed by their clique masks, so a cleared low is a clique whose
    column is never built.
    """
    if not vset:
        return {-1: 1}
    stars = _star_cover(adj, vset)
    groups = clique_masks(adj, vset, stars)
    signs = [1 if pos % 2 == 0 else p - 1 for pos in range(len(groups))]

    def columns(k, cleared):
        out = []
        for c in groups[k + 1]:
            if c in cleared:
                continue
            in_l = 0                # bits whose removal lands in a star
            for star in stars:
                rest = c & ~star
                if not rest & (rest - 1):
                    in_l |= rest
            column = {}
            rest, pos = c, 0
            while rest:
                bit = rest & -rest
                rest ^= bit
                if not bit & in_l:
                    column[c ^ bit] = signs[pos]
                pos += 1
            out.append(column)
        return out

    h = _clearing_pass(p, 0, [len(group) for group in groups[1:]] or [0],
                       columns)
    return {-1: 0, **dict(enumerate(h))}

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
cliques outside every star get a basis element, and a face inside a
star is left out of every boundary.
The tuple route ``link_complex`` -> ``simplicial_chain_complex`` ->
``reduced_homology`` builds the uncollapsed complex with named
simplices; it is the oracle of ``fpcheck.fp_via_links``, the ``verify``
suites and the tests.  A flag complex there is just its clique groups
as ``graph.enumerate_cliques`` returns them: ``groups[k]`` lists the
size-k cliques as vertex tuples, ``groups[0] == [()]``, and the list
ends with the largest size that occurs.

This module owns every chain-complex convention.  ``ChainComplexFp``
is the one chain complex: its basis is clique bitmasks, it builds each
boundary column on demand, and its ``homology`` ranks the boundaries in
one top-down clearing pass.  A tuple complex is turned into masks with
bit i for its i-th vertex; the support complex of
``fpcheck.character_complex`` removes only support vertices, and a
core's relative complex starts at its first clique outside the stars.
Each squares to zero in every degree.
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

    ``groups[k]`` lists the size-k cliques as bitmasks and sits in
    degree lo + k, so ``dims`` maps each degree in [lo, hi] to its group
    size, hi = lo + len(groups) - 1.  ``boundary(n)`` builds d_n:
    degree n -> n-1 for lo < n <= hi, one column per clique c, with the
    row of a face keyed by its mask.  The column of c removes each bit
    of c that lies in ``removable`` (every bit by default) and whose
    face ``c ^ bit`` lies in no vertex set of ``stars``; the bit in
    0-based position i of c gives the sign (-1)**i.  The groups are
    ``graph.clique_masks`` of one vertex set avoiding ``stars``, so
    every face kept is a basis element one degree down.  The clearing
    pass of ``homology`` needs d_n . d_(n+1) = 0, which
    ``dd_violation`` checks.  It holds in every degree: removing two
    removable bits in either order gives opposite signs, and a face
    two removals down that lies in no star is reached through two faces
    that lie in none either, since the subsets of a star are in it too.
    """

    __slots__ = ("groups", "p", "lo", "hi", "dims", "removable", "stars")

    def __init__(self, groups, p: int, lo: int, removable: int = -1,
                 stars=()):
        check_prime(p)
        if not groups:
            raise ValueError("empty degree range")
        self.groups = groups
        self.p = p
        self.lo = lo
        self.hi = lo + len(groups) - 1
        self.dims = {lo + k: len(group) for k, group in enumerate(groups)}
        self.removable = removable
        self.stars = stars

    def boundary(self, n: int, cleared=()) -> MatrixFp:
        """d_n, leaving out the columns of the cliques in ``cleared``."""
        k = n - self.lo
        p, removable, stars = self.p, self.removable, self.stars
        signs = [1 if pos % 2 == 0 else p - 1 for pos in range(k)]
        columns = []
        for c in self.groups[k]:
            if c in cleared:
                continue
            keep = c & removable        # bits whose face is a term
            for star in stars:
                rest = c & ~star
                if not rest & (rest - 1):
                    keep &= ~rest
            column = {}
            rest, pos = c, 0
            while rest:
                bit = rest & -rest
                rest ^= bit
                if bit & keep:
                    column[c ^ bit] = signs[pos]
                pos += 1
            columns.append(column)
        return MatrixFp(len(self.groups[k - 1]), p, columns)

    def dd_violation(self):
        """First degree n with d_n . d_(n+1) != 0, else None.  Each
        column of d_(n+1) adds up the columns of d_n mod p, weighted by
        its entries; d_n . d_(n+1) is zero when every sum is."""
        p = self.p
        for n in range(self.lo + 1, self.hi):
            below = dict(zip(self.groups[n - self.lo],
                             self.boundary(n).columns))
            for column in self.boundary(n + 1).columns:
                image = {}
                for face, weight in column.items():
                    for i, v in below[face].items():
                        image[i] = (image.get(i, 0) + weight * v) % p
                if any(image.values()):
                    return n
        return None

    def homology(self) -> dict:
        """Dimension of ker d_n / im d_(n+1) for lo <= n <= hi, in one
        top-down pass.

        A reduced column of d_(n+1) is a boundary, hence a cycle, whose
        largest row key is its low, so the column of d_n at that low
        would reduce to zero: it is never built (Chen-Kerber clearing,
        which needs d . d = 0; any order of keys works).  A d_n into an
        empty degree is zero and is not ranked.  A negative dimension
        raises InternalDefect.
        """
        lo, dims = self.lo, self.dims
        ranks = dict.fromkeys(range(lo, self.hi + 2), 0)
        lows = set()                    # lows of d_(n+1)
        for n in range(self.hi, lo, -1):
            cleared, lows = lows, set()
            if dims[n - 1]:
                ranks[n] = rank_fp(self.boundary(n, cleared), lows=lows)
        h = {}
        for n, size in dims.items():
            h[n] = size - ranks[n] - ranks[n + 1]
            if h[n] < 0:
                raise InternalDefect(f"negative homology dimension at degree {n}")
        return h


def simplicial_chain_complex(groups, p: int) -> ChainComplexFp:
    """Augmented chain complex of the flag complex with clique groups
    ``groups``: size-n cliques sit in degree n-1, the empty clique in
    degree -1, and d_0 sends every vertex to 1."""
    return ChainComplexFp(_as_masks(groups), p, -1)


def _as_masks(groups) -> list:
    """Tuple clique groups as bitmasks, bit i for the i-th vertex of
    groups[1].  The tuples list their vertices in that order, so the
    position of a vertex in a tuple is the position of its bit."""
    bits = {v: 1 << i for i, (v,) in enumerate(groups[1])} \
        if len(groups) > 1 else {}
    return [[sum(bits[v] for v in c) for c in group] for group in groups]


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
    so degree -1 has none: the ``ChainComplexFp`` of those cliques with
    the N[v] as its stars.  The result lists degrees -1 .. the top
    relative degree, and at least -1 and 0 for a nonempty vset.
    """
    if not vset:
        return {-1: 1}
    stars = _star_cover(adj, vset)
    h = ChainComplexFp(clique_masks(adj, vset, stars), p, -1,
                       stars=stars).homology()
    h.setdefault(0, 0)
    return h

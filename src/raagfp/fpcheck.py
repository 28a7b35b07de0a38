"""Decision procedures for a single character on a graph group.

A character assigns one integer per vertex (the image of that generator
in the p-adic integers).  Everything observable here depends only on
the zero pattern of the character: which vertices map to zero.  The
FP_n verdict has two readings:

* the support complex: one basis element per clique of the whole graph,
  graded by clique size, with the boundary keeping only the terms whose
  removed vertex has nonzero character value; FP_n holds iff its
  homology vanishes in degrees 1..n, and

* the link route: for every clique S lying outside the support and of
  size at most n, the link of S in the flag complex of the support
  subgraph must be (n-1-|S|)-acyclic over F_p, where (-1)-acyclic means
  nonempty.

The boundary removes only support vertices, so the support complex is
block-diagonal over the outside cliques S.  Rescale each basis clique
S u T (T inside the support) by the sign of the shuffle that sorts the
concatenation S.T; then block S is the augmented chain complex of the
link of S, with its differential multiplied by (-1)**|S| and degree n
of the block sitting in link degree n-1-|S|.  So the support-complex
homology in degree n is the sum over S of the reduced link homology in
degree n-1-|S|, and ``analyze`` and ``max_fp`` read both route columns,
the decomposition block and finite generation (FP_1, h_1 = 0) off one
link-homology table.  The table builds each link as a bitmask, the
support mask ANDed with the adjacency masks of S, and takes its
homology after a strong collapse, relative to the stars of a maximal
clique of what is left (``flag_homology.mask_reduced_homology``), so a
link's entry may list fewer degrees than the link has; the top
degree of the support complex is therefore the largest clique size of
the graph, not a link's top.  The unsplit support complex
(``character_complex``: the ``flag_homology.ChainComplexFp`` of g's
clique bitmasks with the support bits removable, the builder that also
ranks each link core) is built only by the oracles ``fp_via_complex``
and ``decomposition_check``, and the uncollapsed links only by the
oracle ``fp_via_links``, which reads ``reduced_homology`` of each
link's clique groups (``link_complex``); the verify suites and the
tests run these oracles against the link table.

The ``fpn`` results block is assembled in one place, ``fpn_results``,
from a support bitmask, the prime and the power of p the character is
rescaled by.  ``analyze`` reads those off a character;
``coabelian.fpn_coabelian`` passes each zero pattern's support mask
with power 0 and builds no character.
"""

from __future__ import annotations

import math
from types import MappingProxyType

from .errors import EpimorphismError, SchemaError
from .flag_homology import (ChainComplexFp, link_complex,
                            mask_reduced_homology, reduced_homology)
from .fpmatrix import check_prime
from .frozen import Frozen
from .graph import (SimplicialGraph, check_vertex_set, clique_masks,
                    components, enumerate_cliques)

INFINITE = math.inf
_ZERO_CHARACTER = "character is identically zero: not an epimorphism"


class Character(Frozen):
    """A prime p and one integer value per vertex.

    ``values`` is a read-only view of a private copy of the mapping
    given, so the caller's dict may change without changing chi.
    """

    __slots__ = ("p", "values")

    def __init__(self, p: int, values):
        check_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "values", MappingProxyType(dict(values)))

    def __reduce__(self):
        return Character, (self.p, dict(self.values))

    def support(self, g: SimplicialGraph) -> tuple:
        """The vertices of g where chi is nonzero, in g's vertex order."""
        self.require_defined_on(g)
        return tuple(v for v in g.vertices if self.values[v] != 0)

    def require_defined_on(self, g: SimplicialGraph):
        for v in g.vertices:
            if v not in self.values:
                raise SchemaError(f"character undefined on vertex: {v!r}")

    def document(self) -> dict:
        return {"p": self.p, "chi": dict(self.values)}


def parse_character(document) -> Character:
    if not isinstance(document, dict):
        raise SchemaError("character document must be a JSON object")
    p = document.get("p")
    chi = document.get("chi")
    if type(p) is not int:
        raise SchemaError('"p" must be an integer prime')
    if not isinstance(chi, dict) or not all(type(v) is int for v in chi.values()):
        raise SchemaError('"chi" must map vertices to integers')
    try:
        return Character(p, chi)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _valuation(n: int, p: int) -> int:
    n = abs(n)
    t = 0
    while n % p == 0:
        n //= p
        t += 1
    return t


def require_epimorphism(g: SimplicialGraph, chi: Character) -> tuple:
    """``(support, t)``: chi's support on g and the largest t with p**t
    dividing every value.

    chi / p**t hits a p-adic unit, so it is an epimorphism with the same
    kernel and support.  The identically zero character has no such
    rescale and raises EpimorphismError.
    """
    supp = chi.support(g)
    if not supp:
        raise EpimorphismError(_ZERO_CHARACTER)
    return supp, min(_valuation(chi.values[v], chi.p) for v in supp)


def connected_and_dominant(g: SimplicialGraph, vset: int) -> tuple:
    """Whether the subgraph on the vertex set vset (a bitmask of g's
    positions) is connected, and whether every vertex outside it has a
    neighbor in it.  The empty set counts as not connected; a vset that
    is not a set of g's positions raises SchemaError."""
    adj = g.masks
    check_vertex_set(vset, len(adj))
    return (len(components(adj, vset)) == 1,
            all(adj[i] & vset for i in range(len(adj)) if not vset >> i & 1))


def is_fg(g: SimplicialGraph, chi: Character) -> bool:
    """Finite generation of the character kernel.

    Holds iff the support subgraph is connected and dominant (every
    outside vertex has a neighbor in the support).
    """
    supp, _ = require_epimorphism(g, chi)
    return all(connected_and_dominant(g, g.mask(supp)))


def character_complex(g: SimplicialGraph, chi: Character) -> ChainComplexFp:
    """The support complex of the character over F_p.

    Degree n has one basis element per clique of size n (note: clique
    cardinality, one more than the simplex dimension), starting with
    the empty clique in degree 0, each clique a bitmask of g's
    positions.  The boundary of a clique removes only its support
    vertices, so h_0 is 1 exactly when the support is empty.
    """
    return ChainComplexFp(clique_masks(g.masks, (1 << len(g)) - 1), chi.p,
                          0, g.mask(chi.support(g)))


def outside_cliques(g: SimplicialGraph, support) -> list:
    """Cliques of g whose members all avoid ``support``, by size, each
    size in lexicographic order of vertex positions."""
    rest = (1 << len(g)) - 1 & ~g.mask(support)
    return [c for group in enumerate_cliques(g, rest) for c in group]


def link_homology_table(g: SimplicialGraph, supp: int, p: int) -> dict:
    """Reduced homology dims of every outside clique's restricted link,
    for the support given as a bitmask of g's positions.

    The link of S is the support mask ANDed with the adjacency masks of
    S's members; its homology is that of its strong collapse, so the
    degrees listed for a link may stop below its dimension (the missing
    ones are 0).  Links with the same core share one read-only memo entry.
    The keys come in ``outside_cliques`` order: by size, then by vertex
    positions, which is the order reports list them in.
    """
    adj = dict(zip(g.vertices, g.masks))
    table = {}
    for group in enumerate_cliques(g, (1 << len(g)) - 1 & ~supp):
        for s in group:
            link = supp
            for v in s:
                link &= adj[v]
            table[s] = mask_reduced_homology(g, link, p)
    return table


def homology_from_links(g: SimplicialGraph, links: dict) -> dict:
    """Support-complex homology dims, degrees 1 .. the largest clique
    size of g, read off g's link_homology_table.

    Block S contributes its link's reduced homology in degree n-1-|S|
    to degree n.  A largest clique of g is an outside part S together
    with a largest clique of the link of S, so no block has chains
    above that degree; the collapsed links in the table may stop lower.
    """
    h = dict.fromkeys(range(1, g._clique_number() + 1), 0)
    for s, dims in links.items():
        for d, dim in dims.items():
            if dim and d + 1 + len(s) in h:
                h[d + 1 + len(s)] += dim
    return h


def _level(h: dict):
    """Largest n with h vanishing in degrees 1..n, inf if none is nonzero."""
    return next((n - 1 for n, dim in h.items() if dim), INFINITE)


def fp_via_complex(g: SimplicialGraph, chi: Character, n: int) -> bool:
    """FP_n via the support complex: homology zero in degrees 1..n.

    Degrees above the largest clique size carry no chains and vanish
    automatically.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    require_epimorphism(g, chi)
    h = character_complex(g, chi).homology()
    return all(h.get(i, 0) == 0 for i in range(1, n + 1))


def fp_via_links(g: SimplicialGraph, chi: Character, n: int) -> bool:
    """FP_n via links: every outside clique S with |S| <= n has an
    (n-1-|S|)-acyclic restricted link.

    Size-n cliques enter at acyclicity level -1, i.e. their restricted
    link must be nonempty; at n = 1 that is exactly dominance of the
    support, and the S = () case is its connectivity.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    supp, _ = require_epimorphism(g, chi)
    for s in outside_cliques(g, supp):
        if len(s) <= n:
            h = reduced_homology(link_complex(g, supp, s), chi.p)
            if any(h.get(i, 0) for i in range(-1, n - len(s))):
                return False
    return True


def _decomposition(rows) -> dict:
    """The report's decomposition block from (degree, complex dim, link
    sum) triples."""
    degrees = [{"degree": n, "complex_dim": c, "links_sum": s, "match": c == s}
               for n, c, s in rows]
    return {"ok": all(r["match"] for r in degrees), "degrees": degrees}


def decomposition_check(g: SimplicialGraph, chi: Character) -> dict:
    """Per-degree identity: support-complex homology against link sums.

    For each degree n from 1 to the largest clique size, the dimension
    of the degree-n homology of the support complex must equal the sum
    over outside cliques S with |S| <= n of the reduced link homology
    in degree n-1-|S|.  No surjectivity is needed; this is a chain
    level identity and holds for the zero character as well.  This is
    the oracle for the link table that ``analyze`` reads: it builds the
    unsplit support complex.  Returns the report's ``{"ok", "degrees"}``
    decomposition block.
    """
    cx = character_complex(g, chi)
    h = cx.homology()
    links = link_homology_table(g, g.mask(chi.support(g)), chi.p)
    sums = homology_from_links(g, links)
    return _decomposition((n, h.get(n, 0), sums.get(n, 0))
                          for n in range(1, cx.hi + 1))


def max_fp(g: SimplicialGraph, chi: Character):
    """Largest n with FP_n, as an integer, or inf when every degree
    up to the largest clique size vanishes.  A surjective character
    with non-finitely-generated kernel reports 0."""
    supp, _ = require_epimorphism(g, chi)
    links = link_homology_table(g, g.mask(supp), chi.p)
    return _level(homology_from_links(g, links))


def analyze(g: SimplicialGraph, chi: Character, max_n: int | None = None
            ) -> dict:
    """The ``fpn`` report's results for one character: ``fpn_results``
    for its support and the power of p it is rescaled by.  Degrees run
    from 1 to max_n (default: the largest clique size of the graph)."""
    if max_n is not None and max_n < 1:
        raise ValueError("n must be >= 1")
    supp, t = require_epimorphism(g, chi)
    return fpn_results(g, g.mask(supp), chi.p, t, max_n)


def fpn_results(g: SimplicialGraph, support: int, p: int, t: int,
                max_n: int | None = None) -> dict:
    """The ``fpn`` report's results for the kernel of any epimorphism
    with support ``support`` (a bitmask of g's positions) at the prime
    p, rescaled by p**t: finite generation, both FP_n routes per
    degree, the decomposition identity and the maximal FP level
    (``"inf"`` when every degree vanishes), all read off one
    link-homology table.  Degrees run from 1 to max_n (default: the
    largest clique size of the graph).  Only the zero pattern matters,
    so the support decides everything but ``rescaled_by_power``; the
    empty support is the zero character's and raises EpimorphismError.
    """
    if not support:
        raise EpimorphismError(_ZERO_CHARACTER)
    links = link_homology_table(g, support, p)
    h = homology_from_links(g, links)
    upto = len(h) if max_n is None else max_n

    rows = []
    fp_c = fp_l = True
    for n in range(1, upto + 1):
        link_rows = [{"clique": list(s), "level": n - 1 - len(s),
                      "dim": dims.get(n - 1 - len(s), 0)}
                     for s, dims in links.items() if len(s) <= n]
        # FP_n needs every degree up to n: the complex column reads the
        # block sums, the link column each block's own level
        fp_c = fp_c and h.get(n, 0) == 0
        fp_l = fp_l and not any(r["dim"] for r in link_rows)
        rows.append({"clique_size": n, "simplex_dim": n - 1,
                     "fp_complex": fp_c, "fp_links": fp_l,
                     "complex_homology_dim": h.get(n, 0),
                     "links": link_rows})

    level = _level(h)
    # fg is FP_1: h_1 = 0 says the S = () link is nonempty and connected
    # and every outside vertex has a nonempty link.  Both sides of the
    # identity come from the same table here; the unsplit complex is
    # compared with it only in decomposition_check
    return {"p": p, "support": list(g.members(support)),
            "rescaled_by_power": t, "fg": h[1] == 0, "degrees": rows,
            "max_fp": "inf" if level == INFINITE else level,
            "routes_agree": all(r["fp_complex"] == r["fp_links"] for r in rows),
            "decomposition": _decomposition((n, d, d) for n, d in h.items())}

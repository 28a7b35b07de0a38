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
homology after a strong collapse (``flag_homology.mask_reduced_homology``),
so a link's entry may list fewer degrees than the link has; the top
degree of the support complex is therefore the largest clique size of
the graph, not a link's top.  The unsplit support complex
(``character_complex``) and the uncollapsed links (``link_complex``) are
built only by the oracles ``fp_via_complex``, ``fp_via_links`` and
``decomposition_check``, which the verify suites and the tests run
against the link table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EpimorphismError, SchemaError
# reduced_homology, the tuple-route oracle, is not called here; the
# binding stays because perfbench/spans.py wraps it
from .flag_homology import (ChainComplexFp, is_k_acyclic, link_complex,
                            mask_reduced_homology, reduced_homology)
from .fpmatrix import MatrixFp, check_prime
from .graph import SimplicialGraph, clique_number, enumerate_cliques, \
    induced_subgraph, is_connected, is_dominant

INFINITE = math.inf


@dataclass(frozen=True)
class Character:
    """A prime p and one integer value per vertex."""

    p: int
    values: dict

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "values", dict(self.values))

    def support(self, g: SimplicialGraph) -> frozenset:
        self.require_defined_on(g)
        return frozenset(v for v in g.vertices if self.values[v] != 0)

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
        return Character(p, dict(chi))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


@dataclass(frozen=True)
class SurjectivityCheck:
    surjective: bool            # the original character hits a p-adic unit
    normalized: Character       # p-power rescaled character, same kernel
    rescaled_by_power: int      # t with normalized = chi / p**t


def check_surjective(g: SimplicialGraph, chi: Character) -> SurjectivityCheck:
    """Detect surjectivity onto the p-adics and rescale if repairable.

    If every nonzero value is divisible by p, dividing all values by the
    minimal p-power makes the character surjective without changing its
    kernel.  The identically zero character cannot be repaired.
    """
    chi.require_defined_on(g)
    p = chi.p
    vals = [chi.values[v] for v in g.vertices if chi.values[v] != 0]
    if not vals:
        return SurjectivityCheck(False, chi, 0)
    t = min(_valuation(v, p) for v in vals)
    if t == 0:
        return SurjectivityCheck(True, chi, 0)
    scaled = {v: (c // p ** t if c else 0) for v, c in chi.values.items()}
    return SurjectivityCheck(False, Character(p, scaled), t)


def _valuation(n: int, p: int) -> int:
    n = abs(n)
    t = 0
    while n % p == 0:
        n //= p
        t += 1
    return t


def require_epimorphism(g: SimplicialGraph, chi: Character) -> SurjectivityCheck:
    """check_surjective, refusing the identically zero character."""
    check = check_surjective(g, chi)
    if not check.surjective and check.rescaled_by_power == 0:
        raise EpimorphismError("character is identically zero: not an epimorphism")
    return check


def connected_and_dominant(g: SimplicialGraph, supp) -> tuple:
    """Whether the subgraph on supp is connected, and whether every
    vertex outside supp has a neighbor in it."""
    return is_connected(induced_subgraph(g, supp)), is_dominant(g, supp)


def is_fg(g: SimplicialGraph, chi: Character) -> bool:
    """Finite generation of the character kernel.

    Holds iff the support subgraph is connected and dominant (every
    outside vertex has a neighbor in the support).
    """
    supp = require_epimorphism(g, chi).normalized.support(g)
    return all(connected_and_dominant(g, supp))


def character_complex(g: SimplicialGraph, chi: Character) -> ChainComplexFp:
    """The support complex of the character over F_p.

    Degree n has one basis element per clique of size n (note: clique
    cardinality, one more than the simplex dimension).  The boundary of
    a clique keeps only the removal terms for vertices with nonzero
    character value, with sign (-1)**(i-1) for 1-based position i.
    Degree -1 is a single copy of F_p receiving the empty clique under
    the augmentation; the chain condition and homology start at
    degree 1 (the augmentation rung is not squared against d_1).
    """
    chi.require_defined_on(g)
    p = chi.p
    groups = enumerate_cliques(g, len(g.vertices))
    while len(groups) > 1 and not groups[-1]:
        groups.pop()
    top = len(groups) - 1
    dims = {-1: 1}
    for n in range(0, top + 1):
        dims[n] = len(groups[n])
    boundaries = {0: MatrixFp.from_columns(1, p, [{0: 1}])}
    for n in range(1, top + 1):
        index_below = {c: i for i, c in enumerate(groups[n - 1])}
        signs = [1 if pos % 2 == 0 else p - 1 for pos in range(n)]
        boundaries[n] = MatrixFp.from_columns(dims[n - 1], p, [
            {index_below[clique[:pos] + clique[pos + 1:]]: sign
             for pos, sign in enumerate(signs) if chi.values[clique[pos]] != 0}
            for clique in groups[n]])
    return ChainComplexFp(p, -1, top, dims, boundaries, chain_floor=1)


def outside_cliques(g: SimplicialGraph, support) -> list:
    """Cliques of g whose members all avoid ``support``, every size."""
    rest = [v for v in g.vertices if v not in support]
    sub = induced_subgraph(g, rest)
    groups = enumerate_cliques(sub, len(rest))
    return [c for group in groups for c in group]


def link_homology_table(g: SimplicialGraph, support, p: int) -> dict:
    """Reduced homology dims of every outside clique's restricted link.

    The link of S is the support mask ANDed with the adjacency masks of
    S's members; its homology is that of its strong collapse, so the
    degrees listed for a link may stop below its dimension (the missing
    ones are 0).
    """
    adj = g.masks
    supp = g.mask(support)
    table = {}
    for s in outside_cliques(g, support):
        link = supp
        for v in s:
            link &= adj[g.index(v)]
        table[s] = mask_reduced_homology(adj, link, p)
    return table


def homology_from_links(g: SimplicialGraph, links: dict) -> dict:
    """Support-complex homology dims, degrees 1 .. the largest clique
    size of g, read off g's link_homology_table.

    Block S contributes its link's reduced homology in degree n-1-|S|
    to degree n.  A largest clique of g is an outside part S together
    with a largest clique of the link of S, so no block has chains
    above that degree; the collapsed links in the table may stop lower.
    """
    top = clique_number(g.masks, (1 << len(g)) - 1)
    return {n: sum(dims.get(n - 1 - len(s), 0) for s, dims in links.items())
            for n in range(1, top + 1)}


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
    check = require_epimorphism(g, chi)
    h = character_complex(g, check.normalized).homology()
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
    check = require_epimorphism(g, chi)
    supp = check.normalized.support(g)
    for s in outside_cliques(g, supp):
        if len(s) <= n and not is_k_acyclic(link_complex(g, supp, s), chi.p,
                                            n - 1 - len(s)):
            return False
    return True


@dataclass(frozen=True)
class DecompositionRow:
    degree: int
    complex_dim: int
    links_sum: int

    @property
    def match(self) -> bool:
        return self.complex_dim == self.links_sum


@dataclass(frozen=True)
class DecompositionReport:
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(r.match for r in self.rows)


def decomposition_check(g: SimplicialGraph, chi: Character) -> DecompositionReport:
    """Per-degree identity: support-complex homology against link sums.

    For each degree n from 1 to the largest clique size, the dimension
    of the degree-n homology of the support complex must equal the sum
    over outside cliques S with |S| <= n of the reduced link homology
    in degree n-1-|S|.  No surjectivity is needed; this is a chain
    level identity and holds for the zero character as well.  This is
    the oracle for the link table that ``analyze`` reads: it builds the
    unsplit support complex.
    """
    cx = character_complex(g, chi)
    h = cx.homology()
    links = link_homology_table(g, chi.support(g), chi.p)
    sums = homology_from_links(g, links)
    return DecompositionReport(tuple(
        DecompositionRow(n, h.get(n, 0), sums.get(n, 0))
        for n in range(1, cx.hi + 1)))


def max_fp(g: SimplicialGraph, chi: Character):
    """Largest n with FP_n, as an integer, or inf when every degree
    up to the largest clique size vanishes.  A surjective character
    with non-finitely-generated kernel reports 0."""
    check = require_epimorphism(g, chi)
    supp = check.normalized.support(g)
    return _level(homology_from_links(g, link_homology_table(g, supp, chi.p)))


@dataclass(frozen=True)
class DegreeRow:
    clique_size: int            # degree in the support complex
    simplex_dim: int            # clique_size - 1
    fp_complex: bool
    fp_links: bool
    complex_homology_dim: int
    link_dims: dict             # outside clique -> link dim at this degree

    def document(self, g: SimplicialGraph) -> dict:
        links = [{"clique": list(s),
                  "level": self.clique_size - 1 - len(s),
                  "dim": d}
                 for s, d in sorted(self.link_dims.items(),
                                    key=lambda kv: (len(kv[0]),
                                                    tuple(map(g.index, kv[0]))))]
        return {"clique_size": self.clique_size,
                "simplex_dim": self.simplex_dim,
                "fp_complex": self.fp_complex,
                "fp_links": self.fp_links,
                "complex_homology_dim": self.complex_homology_dim,
                "links": links}


@dataclass(frozen=True)
class FpnReport:
    """Everything the analysis of one character produces."""

    p: int
    support: tuple
    fg: bool
    rescaled_by_power: int
    degrees: tuple
    max_fp: object              # int or math.inf
    decomposition: DecompositionReport
    graph: SimplicialGraph = field(compare=False)

    @property
    def routes_agree(self) -> bool:
        return all(r.fp_complex == r.fp_links for r in self.degrees)

    def document(self) -> dict:
        return {
            "p": self.p,
            "support": list(self.support),
            "rescaled_by_power": self.rescaled_by_power,
            "fg": self.fg,
            "degrees": [r.document(self.graph) for r in self.degrees],
            "max_fp": "inf" if self.max_fp == INFINITE else self.max_fp,
            "routes_agree": self.routes_agree,
            "decomposition": {
                "ok": self.decomposition.ok,
                "degrees": [{"degree": r.degree,
                             "complex_dim": r.complex_dim,
                             "links_sum": r.links_sum,
                             "match": r.match}
                            for r in self.decomposition.rows]},
        }


def analyze(g: SimplicialGraph, chi: Character, max_n: int | None = None
            ) -> FpnReport:
    """Full report for one character: finite generation, both FP_n
    routes per degree, the decomposition identity and the maximal FP
    level, all read off one link-homology table.  Degrees run from 1 to
    max_n (default: the largest clique size of the graph)."""
    if max_n is not None and max_n < 1:
        raise ValueError("n must be >= 1")
    check = require_epimorphism(g, chi)
    supp = check.normalized.support(g)
    links = link_homology_table(g, supp, chi.p)
    h = homology_from_links(g, links)
    upto = len(h) if max_n is None else max_n

    rows = []
    fp_c = fp_l = True
    for n in range(1, upto + 1):
        link_dims = {s: dims.get(n - 1 - len(s), 0)
                     for s, dims in links.items() if len(s) <= n}
        # FP_n needs every degree up to n: the complex column reads the
        # block sums, the link column each block's own level
        fp_c = fp_c and h.get(n, 0) == 0
        fp_l = fp_l and not any(link_dims.values())
        rows.append(DegreeRow(n, n - 1, fp_c, fp_l, h.get(n, 0), link_dims))

    # both sides of the identity come from the same table here; the
    # unsplit complex is compared with it only in decomposition_check
    deco = DecompositionReport(tuple(DecompositionRow(n, dim, dim)
                                     for n, dim in h.items()))
    # fg is FP_1: h_1 = 0 says the S = () link is nonempty and connected
    # and every outside vertex has a nonempty link
    return FpnReport(p=chi.p, support=g.sorted(supp), fg=h[1] == 0,
                     rescaled_by_power=check.rescaled_by_power,
                     degrees=tuple(rows), max_fp=_level(h),
                     decomposition=deco, graph=g)

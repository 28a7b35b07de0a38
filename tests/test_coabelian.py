import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from pathlib import Path

import examples
import pytest
from graphref import is_connected, is_dominant
from test_fpcheck import planted_torsion

from raagfp import cli, coabelian, fpcheck
from raagfp.coabelian import (CoabelianSpec, ZeroPattern, _subset_tree,
                              enumerate_patterns, fg_coabelian, fpn_coabelian,
                              is_full, matrix_rank, parse_matrix)
from raagfp.errors import EpimorphismError, FiniteQuotientError, SchemaError
from raagfp.graph import (SimplicialGraph, graph_document, induced_subgraph,
                          join_factors, parse_graph)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def spec_for(g, rows, p=2):
    return CoabelianSpec(p, tuple(tuple(r) for r in rows), tuple(g.vertices))


def random_spec(rng, n, k, bound=3):
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    rows = tuple(tuple(rng.randint(-bound, bound) for _ in range(n))
                 for _ in range(k))
    return CoabelianSpec(2, rows, vertices)


def dependent_spec(rng, n, k):
    """A random spec whose columns often repeat up to a factor or vanish."""
    m = random_spec(rng, n, k, bound=rng.choice((1, 2, 3)))
    if n >= 2 and rng.random() < 0.4:
        rows = [list(r) for r in m.rows]
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for r in rows:
            r[i] = r[j] * c
            if rng.random() < 0.3:
                r[rng.randrange(n)] = 0
        m = CoabelianSpec(2, tuple(map(tuple, rows)), m.vertices)
    return m


# exact elimination against a rational oracle

def frac_rref(rows):
    """Reduced row echelon form over the rationals: (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def frac_rank(rows):
    return len(frac_rref(rows)[1])


def rational_closure(cols, subset) -> tuple:
    """Positions of the columns in the rational span of the subset's
    columns: each column reduced by the subset's rational RREF."""
    rref, pivots = frac_rref([cols[j] for j in subset])
    closed = []
    for j, col in enumerate(cols):
        rest = [Fraction(x) for x in col]
        for row, c in zip(rref, pivots):
            f = rest[c]
            rest = [a - f * b for a, b in zip(rest, row)]
        if not any(rest):
            closed.append(j)
    return tuple(closed)


def rational_tree(cols, width) -> dict:
    """Every independent subset of the columns (width entries each) of
    size below width, with its closure: each one grown from a smaller
    one by a column outside its rational span.  One of size width spans
    every column, so none is grown that far."""
    tree, todo = {}, [()]
    while todo:
        subset = todo.pop()
        tree[subset] = closed = rational_closure(cols, subset)
        if len(subset) + 1 < width:
            todo.extend(subset + (j,) for j in range(len(cols))
                        if j not in closed and j > max(subset, default=-1))
    return tree


def test_integer_elimination_against_rational_oracle():
    # the rank is the number of steps of a greedy path down the subset
    # tree, on the matrix and on its transpose; the rows of a system are
    # the columns the subset tree walks: it visits exactly the
    # independent subsets that leave a carried vector, each with the
    # closure the rational rank gives and carrying width - size
    # vectors, whose carried dots are their dots with every row
    rng = random.Random("bareiss")
    for _ in range(400):
        nr = rng.randint(0, 6)
        nc = rng.randint(0, 6)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        if nr >= 2 and rng.random() < 0.5:     # inject dependent rows
            i, j = rng.randrange(nr), rng.randrange(nr)
            if i != j:
                rows[i] = [a * rng.randint(-2, 2) for a in rows[j]]
        rank = frac_rank(rows)
        transpose = [[row[j] for row in rows] for j in range(nc)]
        assert matrix_rank(CoabelianSpec(2, rows, range(nc))) == rank
        assert matrix_rank(CoabelianSpec(2, transpose, range(nr))) == rank
        visits = list(_subset_tree(rows, nc))
        tree = {subset: closure for subset, _, closure in visits}
        assert len(tree) == len(visits) and tree == rational_tree(rows, nc)
        assert max(map(len, tree)) == min(rank, max(nc - 1, 0))
        for subset, carried, closure in visits:
            assert len(carried) == nc - len(subset)
            for r in carried:
                assert r[nc:] == [sum(x * y for x, y in zip(r, row))
                                  for row in rows]


def nullspace_fraction(rows, width):
    """Rational back substitution, then the lcm of the denominators: the
    reference for the integer nullspace bases the subset tree carries."""
    ech, pivots = frac_rref(rows)
    rank = len(pivots)
    free = [j for j in range(width) if j not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * width
        x[f] = Fraction(1)
        for i in range(rank - 1, -1, -1):
            c = pivots[i]
            s = sum((Fraction(ech[i][j]) * x[j] for j in range(c + 1, width)),
                    Fraction(0))
            x[c] = -s / ech[i][c]
        scale = 1
        for q in x:
            scale = scale * q.denominator // gcd(scale, q.denominator)
        basis.append(tuple(int(q * scale) for q in x))
    return basis


def carried_basis(carried, width):
    return [tuple(r[:width]) for r in carried]


def test_nullspace_against_rational_back_substitution():
    rng = random.Random("nullspace")
    checked = 0
    for _ in range(1500):
        width = rng.randint(1, 5)
        nr = rng.randint(0, 5)
        rows = [[rng.randint(-7, 7) for _ in range(width)] for _ in range(nr)]
        if nr and rng.random() < 0.3:           # a zero row
            rows[rng.randrange(nr)] = [0] * width
        if nr >= 2 and rng.random() < 0.5:      # a dependent row
            i, j, t = rng.randrange(nr), rng.randrange(nr), rng.randrange(nr)
            rows[i] = [rng.randint(-3, 3) * a + rng.randint(-3, 3) * b
                       for a, b in zip(rows[j], rows[t])]
        for subset, carried, closure in _subset_tree(rows, width):
            basis = carried_basis(carried, width)
            assert basis == nullspace_fraction([rows[j] for j in subset], width)
            # and that of its closure, dependent rows included
            if len(closure) > len(subset):
                assert basis == nullspace_fraction([rows[j] for j in closure],
                                                   width)
            free = [max(j for j, x in enumerate(b) if x) for b in basis]
            for b, f in zip(basis, free):
                assert all(type(x) is int for x in b)
                g = 0
                for x in b:
                    g = gcd(g, x)
                assert g == 1                   # primitive
                assert b[f] > 0 and not any(b[e] for e in free if e != f)
            checked += len(basis)
    assert checked > 1000


# span closure, through the closures the subset tree carries

def subset_tree(m) -> dict:
    """Every independent column subset of size below k -> (carried rows,
    closure)."""
    cols = [m.column(v) for v in m.vertices]
    return {s: (rows, closure)
            for s, rows, closure in _subset_tree(cols, m.k)}


def tree_node(m, tree, subset) -> tuple:
    """(carried rows, closure) at an independent subset.  The tree stops
    at one carried row: a subset of size k carries none and its closure
    is every column."""
    if len(subset) == m.k:
        return [], tuple(range(len(m.vertices)))
    return tree[subset]


def greedy_subset(m, tree, z) -> tuple:
    """The independent subset of z's columns that adds each column not
    yet in the closure, in vertex order: a path down the subset tree."""
    subset = ()
    for j, v in enumerate(m.vertices):
        if v in z and j not in tree_node(m, tree, subset)[1]:
            subset += (j,)
    return subset


def span_closure(m, z) -> frozenset:
    """Vertices whose column lies in the rational span of the columns
    of the vertex set z: the closure the subset tree carries at z's
    greedy subset."""
    tree = subset_tree(m)
    closure = tree_node(m, tree, greedy_subset(m, tree, z))[1]
    return frozenset(m.vertices[j] for j in closure)


def test_span_closure_examples():
    g = examples.edgeless(2)
    ident = spec_for(g, [[1, 0], [0, 1]])
    assert span_closure(ident, set()) == frozenset()
    assert span_closure(ident, {"v2"}) == {"v2"}
    assert span_closure(ident, {"v1", "v2"}) == {"v1", "v2"}
    line = spec_for(g, [[1, 1]])
    assert span_closure(line, set()) == frozenset()
    assert span_closure(line, {"v1"}) == {"v1", "v2"}
    with_zero = spec_for(g, [[1, 0], [0, 0]])
    assert span_closure(with_zero, set()) == {"v2"}
    no_rows = CoabelianSpec(2, [], g.vertices)
    assert span_closure(no_rows, set()) == {"v1", "v2"}


def test_span_closure_against_rational_rank():
    # v lies in the closure of z iff adding its column keeps the rank
    rng = random.Random("closure-rank")
    for _ in range(150):
        m = dependent_spec(rng, rng.randint(1, 7), rng.randint(1, 4))
        z = {v for v in m.vertices if rng.random() < 0.4}
        inside = [m.column(v) for v in z]
        rank = frac_rank(inside)
        closed = span_closure(m, z)
        for v in m.vertices:
            assert (v in closed) == (frac_rank(inside + [m.column(v)]) == rank)


def test_nullspace_depends_only_on_the_span():
    # a pattern's certificate is built from the basis of the first subset
    # reaching its closure, so the bytes rely on every subset reaching a
    # flat carrying that flat's basis
    rng = random.Random("canonical-basis")
    compared = 0
    for _ in range(300):
        m = dependent_spec(rng, rng.randint(1, 7), rng.randint(1, 4))
        cols = [m.column(v) for v in m.vertices]
        first = {}
        for subset, carried, closure in _subset_tree(cols, m.k):
            basis = carried_basis(carried, m.k)
            first.setdefault(closure, basis)
            assert basis == first[closure] == \
                nullspace_fraction([cols[j] for j in closure], m.k)
            compared += len(closure) > len(subset)
        z = rng.sample(m.vertices, rng.randint(0, len(m.vertices)))
        tree = subset_tree(m)
        carried = tree_node(m, tree, greedy_subset(m, tree, z))[0]
        assert carried_basis(carried, m.k) == \
            nullspace_fraction([m.column(v) for v in z], m.k)
    assert compared > 50


def test_span_closure_matroid_laws():
    rng = random.Random("closure")
    for _ in range(30):
        m = random_spec(rng, rng.randint(1, 6), rng.randint(1, 3))
        vs = list(m.vertices)
        a = {v for v in vs if rng.random() < 0.4}
        b = a | {v for v in vs if rng.random() < 0.3}
        ca = span_closure(m, a)
        assert a <= ca                         # extensive
        assert span_closure(m, ca) == ca       # idempotent
        assert ca <= span_closure(m, b)        # monotone


# pattern enumeration

def test_enumerate_patterns_examples():
    g2 = examples.edgeless(2)
    pats = enumerate_patterns(spec_for(g2, [[1, 0], [0, 1]]))
    assert [p.zero_set for p in pats] == [(), ("v1",), ("v2",)]

    k2 = examples.path(2)
    pats = enumerate_patterns(spec_for(k2, [[1, 1]]))
    assert [p.zero_set for p in pats] == [()]

    g3 = examples.path(3)
    pats = enumerate_patterns(spec_for(g3, [[3, 0, -6]]))
    assert [p.zero_set for p in pats] == [("v2",)]  # k=1: the zero columns


def rref_nullspace(rref, pivots, width):
    """The primitive integer nullspace vector with x[f] > 0 and zeros at
    the other free columns, per free column f, read off a rational RREF."""
    basis = []
    for f in (j for j in range(width) if j not in pivots):
        x = [Fraction(0)] * width
        x[f] = Fraction(1)
        for row, c in zip(rref, pivots):
            x[c] = -row[f]
        scale = 1
        for q in x:
            scale = scale * q.denominator // gcd(scale, q.denominator)
        ints = [int(q * scale) for q in x]
        g = 0
        for a in ints:
            g = gcd(g, a)
        basis.append(tuple(a // g for a in ints))
    return basis


def reference_patterns(m):
    """Closures of every column subset of size up to the rank, certified
    by a search over rational nullspace combinations: the reference for
    enumerate_patterns, which stops one size below the rank.  Rational
    RREF only, sharing no code with the integer nullspace route."""
    n = len(m.vertices)
    cols = [m.column(v) for v in m.vertices]
    seen = set()
    for size in range(0, frac_rank(m.rows) + 1):
        for subset in combinations(range(n), size):
            closed = rational_closure(cols, subset)
            if len(closed) < n:
                seen.add(frozenset(closed))
    out = []
    for zs in sorted(seen, key=lambda s: (len(s), sorted(s))):
        basis = rref_nullspace(*frac_rref([cols[j] for j in sorted(zs)]), m.k)
        for t in range(1, 10000):
            lam = tuple(sum(t ** i * b[j] for i, b in enumerate(basis))
                        for j in range(m.k))
            if all(sum(a * b for a, b in zip(lam, cols[j]))
                   for j in range(n) if j not in zs):
                break
        out.append(ZeroPattern(tuple(m.vertices[j] for j in sorted(zs)), lam))
    return out


def test_enumerate_patterns_against_subsets_up_to_the_rank():
    rng = random.Random("below-rank")
    compared = 0
    for _ in range(120):
        m = dependent_spec(rng, rng.randint(1, 8), rng.randint(1, 4))
        if matrix_rank(m) == 0:
            continue
        assert enumerate_patterns(m) == reference_patterns(m)
        compared += 1
    assert compared > 100


def test_enumerate_patterns_rank_zero():
    g = examples.path(2)
    with pytest.raises(FiniteQuotientError):
        enumerate_patterns(spec_for(g, [[0, 0]]))


def test_repeated_enumeration_returns_equal_lists():
    rng = random.Random("memo")
    for _ in range(20):
        m = dependent_spec(rng, rng.randint(1, 6), rng.randint(1, 3))
        if matrix_rank(m) == 0:
            continue
        first = enumerate_patterns(m)
        second = enumerate_patterns(m)
        assert second == first and second is not first
        assert first == enumerate_patterns(CoabelianSpec(m.p, m.rows,
                                                         m.vertices))


def test_mutating_a_returned_list_leaves_the_next_result_alone():
    rows = [[1, 0, 1], [0, 1, 1]]
    m = spec_for(examples.edgeless(3), rows)
    want = enumerate_patterns(spec_for(examples.edgeless(3), rows))
    got = enumerate_patterns(m)
    got.pop()
    got.reverse()
    got.append(ZeroPattern(("v9",), (0, 0)))
    assert enumerate_patterns(m) == want


def test_an_enumerated_spec_equals_and_hashes_like_a_fresh_one():
    g = examples.cycle(4)
    rows = [[1, 1, 0, 0], [0, 1, 1, 1]]
    used, fresh = spec_for(g, rows), spec_for(g, rows)
    enumerate_patterns(used)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert used.document() == fresh.document()
    assert {used: 1}[fresh] == 1


def test_a_rank_zero_spec_raises_on_every_call():
    # the rank is 0 when the walk finds no proper closure, also with no
    # rows at all; nothing is kept on the spec
    g = examples.path(3)
    for m in (spec_for(g, [[0, 0, 0], [0, 0, 0]]),
              CoabelianSpec(2, [], g.vertices)):
        assert matrix_rank(m) == 0
        for _ in range(3):
            with pytest.raises(FiniteQuotientError,
                               match="matrix has rank 0: the quotient is "
                                     "finite, no rank-one quotients"):
                enumerate_patterns(m)
            assert m._patterns is None


def test_one_coabelian_command_enumerates_the_patterns_once(
        tmp_path, monkeypatch, capsys):
    g = examples.cycle(5)
    rows = [[1, 0, 0, 1, 2], [0, 1, 0, 1, -1], [0, 0, 1, 0, 3]]
    gp, mp = tmp_path / "g.json", tmp_path / "m.json"
    gp.write_text(json.dumps(graph_document(g)))
    mp.write_text(json.dumps({"p": 3, "rows": rows}))
    visits = []

    def counting(*args):
        for visit in real(*args):
            visits.append(visit[0])
            yield visit

    real = coabelian._subset_tree
    monkeypatch.setattr(coabelian, "_subset_tree", counting)
    cli.main(["coabelian", str(gp), str(mp), "--max-n", "1"])
    results = json.loads(capsys.readouterr().out)["results"]
    # fg, fp and the fullness note each read the patterns
    assert "fp" in results and results["fullness"]["full"]
    rank, n = 3, len(g)
    assert len(visits) == sum(comb(n, s) for s in range(rank))
    assert len(set(visits)) == len(visits)


def test_certificates_are_exact():
    rng = random.Random("certs")
    for _ in range(25):
        m = random_spec(rng, rng.randint(1, 7), rng.randint(1, 3))
        if matrix_rank(m) == 0:
            continue
        for pat in enumerate_patterns(m):
            zs = set(pat.zero_set)
            for v in m.vertices:
                dot = sum(a * b for a, b in zip(pat.certificate, m.column(v)))
                assert (dot == 0) == (v in zs)


def test_certificate_search_bound_is_tight():
    # the empty pattern carries the unit vectors, so its lam is (1, t),
    # with dot t - j at column j: t = 1 .. m all fail, and the first good
    # t is m + 1, the last value the search tries
    for m in range(1, 7):
        spec = CoabelianSpec(2, [range(-1, -m - 1, -1), [1] * m],
                             [f"v{j}" for j in range(1, m + 1)])
        empty = enumerate_patterns(spec)[0]
        assert empty.zero_set == () and empty.certificate == (1, m + 1)


def test_patterns_complete_against_sampling():
    rng = random.Random("sampling")
    for _ in range(20):
        m = random_spec(rng, rng.randint(1, 7), rng.randint(1, 3))
        if matrix_rank(m) == 0:
            continue
        enumerated = {frozenset(p.zero_set) for p in enumerate_patterns(m)}
        cols = [m.column(v) for v in m.vertices]
        for _ in range(2000):
            lam = tuple(rng.randint(-9, 9) for _ in range(m.k))
            if not any(lam):
                continue
            zs = frozenset(v for v, col in zip(m.vertices, cols)
                           if sum(a * b for a, b in zip(lam, col)) == 0)
            if len(zs) < len(m.vertices):
                assert zs in enumerated


# aggregation

def test_fg_coabelian_examples():
    g2 = examples.edgeless(2)
    rep = fg_coabelian(g2, spec_for(g2, [[1, 0], [0, 1]]))
    assert not rep["fg"] and rep["fg_witness"] == []

    k2 = examples.path(2)
    assert fg_coabelian(k2, spec_for(k2, [[1, 1]]))["fg"]

    k3 = examples.complete(3)
    assert fg_coabelian(k3, spec_for(k3, [[1, 0, 0], [0, 1, 0],
                                          [0, 0, 1]]))["fg"]


def test_fpn_coabelian_examples():
    g2 = examples.edgeless(2)
    rep = fpn_coabelian(g2, spec_for(g2, [[1, 0], [0, 1]]), 1)
    assert not rep["fp"] and rep["fp_witness"] == []

    c4 = examples.cycle(4)
    rep = fpn_coabelian(c4, spec_for(c4, [[1, 1, 1, 1]]), 2)
    assert not rep["fp"] and rep["fp_witness"] == []
    assert len(rep["per_pattern"]) == 1

    k3 = examples.complete(3)
    rep = fpn_coabelian(k3, spec_for(k3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 4)
    assert rep["fp"] and rep["fp_witness"] is None


def merged_route_cases():
    """(graph, spec, n) triples: random graphs on up to 9 vertices with
    specs of up to 4 rows at p = 2 and 3, and every corpus matrix."""
    rng = random.Random("merged-route")
    cases = []
    while len(cases) < 80:
        n = rng.randint(1, 9)
        vs = [f"v{i}" for i in range(1, n + 1)]
        density = rng.uniform(0.2, 0.8)
        g = SimplicialGraph(vs, [e for e in combinations(vs, 2)
                                 if rng.random() < density])
        m = dependent_spec(rng, n, rng.randint(1, 4))
        m = CoabelianSpec(rng.choice((2, 3)), m.rows, m.vertices)
        if matrix_rank(m):
            cases.append((g, m, rng.randint(1, 3)))
    for path in sorted(CORPUS.glob("*.matrix.json")):
        g = parse_graph(json.loads(
            (CORPUS / (path.name.split(".")[0] + ".graph.json")).read_text()))
        m = parse_matrix(json.loads(path.read_text()), g)
        cases += [(g, m, 1), (g, m, 3)]
    return cases


def test_fpn_coabelian_reports_equal_analyze_of_the_indicator():
    # fpn_coabelian hands each pattern's support mask to fpn_results with
    # t = 0; analyze reaches the same block from the 0/1 indicator
    # character, through its support and valuation, on a fresh copy of
    # the graph, so no memo entry is shared
    patterns = 0
    for g, m, n in merged_route_cases():
        rep = fpn_coabelian(g, m, n)
        fresh = SimplicialGraph(g.vertices, g.edges)
        assert len(rep["per_pattern"]) == len(enumerate_patterns(m))
        for pattern, row in zip(enumerate_patterns(m), rep["per_pattern"]):
            assert row["zero_set"] == list(pattern.zero_set)
            supp = set(g.vertices).difference(pattern.zero_set)
            chi = examples.support_character(fresh, supp, m.p)
            assert row["report"] == fpcheck.analyze(fresh, chi, max_n=n), \
                (g, m, n, pattern.zero_set)
            patterns += 1
    assert patterns > 300


def test_fpn_results_refuses_the_empty_support():
    g = examples.cycle(4)
    with pytest.raises(EpimorphismError) as zero_character:
        fpcheck.analyze(g, examples.support_character(g, (), 2))
    for p, t, max_n in ((2, 0, None), (3, 1, 2)):
        with pytest.raises(EpimorphismError) as empty:
            fpcheck.fpn_results(g, 0, p, t, max_n)
        assert str(empty.value) == str(zero_character.value)


def test_k1_degenerates_to_single_character():
    rng = random.Random("k1")
    for _ in range(25):
        n = rng.randint(1, 6)
        vs = [f"v{i}" for i in range(1, n + 1)]
        from itertools import combinations
        edges = [e for e in combinations(vs, 2) if rng.random() < 0.5]
        from raagfp.graph import SimplicialGraph
        g = SimplicialGraph(vs, edges)
        row = [rng.randint(-3, 3) for _ in range(n)]
        if not any(row):
            row[0] = 1
        m = spec_for(g, [row])
        chi = fpcheck.Character(2, dict(zip(vs, row)))
        assert fg_coabelian(g, m)["fg"] == fpcheck.is_fg(g, chi)
        for deg in (1, 2):
            assert fpn_coabelian(g, m, deg)["fp"] == \
                fpcheck.fp_via_complex(g, chi, deg)



def dead_zero_sets(g, p, n, movable=None):
    """Zero sets Z whose support V - Z is not finitely generated (n is
    None) or not FP_n, decided per support with no pattern enumeration:
    fg by the set-based connectivity and dominance reference, FP_n by
    the unsplit support complex.  The empty support is dead.  Only the
    supports inside ``movable`` (every vertex when None) are tried, so
    every Z returned holds the other vertices."""
    movable = g.vertices if movable is None else movable
    fixed = frozenset(g.vertices).difference(movable)
    dead = set()
    for mask in range(1 << len(movable)):
        zs = fixed.union(v for i, v in enumerate(movable) if mask >> i & 1)
        supp = [v for v in g.vertices if v not in zs]
        if not supp:
            alive = False
        elif n is None:
            alive = (is_connected(induced_subgraph(g, supp))
                     and is_dominant(g, supp))
        else:
            chi = fpcheck.Character(p, {v: int(v not in zs)
                                        for v in g.vertices})
            alive = fpcheck.fp_via_complex(g, chi, n)
        if not alive:
            dead.add(zs)
    return dead


def in_proper_flat(m, zs):
    """Whether some nonzero rational combination of the rows vanishes on
    the columns of zs but not on every column: rank M_Z < rank M, both
    ranks by the rational elimination above."""
    cols = [j for j, v in enumerate(m.vertices) if v in zs]
    return frac_rank([[row[j] for j in cols] for row in m.rows]) < \
        frac_rank(m.rows)


def check_against_dead_zero_sets(g, m, movable=None) -> list:
    """The fg, FP_1 and FP_2 verdicts of m's kernel against the dead
    zero sets holding every vertex outside ``movable``: the kernel is
    fg / FP_n iff no dead zero set lies in a proper flat.  That reading
    needs the dead sets closed under supersets (a smaller support is
    never better), which is checked along the way; every zero pattern
    holds the zero columns, so with supersets closed only the dead sets
    holding them matter.  Returns the verdicts."""
    verdicts = []
    for deg in (None, 1, 2):
        dead = dead_zero_sets(g, m.p, deg, movable)
        for zs in dead:
            for v in g.vertices:
                assert zs | {v} in dead, (g, zs, v)
        expected = not any(in_proper_flat(m, zs) for zs in dead)
        if deg is None:
            rep = fg_coabelian(g, m)
            verdict, witness = rep["fg"], rep["fg_witness"]
        else:
            rep = fpn_coabelian(g, m, deg)
            verdict, witness = rep["fp"], rep["fp_witness"]
        assert verdict == expected, (g, m, deg)
        assert verdict == (witness is None)
        assert witness is None or frozenset(witness) in dead
        verdicts.append(verdict)
    return verdicts


def test_coabelian_verdicts_against_dead_zero_sets():
    rng = random.Random("dead-zero-sets")
    cases = 0
    while cases < 180:
        n = rng.randint(1, 6)
        vs = [f"v{i}" for i in range(1, n + 1)]
        g = SimplicialGraph(vs, [e for e in combinations(vs, 2)
                                 if rng.random() < 0.5])
        p = rng.choice((2, 3))
        m = dependent_spec(rng, n, rng.randint(1, 3))
        m = CoabelianSpec(p, m.rows, m.vertices)
        if matrix_rank(m) == 0:
            continue
        cases += len(check_against_dead_zero_sets(g, m))


@pytest.mark.parametrize("piece, cases", [("rp2", 4), ("moore3", 2)])
def test_coabelian_verdicts_against_dead_zero_sets_on_planted_torsion(
        piece, cases):
    # the only nonzero columns are those of the cone vertex z, the piece
    # vertex the random graph is wedged onto and that graph's other
    # vertices, filled up with vertices of the piece to 6 in all
    base = getattr(examples, piece)()
    rng = random.Random(f"planted-torsion-dead:{piece}")
    verdicts = set()
    for _ in range(cases):
        g, _ = planted_torsion(rng, base)
        z, *wedged = g.vertices[len(base.vertices):]
        near = [v for v in base.vertices
                if any(g.is_clique((v, w)) for w in wedged)]
        rest = rng.sample([v for v in base.vertices if v not in near], 6)
        movable = [z, *near, *wedged, *rest][:6]
        for p in (2, 3, 5):
            small = dependent_spec(rng, len(movable), rng.randint(1, 3))
            if matrix_rank(small) == 0:
                continue
            cols = dict(zip(movable, zip(*small.rows)))
            rows = zip(*(cols.get(v, (0,) * small.k) for v in g.vertices))
            m = CoabelianSpec(p, rows, g.vertices)
            verdicts.add(tuple(check_against_dead_zero_sets(g, m, movable)))
    assert len(verdicts) > 1


def test_coabelian_verdicts_are_the_conjunction_over_hyperplanes():
    # every proper flat lies in a hyperplane, a flat of rank r - 1, and a
    # larger zero set never raises the FP level, so the patterns whose
    # zero columns have rank r - 1 decide fg and every fp_k alone
    rng = random.Random("hyperplanes")
    kinds = set()
    for _ in range(60):
        n = rng.randint(1, 9)
        vs = [f"v{i}" for i in range(1, n + 1)]
        density = rng.uniform(0.2, 0.8)
        g = SimplicialGraph(vs, [e for e in combinations(vs, 2)
                                 if rng.random() < density])
        m = dependent_spec(rng, n, rng.randint(1, 4))
        m = CoabelianSpec(rng.choice((2, 3)), m.rows, m.vertices)
        r = frac_rank(m.rows)
        if r == 0:
            continue
        hyper = {pat.zero_set for pat in enumerate_patterns(m)
                 if frac_rank([m.column(v) for v in pat.zero_set]) == r - 1}
        assert hyper
        fg = fg_coabelian(g, m)
        assert fg["fg"] == all(row["fg"] for row in fg["patterns"]
                               if tuple(row["zero_set"]) in hyper)
        max_n = rng.randint(1, 3)
        rep = fpn_coabelian(g, m, max_n)
        for k in range(1, max_n + 1):
            fp_k = [(tuple(row["zero_set"]) in hyper,
                     row["report"]["degrees"][k - 1]["fp_complex"])
                    for row in rep["per_pattern"]]
            assert all(ok for _, ok in fp_k) == \
                all(ok for in_hyper, ok in fp_k if in_hyper), (g, m, k)
        assert rep["fp"] == all(row["report"]["degrees"][max_n - 1]
                                ["fp_complex"] for row in rep["per_pattern"])
        kinds.add((m.k == 1, r < m.k, fg["fg"], rep["fp"]))
    # k = 1, rank-deficient specs, and both verdicts were all met
    assert {kind[0] for kind in kinds} == {True, False}
    assert any(kind[1] for kind in kinds)
    assert {kind[2] for kind in kinds} == {kind[3] for kind in kinds} \
        == {True, False}

# fullness

def test_is_full_against_clique_factor_ranks():
    # the general statement: a clique factor on t vertices meets the
    # kernel iff its columns have rational rank below t; every clique
    # factor has t = 1
    rng = random.Random("fullness")
    cliques = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        vs = [f"v{i}" for i in range(1, n + 1)]
        g = SimplicialGraph(vs, [e for e in combinations(vs, 2)
                                 if rng.random() < rng.random()])
        m = dependent_spec(rng, n, rng.randint(1, 3))
        if rng.random() < 0.2:
            m = CoabelianSpec(2, [[0] * n], m.vertices)
        rep = is_full(g, m)
        assert [f["factor"] for f in rep["factors"]] == \
            [list(f) for f in join_factors(g)]
        for f in rep["factors"]:
            t = len(f["factor"])
            assert f["is_clique"] == g.is_clique(f["factor"])
            if not f["is_clique"]:
                assert f["intersects"]
                continue
            assert t == 1
            cliques += 1
            rank = frac_rank([m.column(v) for v in f["factor"]])
            assert f["intersects"] == (rank < t)
            assert f["reason"] == ("clique factor: restricted column rank "
                                   f"{rank} {'<' if rank < t else '='} {t}")
        assert rep["full"] == all(f["intersects"] for f in rep["factors"])
        fg = frac_rank(m.rows) > 0 and fg_coabelian(g, m)["fg"]
        assert (rep["note"] is not None) == (rep["full"] and fg)
    assert cliques > 100


def test_is_full_k2_identity_line():
    k2 = examples.path(2)
    rep = is_full(k2, spec_for(k2, [[1, 1]]))
    assert not rep["full"]
    assert [f["factor"] for f in rep["factors"]] == [["v1"], ["v2"]]
    assert all(f["is_clique"] and not f["intersects"] for f in rep["factors"])


def test_is_full_k2_with_zero_column():
    k2 = examples.path(2)
    rep = is_full(k2, spec_for(k2, [[1, 0]]))
    assert not rep["full"]
    verdicts = {f["factor"][0]: f["intersects"] for f in rep["factors"]}
    assert verdicts == {"v1": False, "v2": True}


def test_is_full_p3():
    p3 = examples.path(3)
    rep = is_full(p3, spec_for(p3, [[1, 0, 1]]))
    assert rep["full"]
    kinds = {tuple(f["factor"]): f["is_clique"] for f in rep["factors"]}
    assert kinds == {("v1", "v3"): False, ("v2",): True}
    # the kernel here is not finitely generated, so no structure note
    assert rep["note"] is None


def test_is_full_note_when_fg():
    k3 = examples.complete(3)
    rep = is_full(k3, spec_for(k3, [[1, 1, 0]]))
    # all three singleton factors have a rank-deficient restriction only
    # where the column vanishes
    assert not rep["full"]
    rep = is_full(k3, spec_for(k3, [[0, 0, 0], [0, 0, 0]]))
    assert rep["full"] and rep["note"] is None   # rank 0: no aggregation possible
    # a full, finitely generated case carries the marker: both join
    # factors of the 4-cycle are non-cliques and the kernel is fg
    c4 = examples.cycle(4)
    rep = is_full(c4, spec_for(c4, [[1, 1, 1, 1]]))
    assert rep["full"] and rep["note"] == "G/N is finite-by-abelian"


def test_parse_matrix():
    g = examples.path(2)
    m = parse_matrix({"p": 3, "rows": [[1, 2]]}, g)
    assert m.p == 3 and m.rows == ((1, 2),)
    with pytest.raises(SchemaError):
        parse_matrix({"p": 3, "rows": [[1, 2, 3]]}, g)
    with pytest.raises(SchemaError):
        parse_matrix({"p": 3, "rows": []}, g)
    with pytest.raises(SchemaError):
        parse_matrix({"p": 6, "rows": [[1, 2]]}, g)

import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import examples
import pytest
from graphref import is_connected, is_dominant

from raagfp import cli, coabelian, fpcheck
from raagfp.coabelian import (CoabelianSpec, ZeroPattern, _closure,
                              _int_echelon, _nullspace_int, enumerate_patterns,
                              fg_coabelian, fpn_coabelian, is_full,
                              matrix_rank, parse_matrix)
from raagfp.errors import FiniteQuotientError, SchemaError
from raagfp.graph import SimplicialGraph, graph_document, induced_subgraph


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


def test_integer_elimination_against_rational_oracle():
    rng = random.Random("bareiss")
    for _ in range(400):
        nr = rng.randint(0, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        if nr >= 2 and rng.random() < 0.5:     # inject dependent rows
            i, j = rng.randrange(nr), rng.randrange(nr)
            if i != j:
                rows[i] = [a * rng.randint(-2, 2) for a in rows[j]]
        ech, rank = _int_echelon(rows)
        assert rank == frac_rank(rows)
        basis = _nullspace_int(rows, nc)
        assert len(basis) == nc - rank
        assert all(sum(x * y for x, y in zip(r, b)) == 0
                   for b in basis for r in rows)


def nullspace_fraction(rows, width):
    """Rational back substitution, then the lcm of the denominators: the
    reference for the integer-only back substitution in _nullspace_int."""
    ech, rank = _int_echelon(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in ech]
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
        basis = _nullspace_int(rows, width)
        assert basis == nullspace_fraction(rows, width)
        for b in basis:
            assert all(type(x) is int for x in b)
            g = 0
            for x in b:
                g = gcd(g, x)
            assert g == 1                       # primitive
        checked += len(basis)
    assert checked > 1000


# span closure, through the closure that enumerate_patterns runs

def span_closure(m, z) -> frozenset:
    """Vertices whose column lies in the rational span of the columns
    of the vertex set z."""
    cols = [m.column(v) for v in m.vertices]
    _, closed = _closure(cols, [m.vertices.index(v) for v in z], m.k)
    return frozenset(m.vertices[j] for j in closed)


def test_span_closure_examples():
    g = examples.edgeless(2)
    ident = spec_for(g, [[1, 0], [0, 1]])
    assert span_closure(ident, set()) == frozenset()
    line = spec_for(g, [[1, 1]])
    assert span_closure(line, set()) == frozenset()
    assert span_closure(line, {"v1"}) == {"v1", "v2"}
    with_zero = spec_for(g, [[1, 0], [0, 0]])
    assert span_closure(with_zero, set()) == {"v2"}


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
    # reaching its closure, so the bytes rely on this
    rng = random.Random("canonical-basis")
    compared = 0
    for _ in range(300):
        m = dependent_spec(rng, rng.randint(1, 7), rng.randint(1, 4))
        z = rng.sample(m.vertices, rng.randint(0, len(m.vertices)))
        closed = span_closure(m, z)
        flat = [m.column(v) for v in m.vertices if v in closed]
        assert _nullspace_int([m.column(v) for v in z], m.k) == \
            _nullspace_int(flat, m.k)
        compared += len(closed) > len(z)
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
            rref, pivots = frac_rref([cols[j] for j in subset])
            closed = set()
            for j, col in enumerate(cols):
                rest = [Fraction(x) for x in col]
                for row, c in zip(rref, pivots):
                    f = rest[c]
                    rest = [a - f * b for a, b in zip(rest, row)]
                if not any(rest):
                    closed.add(j)
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
    m = spec_for(examples.path(3), [[0, 0, 0], [0, 0, 0]])
    for _ in range(3):
        with pytest.raises(FiniteQuotientError):
            enumerate_patterns(m)


def test_one_coabelian_command_enumerates_the_patterns_once(
        tmp_path, monkeypatch, capsys):
    g = examples.cycle(5)
    rows = [[1, 0, 0, 1, 2], [0, 1, 0, 1, -1], [0, 0, 1, 0, 3]]
    gp, mp = tmp_path / "g.json", tmp_path / "m.json"
    gp.write_text(json.dumps(graph_document(g)))
    mp.write_text(json.dumps({"p": 3, "rows": rows}))
    closures = []

    def counting(*args):
        closures.append(args[1])
        return real(*args)

    real = coabelian._closure
    monkeypatch.setattr(coabelian, "_closure", counting)
    cli.main(["coabelian", str(gp), str(mp), "--max-n", "1"])
    results = json.loads(capsys.readouterr().out)["results"]
    # fg, fp and the fullness note each read the patterns
    assert "fp" in results and results["fullness"]["full"]
    rank, n = 3, len(g)
    assert len(closures) == sum(comb(n, s) for s in range(rank))
    assert len(set(closures)) == len(closures)


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



def dead_zero_sets(g, p, n):
    """Zero sets Z whose support V - Z is not finitely generated (n is
    None) or not FP_n, decided per support with no pattern enumeration:
    fg by the set-based connectivity and dominance reference, FP_n by
    the unsplit support complex.  The empty support is dead."""
    dead = set()
    for mask in range(1 << len(g.vertices)):
        zs = frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1)
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


def test_coabelian_verdicts_against_dead_zero_sets():
    # the kernel is fg / FP_n iff no dead zero set lies in a proper flat;
    # that reading needs the dead sets closed under supersets (a smaller
    # support is never better), which is checked along the way
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
        for deg in (None, 1, 2):
            dead = dead_zero_sets(g, p, deg)
            for zs in dead:
                for v in vs:
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
            cases += 1

# fullness

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

"""The float kernel against the entrywise loops it replaces, bit for bit.

The oracles below are the float-backend loops from before the kernel: the
octonion product accumulated over TABLE (zero terms skipped, accumulator
starting at 0.0), generator-sum dot products, the worst-pair triality defect
built on that product, entrywise ApproxReal comparison, and the ApproxReal
constructions of translations, sandwich matrices and norms.  Floats are
compared by repr, which tells -0.0 from 0.0.  The SO(n) verdict that
kappa conjugation carries is compared with a fresh one.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import spin8.linalg as linalg
from spin8.checks import residual
from spin8.linalg import Matrix, NotOrthogonal, is_special_orthogonal, random_rotation
from spin8.octonion import (
    TABLE,
    Octonion,
    cube_root_of_unity,
    left_translation,
    mul_coeffs,
    mul_lines,
    random_imaginary_unit,
    random_unit_octonion,
    right_translation,
    sandwich_matrix,
    to_backend,
)
from spin8.scalars import EXACT, ApproxReal, FloatBackend
from spin8.triality import (
    TrialityTriple,
    TrialityViolated,
    _kconj,
    apply_sigma,
    apply_tau,
    spin_from_unit,
    triality_residual,
)

EPS = 1e-9
FB = FloatBackend(EPS)


def loop_product(x, y):
    out = [0.0] * 8
    for xi, row in zip(x, TABLE):
        if xi:
            for yj, (s, k) in zip(y, row):
                if yj:
                    out[k] = (out[k] + xi * yj) if s > 0 else (out[k] - xi * yj)
    return out


def loop_matmul(a, b):
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def loop_apply(a, v):
    return [sum(x * y for x, y in zip(r, v)) for r in a]


def loop_defect(a, b, c):
    acols, bcols, ccols = (list(zip(*m)) for m in (a, b, c))
    worst, at = 0.0, (0, 0)
    for i in range(8):
        for j in range(8):
            prod = loop_product(ccols[i], acols[j])
            s, k = TABLE[i][j]
            if s > 0:
                r = max(abs(u - w) for u, w in zip(bcols[k], prod))
            else:
                r = max(abs(u + w) for u, w in zip(bcols[k], prod))
            if r > worst:
                worst, at = r, (i, j)
    return at, worst


def reprs(values):
    return [repr(float(v)) for v in values]


def floats_of(m):
    return [[float(e) for e in row] for row in m.rows]


def approx_matrix(rows):
    return Matrix([[ApproxReal(v, EPS) for v in row] for row in rows])


finite = st.floats(allow_nan=False, allow_infinity=False)
sparse = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), finite)
vectors = st.one_of(
    st.lists(finite, min_size=8, max_size=8),
    st.lists(sparse, min_size=8, max_size=8),
)


def signed_permutation(rng):
    """Entries +-1.0 at a random permutation, +0.0 or -0.0 elsewhere."""
    perm = list(range(8))
    rng.shuffle(perm)
    return [[rng.choice((1.0, -1.0)) if perm[i] == j else rng.choice((0.0, -0.0))
             for j in range(8)] for i in range(8)]


def random_rows(rng, kind):
    if kind == "dense":
        return [[rng.uniform(-1, 1) for _ in range(8)] for _ in range(8)]
    if kind == "sparse":
        return [[rng.choice((0.0, -0.0, rng.uniform(-1, 1))) for _ in range(8)]
                for _ in range(8)]
    return signed_permutation(rng)


class Sym:
    """Records the float operations applied to it, in evaluation order."""

    def __init__(self, text):
        self.text = text

    def __mul__(self, other):
        return Sym(f"{self.text}*{other.text}")

    def __add__(self, other):
        return Sym(f"({self.text}+{other.text})")

    def __sub__(self, other):
        return Sym(f"({self.text}-{other.text})")

    def __radd__(self, other):
        return Sym(f"({other!r}+{self.text})")

    def __rsub__(self, other):
        return Sym(f"({other!r}-{self.text})")


def test_product_lines_follow_table():
    # line k adds +-x[p]*y[q], e_p e_q = +-e_k, in ascending p onto the start
    # value: +0.0 for floats, 0 for the integer parts of exact forms
    for zero in (0.0, 0):
        got = mul_lines([Sym(f"x{p}") for p in range(8)],
                        [Sym(f"y{q}") for q in range(8)], zero)
        for k in range(8):
            want = repr(zero)
            for p, row in enumerate(TABLE):
                (q, s), = [(q, s) for q, (s, kk) in enumerate(row) if kk == k]
                want = f"({want}{'+' if s > 0 else '-'}x{p}*y{q})"
            assert got[k].text == want


@settings(max_examples=300, deadline=None)
@given(vectors, vectors)
def test_product_matches_table_loop(x, y):
    want = reprs(loop_product(x, y))
    assert reprs(mul_lines(x, y, 0.0)) == want
    wrapped = mul_coeffs(tuple(ApproxReal(v, EPS) for v in x),
                         tuple(ApproxReal(v, EPS) for v in y))
    assert reprs(wrapped) == want
    assert all(type(c) is ApproxReal and c.eps == EPS for c in wrapped)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["dense", "sparse", "perm"]))
def test_matrix_kernel_matches_entrywise_loops(seed, kind):
    rng = random.Random(seed)
    ra, rb = random_rows(rng, kind), random_rows(rng, kind)
    a, b = approx_matrix(ra), approx_matrix(rb)
    i8 = Matrix.identity(8)  # exact, so the float kernel reads it as floats
    for got, want in ((a * b, loop_matmul(ra, rb)),
                      (a.transpose() * b, loop_matmul(list(zip(*ra)), rb)),
                      (i8 * b, loop_matmul(floats_of(i8), rb))):
        assert [reprs(row) for row in got.rows] == [reprs(row) for row in want]
        assert all(e.eps == EPS for row in got.rows for e in row)
    v = [rng.choice((0.0, -0.0, rng.uniform(-1, 1))) for _ in range(8)]
    for m, rows in ((a, ra), (i8, floats_of(i8))):
        eps, out = m.apply_floats(EPS, tuple(v))
        assert eps == EPS and reprs(out) == reprs(loop_apply(rows, v))
    # equality and residual as entrywise ApproxReal comparison would give them
    near = approx_matrix([[x + rng.choice((0.0, 0.5e-9, 2e-9)) for x in row] for row in ra])
    edge = approx_matrix([[x or EPS for x in row] for row in ra])  # off by eps
    for m in (a, near, edge, b):
        assert (a == m) == all(x == y for rx, ry in zip(a.rows, m.rows)
                               for x, y in zip(rx, ry))
        assert repr(residual(a, m)) == repr(max(
            abs(float(x) - float(y)) for rx, ry in zip(a.rows, m.rows)
            for x, y in zip(rx, ry)))


def tampered(rng, g):
    """Triples near g that fail the identity, and one of signed permutations."""
    c1, c2 = rng.sample(range(8), 2)
    flip = [[-x if j in (c1, c2) else x for j, x in enumerate(row)]
            for row in floats_of(g.C)]
    yield g.A, g.B, approx_matrix(flip)
    yield g.A, g.B.transpose(), g.C
    yield g.B, g.A, g.C
    p = signed_permutation(rng)
    yield approx_matrix(p), approx_matrix(p), approx_matrix(signed_permutation(rng))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_triality_defect_matches_loop(seed):
    rng = random.Random(seed)
    g = spin_from_unit(random_unit_octonion(rng, FB))
    # L(e_i) and friends: signed permutation matrices
    perm = spin_from_unit(to_backend(Octonion.basis(rng.randrange(1, 9)), FB))
    for t in (g, perm):
        _, worst = loop_defect(*(floats_of(m) for m in (t.A, t.B, t.C)))
        assert repr(t.triality_residual()) == repr(worst)
    for a, b, c in tampered(rng, g):
        pair, worst = loop_defect(floats_of(a), floats_of(b), floats_of(c))
        assert repr(triality_residual(a, b, c)) == repr(worst)
        if worst > EPS and all(map(is_special_orthogonal, (a, b, c))):
            with pytest.raises(TrialityViolated) as exc:
                TrialityTriple(a, b, c)
            assert exc.value.pair == pair
            assert repr(exc.value.residual) == repr(worst)


# --- the SO(n) verdict carried through kappa conjugation -------------------

def gram_floats(m):
    """|(m^t m)[i][j] - delta_ij| for j <= i, as is_orthogonal computes them."""
    cols = list(zip(*m._fl[1]))
    return [abs(sum(x * y for x, y in zip(cols[i], cols[j])) - (i == j))
            for i in range(len(cols)) for j in range(i + 1)]


def float_cases(rng, kind):
    """(eps, float rows): rotations, reflections, signed permutations, dense
    non-orthogonal matrices, and rotations whose Gram defect sits exactly at
    the tolerance ("edge-in") or one float below it ("edge-out")."""
    if kind == "dense":
        return EPS, random_rows(rng, "dense")
    if kind == "perm":
        return EPS, signed_permutation(rng)
    rows = [list(r) for r in random_rotation(rng, FB)._fl[1]]
    if kind == "reflection":
        c = rng.randrange(8)
        rows = [[-x if j == c else x for j, x in enumerate(r)] for r in rows]
    if kind in ("edge-in", "edge-out"):
        rows = [[x * (1 + 2.0 ** -30) if j == 0 else x for j, x in enumerate(r)]
                for r in rows]
        worst = max(gram_floats(Matrix._of_floats(EPS, rows)))
        return (worst if kind == "edge-in" else math.nextafter(worst, 0.0)), rows
    return EPS, rows


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32),
       st.sampled_from(["rotation", "reflection", "perm", "dense", "edge-in", "edge-out"]))
def test_kconj_carries_fresh_verdict_on_floats(seed, kind):
    rng = random.Random(seed)
    eps, rows = float_cases(rng, kind)
    m = Matrix._of_floats(eps, tuple(map(tuple, rows)))
    verdict = is_special_orthogonal(m)
    if kind in ("rotation", "edge-in"):
        assert verdict
    if kind in ("reflection", "dense", "edge-out"):
        assert not verdict
    k = _kconj(m)
    assert k._so8 is verdict
    assert linalg._so8_verdict(k) is verdict
    # the proof's float claims: Gram defects and the LU determinant repeat
    assert list(map(repr, gram_floats(k))) == list(map(repr, gram_floats(m)))
    assert repr(k.det().value) == repr(m.det().value)
    # an unknown verdict stays unknown, and kk = m keeps the known one
    assert _kconj(Matrix._of_floats(eps, m._fl[1]))._so8 is None
    assert _kconj(k)._so8 is verdict


def test_kconj_carries_fresh_verdict_on_exact():
    rng = random.Random(5)
    s = cube_root_of_unity(random_imaginary_unit(rng, EXACT))
    cases = [random_rotation(rng, EXACT), left_translation(s), sandwich_matrix(s, s)]
    cases += [Matrix([[-x if j == 3 else x for j, x in enumerate(r)] for r in m.rows])
              for m in cases]
    cases.append(cases[0].scale(Fraction(1, 2)))
    for m in cases:
        verdict = is_special_orthogonal(m)
        k = _kconj(m)
        assert k._so8 is verdict
        assert linalg._so8_verdict(k) is verdict
        assert linalg._so8_verdict(Matrix(k.rows)) is verdict
    assert [is_special_orthogonal(m) for m in cases] == [True] * 3 + [False] * 4


def test_so8_test_runs_once_per_matrix(monkeypatch):
    calls = []
    fresh = linalg._so8_verdict
    monkeypatch.setattr(linalg, "_so8_verdict", lambda m: calls.append(m) or fresh(m))
    rng = random.Random(6)
    g = spin_from_unit(random_unit_octonion(rng, FB))
    assert len(calls) == 3
    is_special_orthogonal(g.A)
    apply_tau(g)  # (kBk, kCk, A): every verdict known
    apply_sigma(g)  # (B, A, kCk)
    apply_tau(apply_tau(g))
    assert len(calls) == 3
    calls.clear()
    g * g
    g.inverse()
    TrialityTriple.from_json(g.to_json(), FB)
    assert len(calls) == 9  # products, transposes and parsed matrices are tested


def test_reflection_never_enters_a_triple():
    rng = random.Random(7)
    for backend in (FB, EXACT):
        g = spin_from_unit(random_unit_octonion(rng, backend))
        flip = Matrix([[-x if j == 0 else x for j, x in enumerate(r)] for r in g.A.rows])
        with pytest.raises(NotOrthogonal):
            TrialityTriple(flip, g.B, g.C)
        assert flip._so8 is False
        kflip = _kconj(flip)
        assert kflip._so8 is False
        with pytest.raises(NotOrthogonal):
            TrialityTriple(kflip, kflip, kflip)
        # known-good components still meet the 64-pair identity
        with pytest.raises(TrialityViolated):
            TrialityTriple(_kconj(g.B), g.C, g.A)


# --- float translations, sandwiches and norms against ApproxReal loops ------

def loop_translation(x, right=False):
    g = [[0] * 8 for _ in range(8)]
    for i, xi in enumerate(x.coeffs):
        if not xi:
            continue
        for j in range(8):
            s, k = TABLE[j][i] if right else TABLE[i][j]
            g[k][j] = xi if s > 0 else -xi
    return Matrix(g)


def loop_sandwich(l, r):
    basis = [tuple(1 if j == i else 0 for j in range(8)) for i in range(8)]
    return Matrix(zip(*[mul_coeffs(l.coeffs, mul_coeffs(e, r.coeffs)) for e in basis]))


def loop_norm_sq(x):
    n = 0
    for c in x.coeffs:
        if c:
            n = n + c * c
    return n


def same_matrix(got, want):
    if want._fl is None:
        assert got._fl is None
        assert got.rows == want.rows
        return
    assert got._fl[0] == want._fl[0]
    assert [reprs(r) for r in got._fl[1]] == [reprs(r) for r in want._fl[1]]


tolerances = st.sampled_from([1e-9, 1e-6, 1e-12])
float_coeff = st.builds(ApproxReal, sparse, tolerances)
exact_coeff = st.sampled_from([0, 1, -1, Fraction(1, 3), Fraction(-2, 7)])
octonions = st.lists(st.one_of(float_coeff, st.just(0)), min_size=8, max_size=8).map(Octonion)
mixed = st.lists(st.one_of(float_coeff, exact_coeff), min_size=8, max_size=8).map(Octonion)


@settings(max_examples=300, deadline=None)
@given(st.one_of(octonions, mixed))
def test_translations_match_approx_loops(x):
    same_matrix(left_translation(x), loop_translation(x))
    same_matrix(right_translation(x), loop_translation(x, right=True))


@settings(max_examples=150, deadline=None)
@given(st.one_of(octonions, mixed), st.one_of(octonions, mixed))
def test_sandwich_matches_approx_products(l, r):
    same_matrix(sandwich_matrix(l, r), loop_sandwich(l, r))


@settings(max_examples=300, deadline=None)
@given(octonions)
def test_norm_sq_matches_approx_loop(x):
    got, want = x.norm_sq(), loop_norm_sq(x)
    assert type(got) is type(want)
    if type(want) is ApproxReal:
        assert (repr(got.value), got.eps) == (repr(want.value), want.eps)
    else:
        assert got == want == 0


def test_float_constructors_edge_cases():
    zero = Octonion([ApproxReal(0.0, 1e-3), ApproxReal(-0.0, 1e-9)] + [0] * 6)
    for x in (zero, Octonion([0] * 8)):
        assert x.norm_sq() == 0 and type(x.norm_sq()) is int
        assert left_translation(x)._fl is None  # zeros carry no tolerance
    assert sandwich_matrix(zero, zero)._fl[0] == 1e-3  # products carry them all
    x = Octonion([ApproxReal(0.5, 1e-9), ApproxReal(0.0, 1e-3)] + [0] * 6)
    assert left_translation(x)._fl[0] == 1e-9
    assert x.norm_sq().eps == 1e-9

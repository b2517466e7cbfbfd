"""The float kernel against the entrywise loops it replaces, bit for bit.

The oracles below are the float-backend loops from before the kernel: the
octonion product accumulated over TABLE (zero terms skipped, accumulator
starting at 0.0), dot products added in order (``dot``, the bits ``sum``
gave before Python 3.12), the worst-pair triality defect built on that
product, entrywise ApproxReal comparison, and the ApproxReal constructions of
translations, sandwich matrices and norms.  The straight-line triality
defect, partial-pivot LU and Gram test are also held to the code they
replaced on non-finite input: ``_det_float`` with a ``max(key=...)`` pivot,
the defect over ``mul_lines`` and the Gram test over ``dot``.  Floats are
compared by repr, which tells -0.0 from 0.0.  The SO(n) verdict that kappa
conjugation carries is compared with a fresh one.
"""

import ast
import inspect
import math
import pathlib
import random
from fractions import Fraction
from operator import add, sub
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import spin8
import spin8.linalg as linalg
import spin8.triality as triality
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


def dot(xs, ys):
    """The products added one by one onto the int 0, as ``sum`` did before
    Python 3.12 (0 + p is 0.0 + p for a float p)."""
    total = 0
    for x, y in zip(xs, ys):
        total = total + x * y
    return total


def loop_matmul(a, b):
    return [[dot(r, c) for c in zip(*b)] for r in a]


def loop_apply(a, v):
    return [dot(r, v) for r in a]


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


SYMBOLS = {f"{v}{i}": Sym(f"{v}{i}") for v in "xy" for i in range(8)}


def table_lines(zero):
    """Line k adds +-x[p]*y[q], e_p e_q = +-e_k, in ascending p onto zero."""
    lines = []
    for k in range(8):
        want = repr(zero)
        for p, row in enumerate(TABLE):
            (q, s), = [(q, s) for q, (s, kk) in enumerate(row) if kk == k]
            want = f"({want}{'+' if s > 0 else '-'}x{p}*y{q})"
        lines.append(want)
    return lines


def test_product_lines_follow_table():
    # start value: +0.0 for floats, 0 for the integer parts of exact forms
    for zero in (0.0, 0):
        got = mul_lines([SYMBOLS[f"x{p}"] for p in range(8)],
                        [SYMBOLS[f"y{q}"] for q in range(8)], zero)
        assert [line.text for line in got] == table_lines(zero)


def test_defect_lines_follow_table():
    # _triality_defect writes the product lines out again, as
    # max(abs(t0 - <line 0>), ..., abs(t7 - <line 7>)) with x = C e_i and
    # y = A e_j: each line, run on symbols, must be TABLE's
    tree = ast.parse(inspect.getsource(triality._triality_defect))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "max"]
    assert len(calls) == 1 and len(calls[0].args) == 8
    got = []
    for k, arg in enumerate(calls[0].args):
        assert ast.unparse(arg).startswith(f"abs(t{k} - ")
        line = arg.args[0].right
        got.append(eval(compile(ast.Expression(line), "<line>", "eval"), {}, SYMBOLS).text)
    assert got == table_lines(0.0)


def test_no_float_path_calls_builtin_sum():
    # CPython 3.12 made sum() of floats compensated, so a float sum would give
    # other bits on other versions; every float dot and norm adds in index
    # order itself (linalg._dots, functools.reduce).  The sums left are exact
    # on every version: integer parts of kernel forms, or a count of bools.
    allowed = {
        ("kernel", "matmul"),  # integer numerators
        ("kernel", "zdot"),  # integer numerators
        ("octonion", "_rational_unit_form"),  # integer draws
        ("triality", "_triality_holds"),  # packed integers
        ("triality", "_packed_products"),  # packed integers
        ("cli", "_antipodal_section"),  # a count of bools
        ("symspace", "antipodal_set"),  # a count of bools
    }
    found = set()

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(module, child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "sum"):
                found.add((module, function))
            visit(module, child, function)

    for path in pathlib.Path(spin8.__file__).parent.glob("*.py"):
        visit(path.stem, ast.parse(path.read_text()), None)
    assert found <= allowed, sorted(found - allowed)
    assert ("kernel", "matmul") in found  # the walk sees the package


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


def list_defect(acols, bcols, ccols):
    """The defect as computed before it was written out straight-line: the
    product by mul_lines, compared per pair by map."""
    worst, at = 0.0, (0, 0)
    for i in range(8):
        for j in range(8):
            prod = mul_lines(ccols[i], acols[j], 0.0)
            s, k = TABLE[i][j]
            r = max(map(abs, map(sub if s > 0 else add, bcols[k], prod)))
            if r > worst:
                worst, at = r, (i, j)
    return at, worst


def overflowed(m):
    """m's floats times 1e300, squared by the float kernel: entries that
    overflow to +-inf, and nan where +inf and -inf terms meet."""
    big = Matrix._of_floats(EPS, tuple(tuple(x * 1e300 for x in r) for r in m._floats()[1]))
    return big * big


def float_columns(*mats):
    return [tuple(zip(*m._floats()[1])) for m in mats]


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
        # the method on an unverified (A, B, C): the constructor would refuse it
        unverified = SimpleNamespace(A=a, B=b, C=c)
        assert repr(TrialityTriple.triality_residual(unverified)) == repr(worst)
        if worst > EPS and all(map(is_special_orthogonal, (a, b, c))):
            with pytest.raises(TrialityViolated) as exc:
                TrialityTriple(a, b, c)
            assert exc.value.pair == pair
            assert repr(exc.value.residual) == repr(worst)
    # inf and nan entries, where the loop oracle (zero terms skipped) parts
    # from IEEE products: the straight-line defect against the per-pair map
    for k in range(3):
        mats = [g.A, g.B, g.C]
        mats[k] = overflowed(mats[k])
        assert any(math.isnan(x) for r in mats[k]._fl[1] for x in r)
        cols = float_columns(*mats)
        assert repr(triality._triality_defect(*cols)) == repr(list_defect(*cols))
    cols = float_columns(*map(overflowed, (g.A, g.B, g.C)))
    assert repr(triality._triality_defect(*cols)) == repr(list_defect(*cols))


# --- the partial-pivot LU and the Gram test against the loops they replaced --

def pivot_max_det(rows):
    """_det_float as written before its pivot scan: max(key=...) per column."""
    n = len(rows)
    m = [list(row) for row in rows]
    det = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[p][k] == 0.0:
            return 0.0
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        inv = 1.0 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                for j in range(k + 1, n):
                    m[i][j] -= f * m[k][j]
    return det


def loop_gram_test(eps, rows):
    """is_orthogonal on floats as written before: row-major over j <= i."""
    cols = tuple(zip(*rows))
    for i, ci in enumerate(cols):
        for j in range(i + 1):
            if abs(dot(ci, cols[j]) - (1.0 if i == j else 0.0)) > eps:
                return False
    return True


def lu_cases(rng, n):
    """Float rows that stress the pivot scan and the update."""
    dense = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
    yield dense
    # ties: entries +-1 and +-0.5 only, so most columns tie on |entry|
    yield [[rng.choice((1.0, -1.0, 0.5, -0.5)) for _ in range(n)] for _ in range(n)]
    yield [[1.0] * n for _ in range(n)]
    zero_col = [list(r) for r in dense]
    c = rng.randrange(n)
    for r in zero_col:
        r[c] = rng.choice((0.0, -0.0))
    yield zero_col
    yield [[rng.choice((0.0, -0.0, x)) for x in r] for r in dense]
    # pivots whose product underflows to +-0 (and subnormal updates)
    yield [[x * 1e-170 for x in r] for r in dense]
    yield [[x * 1e-300 if i == j else x * 1e-160 for j, x in enumerate(r)]
           for i, r in enumerate(dense)]
    # huge finite entries: the product and the updates overflow to inf and nan
    yield [[x * 1e300 for x in r] for r in dense]
    yield [[x * 1.7e308 if rng.random() < 0.5 else x for x in r] for r in dense]
    # non-finite entries, a nan pivot among them
    yield [[rng.choice((math.inf, -math.inf, math.nan, x)) for x in r] for r in dense]
    yield [[math.nan if j == 0 else x for j, x in enumerate(r)] for r in dense]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([8, 16, 3]))
def test_lu_and_gram_match_the_loops_they_replaced(seed, n):
    rng = random.Random(seed)
    rotation = [list(r) for r in random_rotation(rng, FB, n)._fl[1]]
    big = [list(r) for r in overflowed(random_rotation(rng, FB, n))._fl[1]]
    for rows in [rotation, big, *lu_cases(rng, n)]:
        assert repr(linalg._det_float(rows)) == repr(pivot_max_det(rows))
        for eps in (EPS, 1e308):
            m = Matrix._of_floats(eps, tuple(map(tuple, rows)))
            assert linalg.is_orthogonal(m) is loop_gram_test(eps, rows)


# --- the SO(n) verdict carried through kappa conjugation -------------------

def gram_floats(m):
    """|(m^t m)[i][j] - delta_ij| for j <= i, as is_orthogonal computes them."""
    cols = list(zip(*m._fl[1]))
    return [abs(dot(cols[i], cols[j]) - (i == j))
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
    assert repr(linalg._det_float(k._fl[1])) == repr(linalg._det_float(m._fl[1]))
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


def same_matrix(got, want, eps=None):
    """got has want's floats (by repr) at tolerance eps, by default want's;
    with both exact, want's rows."""
    if want._fl is None and eps is None:
        assert got._fl is None
        assert got.rows == want.rows
        return
    assert got._fl[0] == (want._fl[0] if eps is None else eps)
    assert [reprs(r) for r in got._fl[1]] == [reprs(r) for r in want._floats()[1]]


def form_eps(x):
    """The tolerance of x's float form, None for an exact octonion."""
    return x._fl and x._fl[0]


tolerances = st.sampled_from([1e-9, 1e-6, 1e-12])
float_coeff = st.builds(ApproxReal, sparse, tolerances)
exact_coeff = st.sampled_from([0, 1, -1, Fraction(1, 3), Fraction(-2, 7)])
octonions = st.lists(st.one_of(float_coeff, st.just(0)), min_size=8, max_size=8).map(Octonion)
mixed = st.lists(st.one_of(float_coeff, exact_coeff), min_size=8, max_size=8).map(Octonion)


@settings(max_examples=300, deadline=None)
@given(st.one_of(octonions, mixed))
def test_translations_match_approx_loops(x):
    # the loop's floats, at the tolerance of x's float form
    same_matrix(left_translation(x), loop_translation(x), form_eps(x))
    same_matrix(right_translation(x), loop_translation(x, right=True), form_eps(x))


@settings(max_examples=150, deadline=None)
@given(st.one_of(octonions, mixed), st.one_of(octonions, mixed))
def test_sandwich_matches_approx_products(l, r):
    same_matrix(sandwich_matrix(l, r), loop_sandwich(l, r))


@settings(max_examples=300, deadline=None)
@given(octonions)
def test_norm_sq_matches_approx_loop(x):
    # the loop's float, at the tolerance of x's float form
    got, want = x.norm_sq(), loop_norm_sq(x)
    if x._fl is not None:
        assert type(got) is ApproxReal
        assert (repr(got.value), got.eps) == (repr(float(want)), x._fl[0])
    else:
        assert got == want == 0 and type(got) is int


def loop_float_norm(f):
    """The squares of a float form added one by one onto +0.0, as
    Octonion.norm_sq did before it called linalg._dots."""
    n = 0.0
    for v in f:
        n += v * v
    return n


edge_coeff = st.one_of(st.sampled_from([0, 0.0, -0.0, 5e-324, -5e-324, 1e-160, 1e200,
                                        -1e200, 1.0, -1.0]),
                       st.floats(-2.0, 2.0))


@settings(max_examples=500, deadline=None)
@given(st.lists(edge_coeff, min_size=8, max_size=8))
def test_octonion_norms_are_the_dots_loop(f):
    # norm_sq and is_unit read linalg._dots; its adds and their order are
    # the loop's, int zeros, signed zeros, subnormal and overflowing squares
    # included
    x = Octonion._of_floats(1e-9, tuple(f))
    want = loop_float_norm(f)
    assert repr(x.norm_sq().value) == repr(want)
    assert x.is_unit() == (any(f) and abs(want - 1.0) <= 1e-9)


def test_float_constructors_edge_cases():
    # a float octonion's norm and translations carry its form's tolerance,
    # the largest among its ApproxReal coefficients, zeros included
    zero = Octonion([ApproxReal(0.0, 1e-3), ApproxReal(-0.0, 1e-9)] + [0] * 6)
    n = zero.norm_sq()
    assert (type(n), repr(n.value), n.eps) == (ApproxReal, "0.0", 1e-3)
    assert left_translation(zero)._fl == (1e-3, ((0.0,) * 8,) * 8)
    exact = Octonion([0] * 8)
    assert exact.norm_sq() == 0 and type(exact.norm_sq()) is int
    assert left_translation(exact)._fl is None
    assert sandwich_matrix(zero, zero)._fl[0] == 1e-3  # products carry them all
    x = Octonion([ApproxReal(0.5, 1e-9), ApproxReal(0.0, 1e-3)] + [0] * 6)
    assert left_translation(x)._fl[0] == 1e-3
    assert x.norm_sq().eps == 1e-3

"""The float kernel against the entrywise loops it replaces, bit for bit.

The oracles below are the float-backend loops from before the kernel: the
octonion product accumulated over TABLE (zero terms skipped, accumulator
starting at 0.0), dot products added in order (``dot``, the bits ``sum``
gave before Python 3.12), the worst-pair triality defect built on that
product, entrywise ApproxReal comparison, and the ApproxReal constructions of
translations, sandwich matrices and norms.  The straight-line triality
defect, partial-pivot LU and Gram test are also held to the code they
replaced on non-finite input: ``_det_float`` with a ``max(key=...)`` pivot,
the defect over ``mul_lines`` and the Gram test over ``dot``, which passed
a nan defect that the Gram test now fails.  The defect that skips pairs
within its running worst is held to the straight sweep it replaced.  Floats
are compared by repr, which tells -0.0 from 0.0.  The SO(n) verdict that
kappa conjugation carries is compared with a fresh one, and the verdict a
float matrix gets from its proved determinant sign with the LU it skips.
"""

import ast
import inspect
import math
import pathlib
import random
import textwrap
from fractions import Fraction
from operator import add, sub

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
    transform,
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
    """Line k adds +-x[p]*y[q], e_p e_q = +-e_k, in ascending p onto zero;
    with zero None it starts from the p = 0 term, x0*y_k (e_1 e_k = +e_k)."""
    lines = []
    for k in range(8):
        want = None if zero is None else repr(zero)
        for p, row in enumerate(TABLE):
            (q, s), = [(q, s) for q, (s, kk) in enumerate(row) if kk == k]
            if want is None:
                assert s > 0
                want = f"x{p}*y{q}"
            else:
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
    # d_k = t_k - <line k> with x = C e_i and y = A e_j: each line, run on
    # symbols, must be TABLE's, without the 0.0 start (its docstring proves
    # the bits of (pair, worst) the same; test_skipping_defect_matches_the_
    # straight_sweep holds it to the sweep with the start).  A pair outside
    # the skip test takes max(abs(d0), ..., abs(d7)), every d_k in order.
    tree = ast.parse(inspect.getsource(triality._triality_defect))
    lines = {node.targets[0].id: node.value for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id.startswith("d")}
    assert sorted(lines) == [f"d{k}" for k in range(8)]
    got = []
    for k in range(8):
        value = lines[f"d{k}"]
        assert isinstance(value, ast.BinOp) and isinstance(value.op, ast.Sub)
        assert ast.unparse(value.left) == f"t{k}"
        got.append(eval(compile(ast.Expression(value.right), "<line>", "eval"), {}, SYMBOLS).text)
    assert got == table_lines(None)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "max"]
    assert len(calls) == 1
    assert [ast.unparse(arg) for arg in calls[0].args] == [f"abs(d{k})" for k in range(8)]


def _headed_dots(function, names):
    """Every whole sum in a function's source that starts from 0.0, run on
    the symbols in names."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    sums = []
    for node in ast.walk(tree):
        start = node
        while isinstance(start, ast.BinOp) and isinstance(start.op, ast.Add):
            start = start.left
        if node is not start and isinstance(start, ast.Constant) and start.value == 0.0:
            sums.append(node)
    inner = {id(node.left) for node in sums}
    return sorted(eval(compile(ast.Expression(node), "<dot>", "eval"), {}, names).text
                  for node in sums if id(node) not in inner)


def test_written_out_dots_are_the_dots_of_linalg():
    # Matrix.__mul__ and is_orthogonal write the 8-term dot of _dots out in
    # place: each copy, run on symbols, must add v_k*w_k in index order onto
    # 0.0 as _dots does (the Gram test's diagonal dot c_j . c_j has v = w)
    v = [Sym(f"v{k}") for k in range(8)]
    w = [Sym(f"w{k}") for k in range(8)]
    names = {s.text: s for s in v + w}
    vw, ww = linalg._dots([v], w)[0].text, linalg._dots([w], w)[0].text
    assert vw == "(" * 8 + "0.0" + "".join(f"+v{k}*w{k})" for k in range(8))
    assert _headed_dots(Matrix.__mul__, names) == [vw]
    assert _headed_dots(linalg.is_orthogonal, names) == sorted([vw, ww])


def test_no_float_path_calls_builtin_sum():
    # CPython 3.12 made sum() of floats compensated, so a float sum would give
    # other bits on other versions; every float dot and norm adds in index
    # order itself (linalg._dots, functools.reduce).  The sums left are exact
    # on every version: integer parts of kernel forms, or a count of bools.
    allowed = {
        ("kernel", "matmul"),  # integer numerators
        ("kernel", "zdot"),  # integer numerators
        ("octonion", "_rational_unit_form"),  # integer draws
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
    # equal, not a subset, so an entry no code needs any more fails too
    assert found == allowed, (sorted(found - allowed), sorted(allowed - found))


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
        eps, out = transform(m, Octonion._of_floats(EPS, tuple(v)))._floats()
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


def straight_defect(acols, bcols, ccols):
    """_triality_defect as written before it skipped pairs within the
    running worst: max(abs(t_k - <line k>)) on every pair."""
    neg = [tuple([-v for v in col]) for col in bcols]
    worst, at = 0.0, (0, 0)
    for i, row in enumerate(TABLE):
        x0, x1, x2, x3, x4, x5, x6, x7 = ccols[i]
        targets = [bcols[k] if s > 0 else neg[k] for s, k in row]
        pairs = enumerate(zip(acols, targets))
        for j, ((y0, y1, y2, y3, y4, y5, y6, y7), (t0, t1, t2, t3, t4, t5, t6, t7)) in pairs:
            r = max(
                abs(t0 - (0.0 + x0*y0 - x1*y1 - x2*y2 - x3*y3 - x4*y4 - x5*y5 - x6*y6 - x7*y7)),
                abs(t1 - (0.0 + x0*y1 + x1*y0 + x2*y3 - x3*y2 + x4*y5 - x5*y4 - x6*y7 + x7*y6)),
                abs(t2 - (0.0 + x0*y2 - x1*y3 + x2*y0 + x3*y1 + x4*y6 + x5*y7 - x6*y4 - x7*y5)),
                abs(t3 - (0.0 + x0*y3 + x1*y2 - x2*y1 + x3*y0 + x4*y7 - x5*y6 + x6*y5 - x7*y4)),
                abs(t4 - (0.0 + x0*y4 - x1*y5 - x2*y6 - x3*y7 + x4*y0 + x5*y1 + x6*y2 + x7*y3)),
                abs(t5 - (0.0 + x0*y5 + x1*y4 - x2*y7 + x3*y6 - x4*y1 + x5*y0 - x6*y3 + x7*y2)),
                abs(t6 - (0.0 + x0*y6 + x1*y7 + x2*y4 - x3*y5 - x4*y2 + x5*y3 + x6*y0 - x7*y1)),
                abs(t7 - (0.0 + x0*y7 - x1*y6 + x2*y5 + x3*y4 - x4*y3 - x5*y2 + x6*y1 + x7*y0)))
            if r > worst:
                worst, at = r, (i, j)
    return at, worst


def full_pairs(acols, bcols, ccols):
    """The pairs whose deviations do not all lie within the running worst
    (a nan among them): those the sweep must take through abs and max."""
    worst, count = 0.0, 0
    for i in range(8):
        for j in range(8):
            prod = mul_lines(ccols[i], acols[j], 0.0)
            s, k = TABLE[i][j]
            devs = list(map(abs, map(sub if s > 0 else add, bcols[k], prod)))
            if not all(d <= worst for d in devs):
                count += 1
                r = max(devs)
                if r > worst:
                    worst = r
    return count


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
        # the sweep on an unverified (A, B, C): the constructor would refuse it
        cols = triality._float_cols(a, b, c)[1]
        assert repr(triality._triality_defect(*cols)[1]) == repr(worst)
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


def edited(cols, edits):
    """Column sets with entries (column, coordinate, value) replaced."""
    cols = [list(map(list, m)) for m in cols]
    for m, col, r, v in edits:
        cols[m][col][r] = v
    return [tuple(map(tuple, m)) for m in cols]


def defect_cases(rng, g, perm):
    """Column sets for the sweep: verified, tampered, overflowed and edited
    ones.  perm's columns are signed basis vectors, so an edit of B there
    moves the eight pairs with that target by the same amount (ties between
    pairs), and a nan in coordinate 0 or 5 of a B column puts it first or
    later among a pair's deviations."""
    yield float_columns(g.A, g.B, g.C)
    yield float_columns(perm.A, perm.B, perm.C)
    for mats in tampered(rng, g):
        yield float_columns(*mats)
    for k in range(3):
        mats = [g.A, g.B, g.C]
        mats[k] = overflowed(mats[k])
        yield float_columns(*mats)
    base = float_columns(perm.A, perm.B, perm.C)
    k, r = rng.randrange(8), rng.randrange(8)
    yield edited(base, [(1, k, r, base[1][k][r] + 1.0)])
    yield edited(base, [(1, k, r, base[1][k][r] - 0.5), (1, (k + 1) % 8, r, 0.5)])
    yield edited(base, [(1, k, 0, math.nan)])
    yield edited(base, [(1, k, 5, math.nan), (1, (k + 3) % 8, 2, 2.0)])
    yield edited(base, [(1, k, r, -base[1][k][r])])  # -0.0 for 0.0, or a sign
    values = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.nan, math.inf, -math.inf, 1e308)
    for cols in (base, float_columns(g.A, g.B, g.C)):
        yield edited(cols, [(rng.randrange(3), rng.randrange(8), rng.randrange(8),
                             rng.choice(values)) for _ in range(rng.randrange(1, 5))])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_skipping_defect_matches_the_straight_sweep(seed):
    # a pair whose deviations all lie in [-worst, worst] is skipped: the
    # sweep returns the straight sweep's (pair, worst) by repr, and takes
    # abs and max on exactly the pairs that could raise worst
    rng = random.Random(seed)
    g = spin_from_unit(random_unit_octonion(rng, FB))
    perm = spin_from_unit(to_backend(Octonion.basis(rng.randrange(1, 9)), FB))
    maxes = []

    def counted_max(*args):
        maxes.append(1)
        return max(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triality, "max", counted_max, raising=False)
        for cols in defect_cases(rng, g, perm):
            del maxes[:]
            got = triality._triality_defect(*cols)
            assert repr(got) == repr(straight_defect(*cols))
            assert len(maxes) == full_pairs(*cols)


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
@given(st.integers(0, 2**32))
def test_lu_and_gram_match_the_loops_they_replaced(seed):
    rng = random.Random(seed)
    rotation = [list(r) for r in random_rotation(rng, FB)._fl[1]]
    big = [list(r) for r in overflowed(random_rotation(rng, FB))._fl[1]]
    for rows in [rotation, big, *lu_cases(rng, 8)]:
        assert repr(linalg._det_float(rows)) == repr(pivot_max_det(rows))
        finite = all(map(math.isfinite, (x for r in rows for x in r)))
        for eps in (EPS, 1e308):
            m = Matrix._of_floats(eps, tuple(map(tuple, rows)))
            # a nan defect now fails, so every non-finite matrix does
            assert linalg.is_orthogonal(m) is (finite and loop_gram_test(eps, rows))


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
    TrialityTriple(Matrix(g.A.rows), Matrix(g.B.rows), Matrix(g.C.rows))
    assert len(calls) == 9  # products, transposes and rebuilt matrices are tested


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


# --- the determinant's sign from construction against the LU it skips ------

def lu_verdict(m):
    """The SO(n) verdict with the LU run on every matrix."""
    return linalg.is_orthogonal(m) and linalg._det_float(m._fl[1]) > 0


def scaled(x, k):
    """x's floats times k, at x's tolerance."""
    eps, f = x._fl
    return Octonion._of_floats(eps, tuple(v * k for v in f))


def sign_cases(rng, eps):
    """Float matrices at tolerance eps from every site that sets _det_pos:
    translations and sandwiches of unit and non-unit octonions, products of
    verified matrices (an exact factor among them), transposes of verified
    matrices, and kmk of each.  Norms sit inside, at and beyond the edge of
    the Gram test."""
    fb = FloatBackend(eps)
    octs = [random_unit_octonion(rng, fb) for _ in range(3)]
    octs.append(to_backend(Octonion.basis(rng.randrange(1, 9)), fb))
    octs.append(cube_root_of_unity(random_imaginary_unit(rng, fb)))
    octs += [scaled(octs[0], math.sqrt(1 + k * eps)) for k in (-1.5, -1, -0.5, 0.5, 1, 1.5)]
    octs += [scaled(octs[1], k) for k in (0.5, 2.0)]
    made = [t(x) for x in octs for t in (left_translation, right_translation)]
    made += [sandwich_matrix(l, r) for l, r in zip(octs, octs[1:] + octs[:1])]
    made += [sandwich_matrix(x.conj(), x.conj()) for x in octs[:3]]
    verified = [m for m in made if is_special_orthogonal(m)]
    exact = left_translation(random_unit_octonion(rng, EXACT))
    assert is_special_orthogonal(exact)
    products = [a * b for a, b in zip(verified, verified[1:])]
    products += [exact * verified[0], verified[-1] * exact]
    products += [a * b for a, b in zip(products, products[1:])
                 if is_special_orthogonal(a) and is_special_orthogonal(b)]
    made += products
    made += [m.transpose() for m in made if is_special_orthogonal(m)]
    return made + [_kconj(m) for m in made]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([1e-15, 1e-9, 1e-4, 1 / 64]))
def test_proved_sign_gives_the_lu_verdict(seed, eps):
    # Every matrix built where _det_pos is set gets, without the LU, the
    # verdict the LU gives (the lemma in linalg._so8_verdict).
    rng = random.Random(seed)
    cases = sign_cases(rng, eps)
    verdicts = []
    for m in cases:
        assert m._det_pos and m._fl[0] == eps
        verdicts.append(linalg._so8_verdict(m))
        assert verdicts[-1] is lu_verdict(m)
    assert any(verdicts)
    # a product with an unknown or False factor, or the transpose of a
    # matrix whose verdict is unknown, proves nothing
    fresh = Matrix._of_floats(eps, cases[0]._fl[1])
    assert not (fresh * cases[0])._det_pos and not fresh.transpose()._det_pos
    assert not random_rotation(rng, FloatBackend(eps))._det_pos


def test_non_finite_matrices_fail_the_gram_test(monkeypatch):
    # a nan defect fails the Gram test, and a non-finite entry makes its
    # column's square norm inf or nan: every non-finite matrix, flagged or
    # not, gets False from the Gram test, and the LU does not run
    runs = []
    det = linalg._det_float
    monkeypatch.setattr(linalg, "_det_float", lambda rows: runs.append(1) or det(rows))

    def flagged(rows):
        m = Matrix._of_floats(1 / 64, tuple(map(tuple, rows)))
        m._det_pos = True
        return m

    eye = [[1.0 if i == j else 0.0 for j in range(8)] for i in range(8)]
    above = [r[:] for r in eye]
    above[2][5] = math.nan  # upper-triangular: the nan never reaches a pivot
    below = [r[:] for r in eye]
    below[5][2] = math.nan  # the update carries it to pivot 5
    rng = random.Random(12)
    g = spin_from_unit(random_unit_octonion(rng, FloatBackend(1 / 64)))
    tri = flagged(above)
    cases = [tri, flagged(below), _kconj(tri), tri * g.A, g.A * tri, tri.transpose()]
    cases += [flagged(overflowed(m)._fl[1]) for m in (g.A, g.B, g.C)]
    cases += [Matrix._of_floats(1 / 64, m._fl[1]) for m in cases]  # no flag
    for m in cases:
        assert not all(map(math.isfinite, (x for r in m._fl[1] for x in r)))
        del runs[:]
        assert linalg.is_orthogonal(m) is False
        assert linalg._so8_verdict(m) is False
        assert runs == []
    assert tri._det_pos and _kconj(tri)._det_pos  # the lemma's branch


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


# exact octonions with sqrt-3 parts: a float l with such an r reads R(r)'s
# rows from r's floats, signed copies of them
cube_roots = st.integers(2, 8).map(lambda k: cube_root_of_unity(Octonion.basis(k)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(octonions, mixed), st.one_of(octonions, mixed, cube_roots))
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

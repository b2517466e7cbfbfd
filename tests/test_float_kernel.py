"""The float kernel against the entrywise loops it replaces, bit for bit.

The oracles below are the float-backend loops from before the kernel: the
octonion product accumulated over TABLE (zero terms skipped, accumulator
starting at 0.0), generator-sum dot products, the worst-pair triality defect
built on that product, and entrywise ApproxReal comparison.  Floats are
compared by repr, which tells -0.0 from 0.0.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from spin8.checks import residual
from spin8.linalg import Matrix, is_special_orthogonal
from spin8.octonion import (
    TABLE,
    Octonion,
    mul_coeffs,
    mul_floats,
    random_unit_octonion,
    to_backend,
)
from spin8.scalars import ApproxReal, FloatBackend
from spin8.triality import (
    TrialityTriple,
    TrialityViolated,
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
    # line k adds +-x[p]*y[q], e_p e_q = +-e_k, in ascending p onto 0.0
    got = mul_floats([Sym(f"x{p}") for p in range(8)],
                     [Sym(f"y{q}") for q in range(8)])
    for k in range(8):
        want = "0.0"
        for p, row in enumerate(TABLE):
            (q, s), = [(q, s) for q, (s, kk) in enumerate(row) if kk == k]
            want = f"({want}{'+' if s > 0 else '-'}x{p}*y{q})"
        assert got[k].text == want


@settings(max_examples=300, deadline=None)
@given(vectors, vectors)
def test_product_matches_table_loop(x, y):
    want = reprs(loop_product(x, y))
    assert reprs(mul_floats(x, y)) == want
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
    av = tuple(ApproxReal(c, EPS) for c in v)
    assert reprs(a.apply(av)) == reprs(loop_apply(ra, v))
    assert reprs(i8.apply(av)) == reprs(loop_apply(floats_of(i8), v))
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

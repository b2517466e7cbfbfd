import random

import pytest
from hypothesis import given, settings, strategies as st

from spin8.linalg import Matrix, is_special_orthogonal
from spin8.octonion import (
    NotImaginaryUnit,
    NotUnit,
    Octonion,
    cube_root_of_unity,
    ensure_imaginary_unit,
    ensure_unit,
    format_octonion,
    left_translation,
    parse_octonion,
    random_imaginary_unit,
    random_octonion,
    random_quaternion,
    random_unit_octonion,
    right_translation,
    table_rows,
    to_backend,
    transform,
    unit_product,
)
from spin8.scalars import (
    EXACT,
    ApproxReal,
    FloatBackend,
    ParseError,
    QuadExt,
    Rational,
    format_scalar,
)

e = Octonion.basis

# Independent oracle: the full unit table worked out by hand from the
# doubling rule (a,b)(c,d) = (ac - conj(d)b, da + b conj(c)) with the
# quaternion block 1, i, j, ij and the generator l in slot 5.  Signed
# 1-based indices: row * column.
HAND_TABLE = [
    [1,  2,  3,  4,  5,  6,  7,  8],
    [2, -1,  4, -3,  6, -5, -8,  7],
    [3, -4, -1,  2,  7,  8, -5, -6],
    [4,  3, -2, -1,  8, -7,  6, -5],
    [5, -6, -7, -8, -1,  2,  3,  4],
    [6,  5, -8,  7, -2, -1, -4,  3],
    [7,  8,  5, -6, -3,  4, -1, -2],
    [8, -7,  6,  5, -4, -3,  2, -1],
]


def test_table_matches_hand_oracle():
    for i in range(1, 9):
        for j in range(1, 9):
            s, k = unit_product(i, j)
            assert s * k == HAND_TABLE[i - 1][j - 1], (i, j)


def test_table_rows_strings():
    rows = table_rows()
    assert rows[0] == ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"]
    assert rows[1][2] == "e4"
    assert rows[2][1] == "-e4"
    assert rows[4][4] == "-e1"


def test_unit_is_identity():
    rng = random.Random(5)
    for _ in range(10):
        x = random_octonion(rng, EXACT)
        assert e(1) * x == x
        assert x * e(1) == x


def test_basis_products():
    assert e(2) * e(3) == e(4)
    assert e(3) * e(2) == -e(4)
    assert e(5) * e(6) == e(2)
    for i in range(2, 9):
        assert e(i) * e(i) == -e(1)


def test_conjugation():
    assert e(1).conj() == e(1)
    assert e(2).conj() == -e(2)
    rng = random.Random(6)
    for _ in range(25):
        x = random_octonion(rng, EXACT)
        y = random_octonion(rng, EXACT)
        assert (x * y).conj() == y.conj() * x.conj()
        assert x.conj().conj() == x


def test_norm_multiplicativity_and_alternativity():
    rng = random.Random(7)
    for _ in range(25):
        x = random_octonion(rng, EXACT)
        y = random_octonion(rng, EXACT)
        assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)
        # two-generator associativity
        assert (x * y) * x == x * (y * x)
        assert x.conj() * (x * y) == (x.conj() * x) * y


def test_nonassociative_in_general():
    assert (e(2) * e(3)) * e(5) != e(2) * (e(3) * e(5))


def test_left_translation():
    assert left_translation(e(1)) == Matrix.identity(8)
    assert transform(left_translation(e(2)), e(1)) == e(2)
    rng = random.Random(9)
    for _ in range(10):
        s = random_unit_octonion(rng, EXACT)
        x = random_octonion(rng, EXACT)
        ls = left_translation(s)
        assert is_special_orthogonal(ls)
        assert left_translation(s.conj()) * ls == Matrix.identity(8)
        assert transform(ls, x) == s * x
        # linear in s: L(s + x) = L(s) + L(x)
        sx = Octonion(a + b for a, b in zip(s.coeffs, x.coeffs))
        lx = left_translation(x)
        assert left_translation(sx) == Matrix(
            [[a + b for a, b in zip(r, q)] for r, q in zip(ls.rows, lx.rows)])


def test_sandwich_identity():
    rng = random.Random(10)
    for _ in range(10):
        s = random_octonion(rng, EXACT)
        x = random_octonion(rng, EXACT)
        lhs = left_translation(s) * left_translation(x) * left_translation(s)
        assert lhs == left_translation(s * (x * s))
        assert s * (x * s) == (s * x) * s  # flexibility makes sxs unambiguous


def test_quaternion_switch_across_doubling_generator():
    rng = random.Random(11)
    lell = left_translation(e(5))
    for _ in range(10):
        h = random_quaternion(rng, EXACT)
        assert left_translation(h) * lell == lell * left_translation(h.conj())


def test_right_translation():
    rng = random.Random(12)
    x = random_octonion(rng, EXACT)
    y = random_octonion(rng, EXACT)
    assert transform(right_translation(x), y) == y * x


def test_cube_root_of_unity_canonical():
    s = cube_root_of_unity(e(2))
    assert s.coeffs[0] == Rational(-1, 2)
    assert s.coeffs[1] == QuadExt(0, Rational(1, 2))
    assert all(c == 0 for c in s.coeffs[2:])
    assert s * s == s.conj()
    assert s * (s * s) == e(1)
    assert s != e(1)
    assert s * s.conj() == e(1) == s.conj() * s


def test_cube_root_of_unity_random_rational():
    rng = random.Random(13)
    for _ in range(10):
        v = random_imaginary_unit(rng, EXACT)
        s = cube_root_of_unity(v)
        assert s * s == s.conj()
        assert s * (s * s) == e(1)
        assert cube_root_of_unity(-v) == s.conj()


def test_cube_root_rejects_non_imaginary():
    with pytest.raises(NotImaginaryUnit):
        cube_root_of_unity(e(1))
    with pytest.raises(NotImaginaryUnit):
        cube_root_of_unity(Octonion((0, Rational(1, 2), 0, 0, 0, 0, 0, 0)))


def test_ensure_unit():
    rng = random.Random(14)
    u = random_unit_octonion(rng, EXACT)
    assert ensure_unit(u) is u
    with pytest.raises(NotUnit):
        ensure_unit(Octonion(2 * c for c in u.coeffs))
    v = random_imaginary_unit(rng, EXACT)
    assert ensure_imaginary_unit(v) is v
    # floats: |x|^2 within the tolerance of 1, on a form and on scalars
    fb = FloatBackend(1e-9)
    w = random_unit_octonion(rng, fb)
    assert ensure_unit(w) is w and ensure_unit(w * w)
    with pytest.raises(NotUnit):
        ensure_unit(w * to_backend(Octonion((2, 0, 0, 0, 0, 0, 0, 0)), fb))
    for slack, unit in ((0.5e-9, True), (2e-9, False)):
        x = Octonion([ApproxReal((1 + slack) ** 0.5, 1e-9)] + [0] * 7)
        assert x.is_unit() is unit and x.conj().is_unit() is unit


def test_exact_equality_reads_the_whole_form():
    # reduced forms (d, a, b) that differ only in d, only in b, only in a
    half, third = Rational(1, 2), Rational(1, 3)
    pairs = [
        ([half] + [0] * 7, [third] + [0] * 7),
        ([0, QuadExt(half, half)] + [0] * 6, [0, QuadExt(half, -half)] + [0] * 6),
        ([0, QuadExt(half, half)] + [0] * 6, [0, QuadExt(-half, half)] + [0] * 6),
    ]
    for a, b in pairs:
        x, y = Octonion(a), Octonion(b)
        assert x != y and x.conj() != y.conj() and x * e(2) != y * e(2)
        assert x == Octonion(a) and x * e(2) == Octonion(a) * e(2)


def test_exact_sampling_is_exactly_unit():
    rng = random.Random(15)
    for _ in range(20):
        assert random_unit_octonion(rng, EXACT).norm_sq() == 1
        w = random_imaginary_unit(rng, EXACT)
        assert w.norm_sq() == 1 and w.coeffs[0] == 0


def test_float_backend_products():
    fb = FloatBackend(1e-9)
    rng = random.Random(16)
    for _ in range(10):
        x = random_octonion(rng, fb)
        y = random_octonion(rng, fb)
        assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()
        assert x * (x * y) == (x * x) * y
    v = random_imaginary_unit(rng, fb)
    s = cube_root_of_unity(v)
    assert s * (s * s) == Octonion.one()


def test_parse_format_round_trip():
    text = "[-1/2, 1/2*r3, 0, 0, 0, 0, 0, 0]"
    x = parse_octonion(text, EXACT)
    assert x == cube_root_of_unity(e(2))
    assert parse_octonion(format_octonion(x), EXACT) == x
    with pytest.raises(ParseError):
        parse_octonion("[1, 2, 3]", EXACT)
    with pytest.raises(ParseError):
        parse_octonion("1, 2, 3, 4, 5, 6, 7, 8", EXACT)
    fb = FloatBackend(1e-9)
    xf = parse_octonion("[0.5, 0, 0, 0, 0, 0, 0, 0]", fb)
    assert xf.coeffs[0].value == 0.5


# --- the form-based formatter against format_scalar ---------------------------

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=30)
exact_scalars = st.one_of(
    st.integers(-30, 30),
    rationals,
    # a and b each zero or not, of either sign: they decide "+" and "-"
    st.builds(QuadExt, st.one_of(st.just(0), rationals), rationals),
)
exact_octonions = st.lists(exact_scalars, min_size=8, max_size=8).map(Octonion)
EPS = 1e-9
float_octonions = st.lists(
    st.one_of(st.just(0), st.sampled_from([0.0, -0.0]),
              st.floats(min_value=-1e100, max_value=1e100)),
    min_size=8, max_size=8,
).map(lambda vs: Octonion([ApproxReal(v, EPS) if type(v) is float else v for v in vs]))


def scalar_literal(x):
    return "[" + ", ".join(format_scalar(c) for c in x.coeffs) + "]"


@settings(max_examples=300, deadline=None)
@given(exact_octonions, exact_octonions)
def test_format_octonion_matches_format_scalar(x, y):
    # built from scalars, and computed on the kernel form
    for z in (x, x * y, x.conj(), -y):
        assert format_octonion(z) == scalar_literal(z)
        assert parse_octonion(format_octonion(z), EXACT) == z


@settings(max_examples=200, deadline=None)
@given(float_octonions, float_octonions)
def test_float_format_round_trip(x, y):
    fb = FloatBackend(EPS)
    for z in (x, x * y, x.conj(), -y):
        text = format_octonion(z)
        assert text == scalar_literal(z)
        assert parse_octonion(text, fb) == z


def test_float_forms_keep_the_exact_zero():
    s = cube_root_of_unity(parse_octonion("[0, 0.6, -0.0, -0.8, 0, 0, 0, 0]",
                                          FloatBackend(EPS)))
    assert format_octonion(s) == (
        "[-0.5, 0.5196152422706631, 0, -0.6928203230275509, 0, 0, 0, 0]")
    assert format_octonion(s.conj()).endswith("0.6928203230275509, 0, 0, 0, 0]")
    one = Octonion([ApproxReal(1.0, EPS)] + [ApproxReal(0.0, EPS)] * 7)
    assert format_octonion(one.conj()) == "[1.0" + ", -0.0" * 7 + "]"
    assert s.coeffs[2] == 0 and type(s.coeffs[2]) is int

import random

import pytest

from spin8.linalg import (
    DimensionMismatch,
    Matrix,
    is_orthogonal,
    is_special_orthogonal,
    random_rotation,
    trace_inner_product,
)
from spin8.octonion import (
    Octonion,
    cube_root_of_unity,
    left_translation,
    random_imaginary_unit,
    random_unit_octonion,
    right_translation,
    transform,
)
from spin8.scalars import EXACT, ApproxReal, FloatBackend, QuadExt, Rational


def test_identity_and_multiply():
    i8 = Matrix.identity(8)
    rng = random.Random(1)
    m = random_rotation(rng, EXACT)
    assert i8 * m == m
    assert m * i8 == m
    assert m.transpose().transpose() == m
    # Q(sqrt 3) products, and mixed with a rational factor, entry by entry
    s = cube_root_of_unity(random_imaginary_unit(rng, EXACT))
    t = cube_root_of_unity(random_imaginary_unit(rng, EXACT))
    for a, b in ((left_translation(s), right_translation(t)),
                 (left_translation(s), m), (m, left_translation(t))):
        ab = a * b
        for i in range(8):
            for j in range(8):
                terms = (a.rows[i][k] * b.rows[k][j] for k in range(8))
                assert ab.rows[i][j] == sum(terms, QuadExt(0))
    # products compare on their whole scaled form: denominator, integer
    # parts and sqrt-3 parts
    half = i8.scale(Rational(1, 2)) * i8
    assert half != i8 * i8
    assert half * i8.scale(2) == i8 * i8
    assert i8.scale(QuadExt(1, 1)) * i8 != i8 * i8


def test_exact_equality_reads_the_whole_form():
    # one path: exact matrices compare their reduced kernel forms, whether
    # built from rows or computed on a form
    rng = random.Random(9)
    m = random_rotation(rng, EXACT)
    s = cube_root_of_unity(random_imaginary_unit(rng, EXACT))
    for prod in (m * m, left_translation(s) * m, left_translation(s) * right_translation(s)):
        rows = Matrix(prod.rows)
        assert rows == prod and prod == rows
        assert rows.transpose() == prod.transpose()
        assert Matrix(zip(*prod.rows)) == prod.transpose()
        assert rows.transpose().transpose() == prod
        assert rows != prod.transpose() and prod.transpose() != rows
    # QuadExt(x, 0) entries are the rationals they equal
    half, third = Rational(1, 2), Rational(1, 3)
    assert Matrix([[QuadExt(half, 0), 0], [0, QuadExt(2, 0)]]) == Matrix([[half, 0], [0, 2]])
    assert Matrix([[2, 0], [0, 1]]) == Matrix([[Rational(4, 2), 0], [0, QuadExt(1)]])
    # rows that differ only in d, only in a sqrt-3 part, only in a rational part
    r = QuadExt(half, half)
    pairs = [
        ([[half, 0], [0, half]], [[third, 0], [0, third]]),
        ([[r, 0], [0, 1]], [[QuadExt(half, -half), 0], [0, 1]]),
        ([[r, 0], [0, 1]], [[QuadExt(-half, half), 0], [0, 1]]),
    ]
    i2 = Matrix.identity(2)
    for a, b in pairs:
        x, y = Matrix(a), Matrix(b)
        assert x != y and x.transpose() != y.transpose() and x * i2 != y * i2
        assert x == Matrix(a) and x * i2 == Matrix(a) and x.transpose() == Matrix(a)  # diagonal


def test_transpose_of_product():
    rng = random.Random(2)
    a = random_rotation(rng, EXACT)
    b = random_rotation(rng, EXACT)
    assert (a * b).transpose() == b.transpose() * a.transpose()


def test_apply():
    l2 = left_translation(Octonion.basis(2))
    assert transform(l2, Octonion.basis(1)) == Octonion.basis(2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3, 4]]) * Matrix.identity(3)
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2, 3], [4, 5, 6]])


def test_det_exact():
    assert Matrix.identity(8).det() == 1
    assert Matrix([[0, 1], [1, 0]]).det() == -1
    assert Matrix([[Rational(1, 2), 0], [0, Rational(1, 3)]]).det() == Rational(1, 6)
    # a known 3x3 with fractions: det = 1/2*(1*4-2*3) - ... computed by cofactors
    m = Matrix([
        [Rational(1, 2), 1, 2],
        [0, 1, 3],
        [1, 0, 1],
    ])
    assert m.det() == Rational(1, 2) * (1 - 0) - 1 * (0 - 3) + 2 * (0 - 1)
    # singular
    assert Matrix([[1, 2], [2, 4]]).det() == 0


def test_det_quadext():
    r3 = QuadExt(0, 1)
    m = Matrix([[r3, 1], [1, r3]])
    assert m.det() == 2
    m2 = Matrix([[r3, 0, 0], [0, r3, 0], [0, 0, r3]])
    assert m2.det() == QuadExt(0, 3)
    # L(s) for a cube root of unity s is a rotation; negating one column
    # flips the sign of its determinant
    ls = left_translation(cube_root_of_unity(Octonion.basis(2)))
    assert ls.det() == 1
    flipped = Matrix([(-row[0],) + row[1:] for row in ls.rows])
    assert flipped.det() == -1
    assert is_orthogonal(flipped) and not is_special_orthogonal(flipped)
    # a zero first pivot forces a row swap, here in a singular and a regular
    # matrix
    assert Matrix([[0, r3, 1], [r3, 0, 1], [r3, 0, 1]]).det() == 0
    assert Matrix([[0, r3], [1, 1]]).det() == -r3


def test_det_float_matches_exact():
    rng = random.Random(3)
    fb = FloatBackend(1e-9)
    for _ in range(5):
        grid = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)]
        exact = Matrix(grid).det()
        approx = Matrix([[fb.scalar(e) for e in row] for row in grid]).det()
        assert isinstance(approx, ApproxReal)
        assert abs(float(exact) - approx.value) < 1e-9


def test_special_orthogonal_predicate():
    assert is_special_orthogonal(Matrix.identity(8))
    reflect = [[(-1 if i == j == 0 else (1 if i == j else 0)) for j in range(8)]
               for i in range(8)]
    assert is_orthogonal(Matrix(reflect))
    assert not is_special_orthogonal(Matrix(reflect))
    assert not is_special_orthogonal(Matrix.identity(8).scale(2))
    # (1 + sqrt 3)/2 has rational part of its square 1 but is not a unit
    half_unit = QuadExt(Rational(1, 2), Rational(1, 2))
    assert not is_orthogonal(Matrix.identity(8).scale(half_unit))


def test_left_translation_of_unit_is_rotation():
    rng = random.Random(4)
    for _ in range(5):
        s = random_unit_octonion(rng, EXACT)
        assert is_special_orthogonal(left_translation(s))


def test_so_closed_under_product_and_transpose():
    rng = random.Random(5)
    for backend in (EXACT, FloatBackend(1e-9)):
        a = random_rotation(rng, backend)
        b = random_rotation(rng, backend)
        assert is_special_orthogonal(a)
        assert is_special_orthogonal(a * b)
        assert is_special_orthogonal(a.transpose())
        d = a.det()
        assert d == 1 if backend.exact else abs(d.value - 1.0) < 1e-9


def test_trace_inner_product():
    i16 = Matrix.identity(16)
    assert trace_inner_product(i16, i16) == 1
    assert trace_inner_product(Matrix.identity(8), Matrix.identity(8)) == 1
    rng = random.Random(6)
    a = random_rotation(rng, EXACT)
    b = random_rotation(rng, EXACT)
    # symmetry and bilinearity spot checks
    assert trace_inner_product(a, b) == trace_inner_product(b, a)
    assert trace_inner_product(a.scale(2), b) == 2 * trace_inner_product(a, b)


def test_matrix_json_round_trip():
    rng = random.Random(8)
    m = random_rotation(rng, EXACT)
    assert Matrix.from_json(m.to_json(), EXACT) == m
    fb = FloatBackend(1e-9)
    mf = random_rotation(rng, fb)
    assert Matrix.from_json(mf.to_json(), fb) == mf
    assert Matrix.from_json([["1/2", "0"], ["0", "2"]], EXACT).det() == 1


def test_float_matrix_ops_fast_path():
    fb = FloatBackend(1e-9)
    rng = random.Random(7)
    a = random_rotation(rng, fb)
    b = random_rotation(rng, fb)
    ab = a * b
    assert all(isinstance(x, ApproxReal) for row in ab.rows for x in row)
    assert ab == Matrix([[sum(float(a.rows[i][k]) * float(b.rows[k][j])
                              for k in range(8)) for j in range(8)]
                         for i in range(8)]).scale(fb.scalar(1))
    v = Octonion(tuple(fb.scalar(c) for c in Octonion.basis(3).coeffs))
    av = transform(a, v).coeffs
    assert all(isinstance(x, ApproxReal) for x in av)

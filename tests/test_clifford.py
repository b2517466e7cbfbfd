import random

import pytest

from spin8.clifford import (
    NotVectorShaped,
    ad_conjugate,
    classify_parity,
    clifford_embed,
    recover_vector,
)
from spin8.linalg import (
    DimensionMismatch,
    Matrix,
    NotOrthogonal,
    random_rotation,
    trace_inner_product,
)
from spin8.octonion import (
    Octonion,
    random_octonion,
    random_unit_octonion,
    to_backend,
    transform,
)
from spin8.sampling import random_triple
from spin8.scalars import EXACT, FloatBackend
from spin8.triality import spin_from_unit

e = Octonion.basis
Z8 = Matrix(((0,) * 8,) * 8)


def test_embed_of_unit_has_identity_blocks():
    m = clifford_embed(e(1))
    i8 = Matrix.identity(8)
    assert Matrix(tuple(row[8:] for row in m.rows[:8])) == -i8
    assert Matrix(tuple(row[:8] for row in m.rows[8:])) == i8
    assert Matrix(tuple(row[:8] for row in m.rows[:8])) == Z8
    assert m.blocks() == (Z8, -i8, i8, Z8)


def test_embed_parity_and_products():
    x = clifford_embed(e(2))
    y = clifford_embed(e(3))
    assert classify_parity(x) == "odd"
    assert classify_parity(x * y) == "even"
    assert classify_parity((x * y) * clifford_embed(e(5))) == "odd"
    assert classify_parity(Matrix.identity(16)) == "even"
    mixed = Matrix([[a + b for a, b in zip(ra, rb)]
                    for ra, rb in zip(Matrix.identity(16).rows, x.rows)])
    assert classify_parity(mixed) == "mixed"
    fx = clifford_embed(to_backend(e(2), FloatBackend(1e-9)))
    assert classify_parity(fx) == "odd" and classify_parity(fx * fx) == "even"


def test_embed_isometry():
    assert trace_inner_product(clifford_embed(e(2)), clifford_embed(e(3))) == 0
    rng = random.Random(1)
    for _ in range(10):
        x = random_octonion(rng, EXACT)
        y = random_octonion(rng, EXACT)
        assert trace_inner_product(clifford_embed(x), clifford_embed(y)) == \
            sum(a * b for a, b in zip(x.coeffs, y.coeffs))
    u = random_unit_octonion(rng, EXACT)
    assert trace_inner_product(clifford_embed(u), clifford_embed(u)) == 1


def test_clifford_relation():
    sq = clifford_embed(e(2)) * clifford_embed(e(2))
    assert sq == -Matrix.identity(16)
    rng = random.Random(2)
    x = random_octonion(rng, EXACT)
    sq = clifford_embed(x) * clifford_embed(x)
    assert sq == Matrix.identity(16).scale(-x.norm_sq())


def test_recover_round_trip():
    rng = random.Random(3)
    assert recover_vector(clifford_embed(e(2))) == e(2)
    for _ in range(5):
        x = random_octonion(rng, EXACT)
        assert recover_vector(clifford_embed(x)) == x


def test_recover_rejects_wrong_parity():
    with pytest.raises(NotVectorShaped):
        recover_vector(Matrix.identity(16))


def test_recover_rejects_partial_match():
    # right parity, but the off blocks are not translations of one vector
    m = clifford_embed(e(2))
    rows = [list(r) for r in m.rows]
    rows[8][3] = rows[8][3] + 1
    with pytest.raises(NotVectorShaped):
        recover_vector(Matrix(rows))


def test_ad_conjugate_identity_pair():
    x = Octonion((0, 1, 0, 0, 1, 0, 0, 0))  # e2 + e5
    assert ad_conjugate(Matrix.identity(8), Matrix.identity(8),
                        x) == clifford_embed(x)


def test_ad_conjugate_requires_rotations():
    with pytest.raises(NotOrthogonal):
        ad_conjugate(Matrix.identity(8).scale(2), Matrix.identity(8), e(2))


def test_ad_conjugate_spin_pair_recovers_third_rotation():
    rng = random.Random(4)
    for backend in (EXACT, FloatBackend(1e-9)):
        g = random_triple(rng, backend, max_len=2)
        for _ in range(3):
            x = random_octonion(rng, backend)
            w = recover_vector(ad_conjugate(g.A, g.B, x))
            assert w == transform(g.C, x)


def test_sandwich_pair_conjugates_by_unit():
    # with A = L(s), B = L(conj s) the recovered map is x -> conj(s) x conj(s)
    rng = random.Random(5)
    s = random_unit_octonion(rng, EXACT)
    g = spin_from_unit(s)
    sb = s.conj()
    for _ in range(5):
        x = random_octonion(rng, EXACT)
        w = recover_vector(ad_conjugate(g.A, g.B, x))
        assert w == sb * (x * sb)


def test_generic_pair_fails_shape_test():
    rng = random.Random(6)
    a = random_rotation(rng, EXACT)
    b = random_rotation(rng, EXACT)
    with pytest.raises(NotVectorShaped):
        recover_vector(ad_conjugate(a, b, e(2)))


def test_spin_pair_conjugation_agrees_with_triple_route():
    # Ad(diag(A, B)) maps each basis embedding to the embedding of C e_i
    rng = random.Random(7)
    g = random_triple(rng, EXACT, max_len=2)
    for i in range(1, 9):
        assert recover_vector(ad_conjugate(g.A, g.B, e(i))) == transform(g.C, e(i))


def test_clifford_element_validates_size():
    # an element of the block model is a 16x16 matrix
    for m in (Matrix.identity(8), Matrix.identity(18)):
        with pytest.raises(DimensionMismatch):
            classify_parity(m)
        with pytest.raises(NotVectorShaped):
            recover_vector(m)

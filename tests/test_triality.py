import random

import pytest
from hypothesis import given, settings, strategies as st

from spin8.linalg import Matrix, NotOrthogonal, is_special_orthogonal, random_rotation
from spin8.octonion import (
    NotUnit,
    Octonion,
    cube_root_of_unity,
    left_translation,
    random_imaginary_unit,
    random_unit_octonion,
    right_translation,
    unit_product,
)
from spin8.sampling import (
    conjugation_triple,
    random_g2,
    random_gamma,
    random_triple,
)
from spin8.scalars import EXACT, FloatBackend, QuadExt
from spin8.triality import (
    GammaElement,
    SemidirectElement,
    TrialityTriple,
    TrialityViolated,
    _kconj,
    apply_gamma,
    apply_sigma,
    apply_tau,
    is_g2,
    spin_from_unit,
    triple_from_pair,
)

e = Octonion.basis
# the matrix of octonion conjugation, k = diag(1, -1, ..., -1)
KAPPA = Matrix([[1 if i == j == 0 else (-1 if i == j else 0) for j in range(8)]
                for i in range(8)])


def test_identity_triple():
    g = TrialityTriple.identity()
    assert g.A == Matrix.identity(8)


def test_sign_flip_violates():
    i8 = Matrix.identity(8)
    with pytest.raises(TrialityViolated) as exc:
        TrialityTriple(i8, i8, -i8)
    # worst pair is reported with its residual; at x = y = e1 the two sides
    # differ by 2
    assert exc.value.pair == (0, 0)
    assert exc.value.residual == 2
    # the same on a Q(sqrt 3) triple: L(s), L(conj s) and C negated
    g = spin_from_unit(cube_root_of_unity(e(2)))
    with pytest.raises(TrialityViolated) as exc:
        TrialityTriple(g.A, g.B, -g.C)
    assert exc.value.residual > 1


def test_non_orthogonal_rejected():
    i8 = Matrix.identity(8)
    with pytest.raises(NotOrthogonal):
        TrialityTriple(i8.scale(2), i8, i8)
    g = spin_from_unit(cube_root_of_unity(e(2)))
    with pytest.raises(NotOrthogonal):
        TrialityTriple(g.A.scale(2), g.B, g.C)


def test_spin_from_unit():
    assert spin_from_unit(e(1)) == TrialityTriple.identity()
    g = spin_from_unit(e(2))
    assert g.A == left_translation(e(2))
    rng = random.Random(1)
    for _ in range(5):
        s = random_unit_octonion(rng, EXACT)
        g = spin_from_unit(s)
        assert g.A == left_translation(s)
        assert g.B == left_translation(s.conj())
    with pytest.raises(NotUnit):
        spin_from_unit(Octonion((0, 2, 0, 0, 0, 0, 0, 0)))


def test_group_laws():
    rng = random.Random(2)
    ident = TrialityTriple.identity()
    g = random_triple(rng, EXACT, max_len=2)
    h = random_triple(rng, EXACT, max_len=2)
    assert g * ident == g
    assert g * g.inverse() == ident
    assert (g * h).inverse() == h.inverse() * g.inverse()
    assert g.inverse().A == g.A.transpose()


def test_spin_from_unit_inverse_is_conjugate():
    rng = random.Random(3)
    s = random_unit_octonion(rng, EXACT)
    assert spin_from_unit(s).inverse() == spin_from_unit(s.conj())


def test_cube_root_product_collapses():
    v = Octonion.basis(2)
    s = cube_root_of_unity(v)
    assert spin_from_unit(s) * spin_from_unit(s.conj()) == TrialityTriple.identity()


def test_closure_of_products():
    rng = random.Random(4)
    for backend in (EXACT, FloatBackend(1e-9)):
        for _ in range(5):
            g = random_triple(rng, backend, max_len=3)
            h = random_triple(rng, backend, max_len=3)
            gh = g * h  # construction would raise if the identity failed
            assert is_special_orthogonal(gh.A)


def test_kappa_conjugate():
    i8 = Matrix.identity(8)
    assert _kconj(i8) == i8
    # the conjugation matrix itself is not a rotation (det = -1)
    assert not is_special_orthogonal(KAPPA)
    # k L(conj s) k is the right translation x -> x s
    rng = random.Random(5)
    s = random_unit_octonion(rng, EXACT)
    assert _kconj(left_translation(s.conj())) == right_translation(s)
    assert KAPPA * left_translation(s.conj()) * KAPPA == right_translation(s)


def test_tau_order_three_and_components():
    rng = random.Random(6)
    for _ in range(5):
        g = random_triple(rng, EXACT, max_len=2)
        assert apply_tau(apply_tau(apply_tau(g))) == g
    s = random_unit_octonion(rng, EXACT)
    g = spin_from_unit(s)
    t = apply_tau(g)
    # components: (right translation by s, x -> s x s, L(s))
    assert t.A == right_translation(s)
    assert t.C == left_translation(s)
    sxs = Matrix(tuple(zip(*[(s * (e(j) * s)).coeffs for j in range(1, 9)])))
    assert t.B == sxs
    # tau^2 components are (C, kAk, kBk)
    t2 = apply_tau(t)
    assert t2.A == g.C
    assert t2.B == KAPPA * g.A * KAPPA
    assert t2.C == KAPPA * g.B * KAPPA


def test_sigma_involution_and_components():
    rng = random.Random(7)
    g = random_triple(rng, EXACT, max_len=2)
    sg = apply_sigma(g)
    assert sg.A == g.B and sg.B == g.A
    assert apply_sigma(sg) == g


def test_sigma_tau_sigma_is_tau_inverse():
    rng = random.Random(8)
    for backend in (EXACT, FloatBackend(1e-9)):
        g = random_triple(rng, backend, max_len=2)
        assert apply_sigma(apply_tau(apply_sigma(g))) == apply_tau(apply_tau(g))


def test_automorphism_property():
    rng = random.Random(9)
    g = random_triple(rng, EXACT, max_len=2)
    h = random_triple(rng, EXACT, max_len=2)
    assert apply_tau(g * h) == apply_tau(g) * apply_tau(h)
    assert apply_sigma(g * h) == apply_sigma(g) * apply_sigma(h)


WORDS = {"e": GammaElement(0, 0), "t": GammaElement(0, 1), "t2": GammaElement(0, 2),
         "s": GammaElement(1, 0), "st": GammaElement(1, 1), "st2": GammaElement(1, 2)}


def test_gamma_words():
    ge = WORDS.__getitem__
    assert ge("e").is_identity()
    assert ge("t") == GammaElement.tau()
    assert ge("st2") == GammaElement(1, 2)
    assert ge("t") * ge("t") == ge("t2")
    assert ge("t") * ge("t2") == ge("e")
    assert ge("s") * ge("s") == ge("e")
    # sigma tau sigma = tau^2 in the word group
    assert ge("s") * ge("t") * ge("s") == ge("t2")
    for w in GammaElement.all_elements():
        assert w * w.inverse() == ge("e")
        assert ge(w.word()) == w


def test_gamma_group_is_associative():
    elements = GammaElement.all_elements()
    assert len(elements) == 6
    for a in elements:
        for b in elements:
            for c in elements:
                assert (a * b) * c == a * (b * c)


def test_apply_gamma_is_an_action():
    rng = random.Random(10)
    g = random_triple(rng, EXACT, max_len=1)
    for w1 in GammaElement.all_elements():
        for w2 in GammaElement.all_elements():
            assert apply_gamma(w1 * w2, g) == apply_gamma(w1, apply_gamma(w2, g))
    # composition order: "st" means sigma after tau
    assert apply_gamma(WORDS["st"], g) == apply_sigma(apply_tau(g))
    # tau^2 sends (A,B,C) to (C, kAk, kBk)
    t2 = apply_gamma(WORDS["t2"], g)
    assert t2.A == g.C


def test_semidirect_multiplication():
    rng = random.Random(11)
    g = random_triple(rng, EXACT, max_len=1)
    h = random_triple(rng, EXACT, max_len=1)
    ident = GammaElement.identity()
    assert (SemidirectElement(g, ident) * SemidirectElement(h, ident)
            == SemidirectElement(g * h, ident))
    tau_w = GammaElement.tau()
    lhs = SemidirectElement(TrialityTriple.identity(), tau_w) * SemidirectElement(g, ident)
    assert lhs == SemidirectElement(apply_tau(g), tau_w)


def test_semidirect_associativity_and_inverse():
    rng = random.Random(12)
    for backend in (EXACT, FloatBackend(1e-9)):
        a, b, c = (SemidirectElement(random_triple(rng, backend, 1), random_gamma(rng))
                   for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == SemidirectElement.identity()
        assert a.inverse() * a == SemidirectElement.identity()


def test_is_g2():
    assert is_g2(TrialityTriple.identity())
    rng = random.Random(13)
    s = random_unit_octonion(rng, EXACT)
    if s != e(1):
        assert not is_g2(spin_from_unit(s))
    k = conjugation_triple(rng, EXACT)
    assert is_g2(k)
    assert apply_tau(k) == k
    assert apply_sigma(k) == k
    kk = random_g2(rng, EXACT)
    assert is_g2(kk)
    # tau-fixed implies diagonal on samples: a non-diagonal triple moves
    g = random_triple(rng, EXACT, max_len=2)
    if not (g.A == g.B and g.A == g.C):
        assert apply_tau(g) != g


def test_triple_from_pair():
    rng = random.Random(14)
    for backend in (EXACT, FloatBackend(1e-9)):
        g = random_triple(rng, backend, max_len=2)
        assert triple_from_pair(g.A, g.B) == g
    from spin8.linalg import random_rotation

    a = random_rotation(rng, EXACT)
    b = random_rotation(rng, EXACT)
    with pytest.raises(TrialityViolated):
        triple_from_pair(a, b)


def test_float_residual_is_small():
    rng = random.Random(15)
    g = random_triple(rng, FloatBackend(1e-9), max_len=3)
    assert g.triality_residual() < 1e-12


def test_triple_json_round_trip():
    rng = random.Random(16)
    g = random_triple(rng, EXACT, max_len=2)
    again = TrialityTriple.from_json(g.to_json(), EXACT)
    assert again == g
    # tampered components no longer verify
    obj = g.to_json()
    obj["C"], obj["B"] = obj["B"], obj["C"]
    with pytest.raises((TrialityViolated, NotOrthogonal)):
        TrialityTriple.from_json(obj, EXACT)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["word", "cube"]),
       st.sampled_from([EXACT, FloatBackend(1e-9)]))
def test_json_round_trip_properties(seed, kind, backend):
    # rational (or float) words, and the Q(sqrt 3) generator triples of cube
    # roots: from_json inverts to_json, and to_json is idempotent
    rng = random.Random(seed)
    if kind == "word":
        g = random_triple(rng, backend, max_len=3)
    else:
        g = spin_from_unit(cube_root_of_unity(random_imaginary_unit(rng, backend)))
    obj = g.to_json()
    h = TrialityTriple.from_json(obj, backend)
    assert h == g
    assert h.to_json() == obj
    for m, n in ((g.A, h.A), (g.B, h.B), (g.C, h.C)):
        back = Matrix.from_json(m.to_json(), backend)
        assert back == m
        assert back.to_json() == m.to_json()
        for got in (n, back):
            if backend.exact:
                assert got._scaled() == m._scaled()
            else:
                assert [[repr(float(e)) for e in row] for row in got.rows] == \
                    [[repr(float(e)) for e in row] for row in m.rows]


def _pairwise_triality(a, b, c):
    # B(e_i e_j) = (C e_i)(A e_j), coordinate by coordinate in the scalars
    terms = {r: [] for r in range(8)}
    for p in range(8):
        for q in range(8):
            sg, r = unit_product(p + 1, q + 1)
            terms[r - 1].append((sg, p, q))
    for i in range(8):
        for j in range(8):
            s, k = unit_product(i + 1, j + 1)
            for r in range(8):
                lhs = sum((sg * c.rows[p][i] * a.rows[q][j]
                           for sg, p, q in terms[r]), 0)
                if not lhs == s * b.rows[r][k - 1]:
                    return False
    return True


def test_verification_agrees_with_pairwise_check():
    # The constructor compares all 64 pairs at once on packed integers; it
    # must accept exactly the triples that pass pair by pair, rational and
    # Q(sqrt 3), with equal and with unequal denominators.
    rng = random.Random(17)
    s = cube_root_of_unity(random_imaginary_unit(rng, EXACT))
    valid = [
        random_triple(rng, EXACT, max_len=2),
        spin_from_unit(s),
        apply_tau(spin_from_unit(s)) * random_triple(rng, EXACT, max_len=1),
        conjugation_triple(rng, EXACT),
    ]
    for g in valid:
        assert _pairwise_triality(g.A, g.B, g.C)
        r = random_rotation(rng, EXACT, steps=3)
        # the Galois conjugate of B keeps every rational part of the right
        # side and flips its sqrt-3 parts
        galois = Matrix([[QuadExt(x.a, -x.b) if isinstance(x, QuadExt) else x
                          for x in row] for row in g.B.rows])
        for a, b, c in ((g.A, g.B, g.C * r), (g.A * r, g.B, g.C),
                        (g.A, r * g.B, g.C), (g.A, g.B, g.C.transpose()),
                        (g.A, galois, g.C)):
            ok = _pairwise_triality(a, b, c)
            try:
                TrialityTriple(a, b, c)
                built = True
            except TrialityViolated:
                built = False
            assert built == ok

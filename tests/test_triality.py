import random
from fractions import Fraction
from math import gcd

import pytest

import spin8.kernel as kernel
import spin8.linalg as linalg
import spin8.triality as triality
from spin8.linalg import Matrix, NotOrthogonal, is_special_orthogonal, random_rotation
from spin8.octonion import (
    NotUnit,
    Octonion,
    TABLE,
    cube_root_of_unity,
    left_translation,
    random_imaginary_unit,
    random_unit_octonion,
    right_translation,
    transform,
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
    _triality_holds,
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
    assert ge("e") == GammaElement(0, 0)
    assert ge("t") == GammaElement.tau()
    assert ge("st2") == GammaElement(1, 2)
    assert ge("t") * ge("t") == ge("t2")
    assert ge("t") * ge("t2") == ge("e")
    assert ge("s") * ge("s") == ge("e")
    # sigma tau sigma = tau^2 in the word group
    assert ge("s") * ge("t") * ge("s") == ge("t2")
    for w in GammaElement.all_elements():
        assert w * w.inverse() == ge("e")
    assert GammaElement(3, 4) == GammaElement(1, 1)
    words = GammaElement.all_elements()
    assert len(set(words)) == 6
    # s3-relations draws its triples over the words in this order
    assert words == list(WORDS.values())


def test_gamma_group_is_associative():
    elements = GammaElement.all_elements()
    assert len(elements) == 6
    for a in elements:
        for b in elements:
            for c in elements:
                assert (a * b) * c == a * (b * c)


def test_only_gamma_act_spells_out_a_word():
    # "tau t times, then sigma s times" is written once, in GammaElement.act,
    # for triples (apply_gamma) and sphere points (gamma_sphere) alike; the
    # two S3 value types are namedtuples and write no equality of their own
    import ast
    import importlib
    import inspect
    import pkgutil

    import spin8

    def word_loops(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from word_loops(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.For) and isinstance(child.iter, ast.Call)
                    and getattr(child.iter.func, "id", None) == "range"
                    and any(getattr(a, "attr", None) in ("s", "t") for a in child.iter.args)):
                yield scope
            yield from word_loops(child, scope)

    loops = []
    for info in pkgutil.iter_modules(spin8.__path__):
        source = inspect.getsource(importlib.import_module(f"spin8.{info.name}"))
        loops += word_loops(ast.parse(source), info.name)
    assert loops == ["triality.GammaElement.act", "triality.GammaElement.act"]
    for cls in (GammaElement, SemidirectElement):
        assert not {"__init__", "__eq__", "__hash__"} & set(vars(cls)), cls


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
    ident = GammaElement(0, 0)
    assert (SemidirectElement(g, ident) * SemidirectElement(h, ident)
            == SemidirectElement(g * h, ident))
    tau_w = GammaElement.tau()
    lhs = SemidirectElement(TrialityTriple.identity(), tau_w) * SemidirectElement(g, ident)
    assert lhs == SemidirectElement(apply_tau(g), tau_w)


def test_semidirect_associativity_and_inverse():
    rng = random.Random(12)
    ident = SemidirectElement(TrialityTriple.identity(), GammaElement(0, 0))
    for backend in (EXACT, FloatBackend(1e-9)):
        a, b, c = (SemidirectElement(random_triple(rng, backend, 1), random_gamma(rng))
                   for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == ident
        assert a.inverse() * a == ident


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


def test_a_triple_owns_its_residual(monkeypatch):
    # an exact triple satisfies the 64-pair identity exactly: its residual
    # is 0.0 without a sweep; a float triple's is its constructor's sweep
    rng = random.Random(17)
    exact = random_triple(rng, EXACT, max_len=3)
    fl = random_triple(rng, FloatBackend(1e-9), max_len=3)
    fresh = triality._triality_defect(*triality._float_cols(fl.A, fl.B, fl.C)[1])
    assert fl._defect == fresh

    def refuse(*cols):
        raise AssertionError("swept again")

    monkeypatch.setattr(triality, "_triality_defect", refuse)
    assert repr(exact.triality_residual()) == "0.0"
    assert repr(fl.triality_residual()) == repr(fresh[1])


def test_swapped_components_are_refused():
    rng = random.Random(16)
    g = random_triple(rng, EXACT, max_len=2)
    with pytest.raises((TrialityViolated, NotOrthogonal)):
        TrialityTriple(g.A, g.C, g.B)


def _pairwise_triality(a, b, c):
    # B(e_i e_j) = (C e_i)(A e_j), coordinate by coordinate in the scalars
    terms = {r: [] for r in range(8)}
    for p in range(8):
        for q in range(8):
            sg, r = TABLE[p][q]
            terms[r].append((sg, p, q))
    for i in range(8):
        for j in range(8):
            s, k = TABLE[i][j]
            for r in range(8):
                lhs = sum((sg * c.rows[p][i] * a.rows[q][j]
                           for sg, p, q in terms[r]), 0)
                if not lhs == s * b.rows[r][k]:
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
        r = random_rotation(rng, EXACT)
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


def _fresh(m):
    # the same matrix on its form, with no SO(8) verdict yet
    if m._fl is not None:
        return Matrix._of_floats(*m._fl)
    return Matrix._of_form(m._form)


def test_exact_verdicts_equal_a_fresh_verdict():
    # Every component of an exact triple holds its SO(8) verdict, carried by
    # exact algebra or computed by the constructor; each must be the one
    # linalg computes from scratch, Gram and determinant.
    rng = random.Random(19)
    samples = []
    for _ in range(3):
        g = random_triple(rng, EXACT, max_len=3)
        samples += [g, apply_tau(g), apply_sigma(g), apply_tau(apply_tau(g))]
        s = cube_root_of_unity(random_imaginary_unit(rng, EXACT))
        samples += [spin_from_unit(s), apply_tau(spin_from_unit(s)),
                    conjugation_triple(rng, EXACT)]
    for g in samples:
        for m in (g.A, g.B, g.C):
            assert m._so8 is True and linalg._so8_verdict(_fresh(m)) is True
        h = TrialityTriple(*map(_fresh, (g.A, g.B, g.C)))
        assert all(m._so8 is True for m in (h.A, h.B, h.C))


def test_verdicts_counted(monkeypatch):
    # One sequence on both backends: a triple of fresh matrices computes the
    # verdicts of A, B and C, an exact triple of carried verdicts computes
    # none, and every constructor, refused or not, runs the identity once:
    # the integer test on an exact triple, the float sweep on a float one.
    # A refused exact triple sweeps its floats once more, for the witness.
    rng = random.Random(20)
    g = random_triple(rng, EXACT, max_len=2)
    f = random_triple(rng, FloatBackend(1e-9), max_len=2)
    calls, holds, sweeps = [], [0], [0]

    def verdict(m, real=linalg._so8_verdict):
        calls.append(m)
        return real(m)

    def identity(*args, real=triality._triality_holds):
        holds[0] += 1
        return real(*args)

    def sweep(*cols, real=triality._triality_defect):
        sweeps[0] += 1
        return real(*cols)

    monkeypatch.setattr(linalg, "_so8_verdict", verdict)
    monkeypatch.setattr(triality, "_triality_holds", identity)
    monkeypatch.setattr(triality, "_triality_defect", sweep)
    TrialityTriple(g.A, g.B, g.C)
    assert calls == [] and holds == [1] and sweeps == [0]
    for t in (g, f):
        parts = list(map(_fresh, (t.A, t.B, t.C)))
        h = TrialityTriple(*parts)
        assert calls == parts and all(m._so8 is True for m in parts)
        calls.clear()
    assert holds == [2] and sweeps == [1]
    h.triality_residual()  # the constructor's sweep
    assert sweeps == [1]
    with pytest.raises(TrialityViolated):
        TrialityTriple(g.A, g.B * _R68, g.C)
    assert holds == [3] and sweeps == [2]
    with pytest.raises(TrialityViolated):
        TrialityTriple(f.A, f.B * _R68, f.C)
    assert holds == [3] and sweeps == [3]


def _failure(a, b, c):
    with pytest.raises((NotOrthogonal, TrialityViolated)) as exc:
        TrialityTriple(a, b, c)
    return exc.value


# B times the rotation by (3/5, 4/5) in the (e6, e8) plane: still in SO(8)
_R68 = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
_R68[5][5] = _R68[7][7] = Fraction(3, 5)
_R68[5][7], _R68[7][5] = Fraction(-4, 5), Fraction(4, 5)
_R68 = Matrix(_R68)


def _float_copy(m):
    return Matrix._of_floats(1e-9, m._floats()[1])


@pytest.mark.parametrize("kind, residual", [("word", 0.8), ("cube", 0.8928203230275509)])
def test_exact_failures_match_the_full_test(kind, residual):
    # Every triple, exact or float, runs one sequence: SO(8) of A, B, C and
    # then the identity, raising the first failure.  The pinned values are
    # those of that sequence: type, message, pair and residual.  A float
    # copy of each input fails the same way, with the same type, message
    # and pair.
    if kind == "word":
        g = random_triple(random.Random(18), EXACT, max_len=2)
    else:
        g = spin_from_unit(cube_root_of_unity(e(3)))
    one = Octonion.one()
    # improper: A = g.A k with B = L(c)A and C = R(conj a1)B is orthogonal
    # throughout with det -1, and the identity fails: were it to hold, A, B
    # and C would be in SO(8) (the principle of triality)
    a = g.A * KAPPA
    b = left_translation(transform(g.C, one)) * a
    c = right_translation(transform(a, one).conj()) * b
    assert all(map(linalg.is_orthogonal, (a, b, c))) and not _triality_holds(a, b, c)
    half = Fraction(1, 2)
    # one corrupted entry leaves B unorthogonal, so the SO(8) test names B
    rows = [list(r) for r in g.B.rows]
    rows[2][5] += Fraction(1, 7)
    cases = [
        ((a, b, c), "component A is not in SO(8)"),
        ((g.A, g.B, g.C.scale(2)), "component C is not in SO(8)"),
        # the identity holds on these two, so each SO(8) test is needed
        ((g.A.scale(half), g.B, g.C.scale(2)), "component A is not in SO(8)"),
        ((g.A, g.B.scale(2), g.C.scale(2)), "component B is not in SO(8)"),
        ((g.A, Matrix(rows), g.C), "component B is not in SO(8)"),
        ((g.A, g.B * _R68, g.C), None),
    ]
    for parts, message in cases:
        exc = _failure(*parts)
        if message is None:
            assert type(exc) is TrialityViolated
            assert exc.pair == (0, 5) and exc.residual == residual
        else:
            assert type(exc) is NotOrthogonal and str(exc) == message
        fl = _failure(*map(_float_copy, parts))
        assert type(fl) is type(exc) and str(fl) == str(exc)
        assert getattr(fl, "pair", None) == getattr(exc, "pair", None)


def _oracle_holds(a, b, c):
    # B(e_i e_j) = (C e_i)(A e_j) on all 64 pairs, entry by entry over
    # Q(sqrt 3): an entry is a pair (x, y) of Fractions for x + y sqrt 3,
    # read off the kernel form, and the product is summed from TABLE
    def entries(m):
        d, ra, rb = m._form
        return [[(Fraction(x, d), Fraction(y, d)) for x, y in zip(r, s)]
                for r, s in zip(ra, rb or [[0] * 8] * 8)]

    def times(u, v):
        return u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]

    ea, eb, ec = entries(a), entries(b), entries(c)
    for i in range(8):
        for j in range(8):
            lhs = [[Fraction(0), Fraction(0)] for _ in range(8)]
            for p in range(8):
                for q in range(8):
                    s, r = TABLE[p][q]
                    x, y = times(ec[p][i], ea[q][j])
                    lhs[r][0] += s * x
                    lhs[r][1] += s * y
            s, k = TABLE[i][j]
            if any(lhs[r] != [s * eb[r][k][0], s * eb[r][k][1]] for r in range(8)):
                return False
    return True


def _oracle_triples():
    # rational words, cube-root Q(sqrt 3) translations (of a basis unit and
    # of a random rational unit), each role-swapped as (B, A, C), and the
    # improper triple of each word (A k, L(c) A k, R(conj a1) B): orthogonal
    # with det -1, so the identity fails on it
    rng = random.Random(31)
    words = [random_triple(rng, EXACT, max_len=3) for _ in range(3)]
    cubes = [spin_from_unit(cube_root_of_unity(e(3))),
             spin_from_unit(cube_root_of_unity(random_imaginary_unit(rng, EXACT)))]
    one = Octonion.one()
    out = []
    for g in words + cubes:
        out += [(g.A, g.B, g.C), (g.B, g.A, g.C)]
        a = g.A * KAPPA
        b = left_translation(transform(g.C, one)) * a
        out.append((a, b, right_translation(transform(a, one).conj()) * b))
    return out


def test_packed_identity_matches_a_fraction_evaluation():
    verdicts = []
    for a, b, c in _oracle_triples():
        assert all(map(linalg.is_orthogonal, (a, b, c)))
        verdicts.append(_triality_holds(a, b, c))
        assert verdicts[-1] == _oracle_holds(a, b, c)
    # each verified triple holds and each improper one fails
    assert verdicts[0::3] == [True] * 5 and verdicts[2::3] == [False] * 5


def test_denominator_width_covers_the_entry_scan(monkeypatch):
    # the width from the denominators, the least width ``_triality_holds``
    # packs at, is at least the one a scan of the entries gives:
    # 32 max|C'| max|A'| db/g on the left and max|B'| dc*da/g on the right,
    # over both integer parts
    widths = []
    monkeypatch.setattr(triality, "pack",
                        lambda v, width: widths.append(width) or kernel.pack(v, width))

    def largest(form):
        d, ra, rb = form
        return max(abs(x) for r in ra + (rb or []) for x in r)

    for a, b, c in _oracle_triples():
        (da, _, _), (db, _, _), (dc, _, _) = a._form, b._form, c._form
        g = gcd(dc * da, db)
        scanned = max(32 * largest(c._form) * largest(a._form) * (db // g),
                      largest(b._form) * (dc * da // g)).bit_length() + 1
        widths.clear()
        _triality_holds(a, b, c)
        assert min(widths) >= scanned
        assert min(widths) == (32 * dc * da * (db // g)).bit_length() + 1

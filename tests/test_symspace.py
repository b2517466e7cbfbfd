import random

import pytest

from spin8.octonion import (
    NotUnit,
    Octonion,
    cube_root_of_unity,
    random_imaginary_unit,
    random_unit_octonion,
    to_backend,
)
from spin8.sampling import random_g2, random_gamma, random_sphere_point, random_triple
from spin8.scalars import EXACT, ApproxReal, FloatBackend, QuadExt, Rational
from spin8.symspace import (
    _TAU,
    _TAU2,
    AntipodalityViolated,
    SpherePoint,
    act,
    act_semidirect,
    antipodal_set,
    base_point,
    fix_tau_point,
    gamma_sphere,
    is_fixed_by_tau,
    kai_sides,
    maximality_scan,
    phi_x,
    sigma_sphere,
    tau_fixed_characterization,
    tau_sphere,
)
from spin8.triality import GammaElement, TrialityTriple, apply_gamma, apply_tau, spin_from_unit

e = Octonion.basis


def test_sphere_point_validates():
    with pytest.raises(NotUnit):
        SpherePoint(Octonion((0, 2, 0, 0, 0, 0, 0, 0)), e(1))


def test_action_basics():
    o = base_point()
    assert act(TrialityTriple.identity(), o) == o
    s = cube_root_of_unity(e(2))
    g = spin_from_unit(s)
    assert act(g, o) == SpherePoint(s, s.conj())
    # g carries (conj s, s) back to the base point when s^3 = 1
    assert act(g, SpherePoint(s.conj(), s)) == o


def test_tau_sphere():
    o = base_point()
    assert tau_sphere(o) == o
    s = cube_root_of_unity(e(2))
    p = SpherePoint(s, s.conj())
    assert tau_sphere(p) == p
    img = tau_sphere(SpherePoint(e(2), e(3)))
    assert img == SpherePoint(-e(3), -e(4))
    rng = random.Random(1)
    for backend in (EXACT, FloatBackend(1e-9)):
        pt = random_sphere_point(rng, backend)
        assert tau_sphere(tau_sphere(tau_sphere(pt))) == pt


def test_sigma_sphere():
    rng = random.Random(2)
    x = random_unit_octonion(rng, EXACT)
    assert sigma_sphere(SpherePoint(x, x)) == SpherePoint(x, x)
    s = cube_root_of_unity(e(2))
    assert sigma_sphere(SpherePoint(s, s.conj())) == SpherePoint(s.conj(), s)
    pt = random_sphere_point(rng, EXACT)
    assert sigma_sphere(sigma_sphere(pt)) == pt


def test_gamma_sphere():
    o = base_point()
    rng = random.Random(3)
    pt = random_sphere_point(rng, EXACT)
    assert gamma_sphere(GammaElement(0, 0), pt) == pt
    assert gamma_sphere(GammaElement(1, 2), o) == o
    # sphere-level sigma tau sigma = tau^2
    sigma, tau = GammaElement(1, 0), GammaElement.tau()
    st = gamma_sphere(sigma, gamma_sphere(tau, gamma_sphere(sigma, pt)))
    assert st == gamma_sphere(GammaElement(0, 2), pt)


def test_descent_consistency():
    o = base_point()
    rng = random.Random(4)
    for backend in (EXACT, FloatBackend(1e-9)):
        for _ in range(5):
            g = random_triple(rng, backend, max_len=2)
            assert gamma_sphere(GammaElement.tau(), act(g, o)) == act(apply_tau(g), o)
            w = random_gamma(rng)
            pt = random_sphere_point(rng, backend)
            assert gamma_sphere(w, act(g, pt)) == act(apply_gamma(w, g),
                                                      gamma_sphere(w, pt))


def test_fix_tau_point_canonical():
    p = fix_tau_point(e(2))
    assert p.x.coeffs[0] == Rational(-1, 2)
    assert p.x.coeffs[1] == QuadExt(0, Rational(1, 2))
    assert p.y.coeffs[1] == QuadExt(0, Rational(-1, 2))
    assert is_fixed_by_tau(p)
    assert fix_tau_point(-e(2)) == sigma_sphere(p)


def test_fix_tau_point_random():
    rng = random.Random(5)
    for backend in (EXACT, FloatBackend(1e-9)):
        for _ in range(5):
            v = random_imaginary_unit(rng, backend)
            p = fix_tau_point(v)
            assert is_fixed_by_tau(p)
            assert tau_fixed_characterization(p)
            assert p.x != p.y


def test_is_fixed_by_tau_negative_cases():
    assert is_fixed_by_tau(base_point())
    assert not is_fixed_by_tau(SpherePoint(e(2), e(2)))
    rng = random.Random(6)
    pt = random_sphere_point(rng, EXACT)
    assert is_fixed_by_tau(pt) == tau_fixed_characterization(pt)


def test_tau_fixed_characterization_does_not_evaluate_tau(monkeypatch):
    # the characterization is the independent test of is_fixed_by_tau, so it
    # must decide without tau_sphere
    import spin8.symspace as symspace

    def no_tau(pt):
        raise AssertionError("tau_fixed_characterization evaluated tau_sphere")

    monkeypatch.setattr(symspace, "tau_sphere", no_tau)
    rng = random.Random(16)
    for backend in (EXACT, FloatBackend(1e-9)):
        v = random_imaginary_unit(rng, backend)
        assert tau_fixed_characterization(fix_tau_point(v))
        assert not tau_fixed_characterization(random_sphere_point(rng, backend))
    assert tau_fixed_characterization(base_point())


def test_diagonal_meets_fixed_set_only_at_base():
    rng = random.Random(7)
    for _ in range(10):
        v = random_imaginary_unit(rng, EXACT)
        p = fix_tau_point(v)
        assert p.x != p.y


def test_phi_x():
    o = base_point()
    ident = TrialityTriple.identity()
    el = phi_x(ident, GammaElement.tau())
    assert el.spin == ident
    assert act_semidirect(el, o) == o
    s = cube_root_of_unity(e(2))
    g = spin_from_unit(s)
    p = act(g, o)
    for word in (GammaElement.tau(), GammaElement(0, 2)):
        el = phi_x(g, word)
        assert act_semidirect(el, p) == p


def test_phi_x_witness_independence():
    rng = random.Random(8)
    g = random_triple(rng, EXACT, max_len=1)
    other = g * random_g2(rng, EXACT, max_len=1)
    w = GammaElement.tau()
    el1 = phi_x(g, w)
    el2 = phi_x(other, w)
    # automorphism triples act trivially under the words, so both witnesses
    # give the same point symmetry; here they even agree as pairs
    assert el1 == el2
    for _ in range(3):
        pt = random_sphere_point(rng, EXACT)
        assert act_semidirect(el1, pt) == act_semidirect(el2, pt)


def test_kai_trivial_configuration():
    ident = TrialityTriple.identity()
    tau_w = GammaElement.tau()
    lhs, rhs = kai_sides(ident, ident, tau_w, tau_w)
    assert lhs.gamma == rhs.gamma == tau_w
    rng = random.Random(9)
    grid = [random_sphere_point(rng, EXACT) for _ in range(4)]
    assert all(act_semidirect(lhs, p) == act_semidirect(rhs, p) for p in grid)


def test_kai_random_configurations():
    rng = random.Random(10)
    for backend in (EXACT, FloatBackend(1e-9)):
        grid = [random_sphere_point(rng, backend) for _ in range(4)]
        for _ in range(3):
            gx = random_triple(rng, backend, max_len=2)
            gy = random_triple(rng, backend, max_len=2)
            lhs, rhs = kai_sides(gx, gy, random_gamma(rng), random_gamma(rng))
            assert all(act_semidirect(lhs, p) == act_semidirect(rhs, p) for p in grid)


def antipodal(v, trials=1):
    """antipodal_set(v) with a scan of `trials` random candidates."""
    return antipodal_set(v, trials, random.Random(0))


def test_antipodal_set_canonical():
    aset = antipodal(e(2))
    o, p, q = aset.points
    assert o == base_point()
    s = cube_root_of_unity(e(2))
    assert p == SpherePoint(s, s.conj())
    assert q == SpherePoint(s.conj(), s)
    assert sigma_sphere(p) == q
    assert aset.sigma_swaps
    assert aset.maximal and aset.extra == 0 and len(aset.rows) == 1 + 3


def test_antipodal_set_random_and_float():
    rng = random.Random(11)
    for backend in (EXACT, FloatBackend(1e-9)):
        v = random_imaginary_unit(rng, backend)
        aset = antipodal(v, 5)
        assert len(aset.points) == 3
        o, p, q = aset.points
        assert sigma_sphere(p) == q and sigma_sphere(q) == p
        assert aset.sigma_swaps
        assert aset.maximal and aset.extra == 0 and len(aset.rows) == 5 + 3
        assert antipodal(to_backend(e(2), backend)).sigma_swaps


def test_maximality_scan():
    rng = random.Random(12)
    rows = maximality_scan(e(2), 25, rng)
    o, p, q = antipodal(e(2)).points
    accepted = [r.candidate for r in rows if r.accepted]
    # the three closed-form candidates are p (t = 1), q (t = s), o (t = conj s)
    assert rows[0].accepted and rows[0].candidate == p
    assert rows[1].accepted and rows[1].candidate == q
    assert rows[2].accepted and rows[2].candidate == o
    for cand in accepted:
        assert cand in (o, p, q)
    for x in (o, p, q):
        assert any(c == x for c in accepted)
    # random cube roots fail the commutation test
    assert all(not r.accepted for r in rows[3:])
    assert all(r.residual > 0.1 for r in rows[3:])
    # an exact v gives exact candidates
    assert not any(isinstance(c, ApproxReal) for r in rows for c in r.t.coeffs)


def test_antipodal_set_decides_maximality(monkeypatch):
    # antipodal_set judges the scan's rows itself: patched rows move its
    # count of extra acceptances and its verdict
    import spin8.symspace as symspace

    real = symspace.maximality_scan
    cases = [
        (lambda rows: rows, 0, True),
        # an accepted random row is one candidate beyond o, p and q
        (lambda rows: rows[:5] + [rows[5]._replace(accepted=True)] + rows[6:], 1, False),
        # a rejected closed-form row leaves p unaccepted, with nothing extra
        (lambda rows: [rows[0]._replace(accepted=False)] + rows[1:], 0, False),
        # a short scan: every row it has is right, but two are missing
        (lambda rows: rows[:-2], 0, False),
    ]
    for rows_of, extra, maximal in cases:
        monkeypatch.setattr(symspace, "maximality_scan",
                            lambda *args, rows_of=rows_of: rows_of(real(*args)))
        for backend in (EXACT, FloatBackend(1e-9)):
            aset = antipodal(to_backend(e(2), backend), 5)
            assert (aset.extra, aset.maximal) == (extra, maximal)


def test_maximality_scan_float():
    rng = random.Random(13)
    fb = FloatBackend(1e-9)
    rows = maximality_scan(to_backend(e(2), fb), 25, rng)
    assert sum(row.accepted for row in rows) == 3
    assert sum(not row.accepted for row in rows) == 25
    # the candidates are drawn at the tolerance of v, here not the default
    wide = maximality_scan(to_backend(e(2), FloatBackend(1e-6)), 5, rng)
    assert all(isinstance(r.t.coeffs[0], ApproxReal) for r in wide)
    assert all(c.eps == 1e-6 for r in wide for c in r.t.coeffs
               if isinstance(c, ApproxReal))


def _row_bits(row):
    """A scan row's forms or floats and its verdict, to compare bit for bit."""
    return ([(x._form, x._fl) for x in (row.t, row.candidate.x, row.candidate.y)]
            + [row.accepted, row.residual])


@pytest.mark.parametrize("backend", [EXACT, FloatBackend(1e-9)], ids=["exact", "float"])
def test_a_scan_range_is_the_slice_of_the_whole_scan(backend):
    # rows [start, stop) of the scan are the whole scan's rows from the same
    # rng state, the closed-form rows (0-2) and the random ones (3-8) alike,
    # form for form and float for float; a range that runs to the end
    # leaves rng where the whole scan does
    v = random_imaginary_unit(random.Random(18), backend)
    rng = random.Random(19)
    whole = [_row_bits(r) for r in maximality_scan(v, 6, rng)]
    assert len(whole) == 9 and [r[-2] for r in whole] == [True] * 3 + [False] * 6
    end_state = rng.getstate()
    ends = [0, 2, 3, 4, 9]
    for i, start in enumerate(ends):
        for stop in ends[i + 1:] + [None]:
            rng = random.Random(19)
            rows = maximality_scan(v, 6, rng, start, stop)
            assert [_row_bits(r) for r in rows] == whole[start:stop], (start, stop)
            if stop in (9, None):
                assert rng.getstate() == end_state


def test_maximality_scan_accepts_plain_seed():
    # the seed reaches the scan through a random.Random
    r1 = maximality_scan(e(2), 5, random.Random(123))
    r2 = maximality_scan(e(2), 5, random.Random(123))
    assert [row.t for row in r1] == [row.t for row in r2]


def test_sphere_point_to_json():
    p = fix_tau_point(e(2))
    assert p.to_json() == {"x": "[-1/2, 1/2*r3, 0, 0, 0, 0, 0, 0]",
                           "y": "[-1/2, -1/2*r3, 0, 0, 0, 0, 0, 0]"}


def _group_at_p():
    """The order-3 group at p = (s, conj s), v = e2, as antipodal_set builds it."""
    g = spin_from_unit(cube_root_of_unity(e(2)))
    return g, [phi_x(g, w) for w in (_TAU, _TAU2)]


def _fixes(group, z):
    return all(act_semidirect(el, z) == z for el in group)


def test_group_at_p_fixes_its_polar():
    g, group = _group_at_p()
    s = cube_root_of_unity(e(2))
    assert act(g, base_point()) == SpherePoint(s, s.conj())
    rng = random.Random(14)
    v = random_imaginary_unit(rng, EXACT)
    assert _fixes(group, act(g, fix_tau_point(v)))  # a transported point of Y
    assert _fixes(group, base_point())


def test_antipodal_set_builds_each_group_once(monkeypatch):
    # one phi_x call per word and point: tau, then tau^2, at o, p and q
    import spin8.symspace as symspace

    calls = []
    real = symspace.phi_x
    monkeypatch.setattr(symspace, "phi_x", lambda g, w: calls.append(
        (act(g, base_point()), w)) or real(g, w))
    words = (GammaElement(0, 1), GammaElement(0, 2))
    for v in (e(2), to_backend(e(2), FloatBackend(1e-9))):
        calls.clear()
        o, p, q = antipodal(v, trials=3).points
        assert calls == [(x, w) for x in (o, p, q) for w in words]


def test_polar_intersection_check():
    assert antipodal(e(2)).polar_intersections
    rng = random.Random(15)
    v = random_imaginary_unit(rng, EXACT)
    assert antipodal(v).polar_intersections


def _record_group_tests(monkeypatch, verdict=lambda base, z: True):
    """Wrap symspace.act_semidirect to record the (basepoint, target) pair of
    each group element antipodal_set applies, and to return a non-point, so
    that the certificate fails, unless `verdict(basepoint, target)` holds.
    symspace.phi_x is wrapped to tag each element with its basepoint."""
    import spin8.symspace as symspace

    real_phi, real_act = symspace.phi_x, symspace.act_semidirect
    bases, pairs = {}, []

    def tagging(g, w):
        el = real_phi(g, w)
        bases[id(el)] = act(g, base_point())
        return el

    def recording(el, z):
        base = bases[id(el)]
        pairs.append((base, z))
        return real_act(el, z) if verdict(base, z) else None

    monkeypatch.setattr(symspace, "phi_x", tagging)
    monkeypatch.setattr(symspace, "act_semidirect", recording)
    return pairs


def test_antipodal_set_certifies_the_polar_pairs(monkeypatch):
    # the six pairwise polar conditions are certificates antipodal_set runs
    # itself, so polar_intersections only adds q = fix_tau_point(-v)
    pairs = _record_group_tests(monkeypatch)
    rng = random.Random(16)
    for v in (e(2), random_imaginary_unit(rng, EXACT),
              random_imaginary_unit(rng, FloatBackend(1e-9))):
        pairs.clear()
        aset = antipodal(v)
        o, p, q = aset.points
        assert aset.polar_intersections
        for base, target in ((p, o), (p, q), (q, o), (q, p), (o, p), (o, q)):
            assert any(b == base and t == target for b, t in pairs), (base, target)


def test_antipodal_set_raises_on_a_failed_group_test(monkeypatch):
    s = cube_root_of_unity(e(2))
    p = SpherePoint(s, s.conj())
    o = base_point()
    _record_group_tests(monkeypatch, lambda base, z: not (base == p and z == o))
    with pytest.raises(AntipodalityViolated, match="moves"):
        antipodal(e(2))


def test_antipodal_set_raises_on_a_misplaced_witness(monkeypatch):
    # a witness for p that transports o to q instead
    import spin8.symspace as symspace

    real = symspace.spin_from_unit
    monkeypatch.setattr(symspace, "spin_from_unit", lambda s: real(s.conj()))
    with pytest.raises(AntipodalityViolated, match="does not transport"):
        antipodal(e(2))


def test_antipodal_callers_build_two_witnesses_per_v(monkeypatch, capsys):
    import spin8.checks as checks
    import spin8.symspace as symspace
    from spin8.cli import main

    calls = []
    real = symspace.spin_from_unit
    monkeypatch.setattr(symspace, "spin_from_unit",
                        lambda s: calls.append(s) or real(s))
    for backend in (EXACT, FloatBackend(1e-9)):
        calls.clear()
        n_v = checks._check_antipodal(checks.Judge(backend.exact), backend,
                                      random.Random(17), 5)
        assert len(calls) == 2 * n_v
    calls.clear()
    # calls are counted in this process, so no section may run in a worker
    monkeypatch.setattr(checks, "_cpus", lambda: 1)
    assert main(["antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--trials", "2"]) == 0
    capsys.readouterr()
    assert len(calls) == 2 * 2  # one v on each backend


def test_perturbed_point_is_not_fixed():
    # a point of Y away from q is moved by the symmetry group at p
    _, group = _group_at_p()
    assert _fixes(group, fix_tau_point(-e(2)))
    assert not _fixes(group, fix_tau_point(e(3)))  # v = e3 != -e2

"""The sphere-pair model S7 x S7 of the quotient by the automorphism group.

A verified triple (A, B, C) acts by (x, y) -> (A x, B y); the orbit map
g -> g(o) at the base point o = (1, 1) identifies the quotient with the
product of unit spheres.  The outer S3 descends to

    tau(x, y)   = (conj y, x * conj y)
    sigma(x, y) = (y, x)

Fix(tau) is {o} together with the 6-sphere Y of pairs (s, conj s) where s
runs over the nontrivial cube roots of unity; Fix(sigma) is the diagonal, and
the two intersect only in o.  The point-symmetry groups transported from o
make Y the polar of o, and the three-point configuration {o, (s, conj s),
(conj s, s)} the unique maximal antipodal set through o for the order-3
structure.  ``certify_antipodal`` builds the order-3 group at each of the
three points, as a list of two ``phi_x`` elements, and decides the
certificates; ``maximality_verdict`` decides maximality from the rows of
``maximality_scan``, whole or in ranges; ``antipodal_set`` runs all three.

(The abstract construction also assumes a right-invariant metric upstairs;
that hypothesis has no computational counterpart here and only the group
actions are modelled.)
"""

from __future__ import annotations

from collections import namedtuple

from .octonion import (
    Octonion,
    cube_root_of_unity,
    deviation,
    ensure_unit,
    format_octonion,
    random_imaginary_unit,
    to_backend,
    transform,
)
from .scalars import EXACT, CheckFailed, FloatBackend
from .triality import (
    GammaElement,
    SemidirectElement,
    TrialityTriple,
    apply_gamma,
    spin_from_unit,
)

_TAU = GammaElement.tau()
_TAU2 = GammaElement(0, 2)


class AntipodalityViolated(CheckFailed):
    """o, p and q are not three points, as under a loose float tolerance (at
    eps >= 1.5 o and p compare equal for every v), or a certificate failed."""


class SpherePoint:
    """A pair of unit octonions (validated at construction)."""

    __slots__ = ("x", "y")

    def __init__(self, x: Octonion, y: Octonion):
        self.x = ensure_unit(x)
        self.y = ensure_unit(y)

    def __eq__(self, other):
        if not isinstance(other, SpherePoint):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def to_json(self) -> dict:
        return {"x": format_octonion(self.x), "y": format_octonion(self.y)}

    def __repr__(self):
        return f"SpherePoint({format_octonion(self.x)}, {format_octonion(self.y)})"


def base_point() -> SpherePoint:
    return SpherePoint(Octonion.one(), Octonion.one())


def act(g: TrialityTriple, pt: SpherePoint) -> SpherePoint:
    return SpherePoint(transform(g.A, pt.x), transform(g.B, pt.y))


def tau_sphere(pt: SpherePoint) -> SpherePoint:
    yb = pt.y.conj()
    return SpherePoint(yb, pt.x * yb)


def sigma_sphere(pt: SpherePoint) -> SpherePoint:
    return SpherePoint(pt.y, pt.x)


def gamma_sphere(w: GammaElement, pt: SpherePoint) -> SpherePoint:
    return w.act(pt, tau_sphere, sigma_sphere)


def act_semidirect(el: SemidirectElement, pt: SpherePoint) -> SpherePoint:
    """The isometry (g, w): first the word, then the triple."""
    return act(el.spin, gamma_sphere(el.gamma, pt))


def fix_tau_point(v: Octonion) -> SpherePoint:
    """The point (s, conj s) of Y parametrized by a unit imaginary v."""
    s = cube_root_of_unity(v)
    return SpherePoint(s, s.conj())


def is_fixed_by_tau(pt: SpherePoint) -> bool:
    """Direct evaluation; tau_fixed_characterization is the independent test."""
    return tau_sphere(pt) == pt


def tau_fixed_characterization(pt: SpherePoint) -> bool:
    """conj(x) = y = x^2, equivalent to tau-fixedness point by point."""
    return pt.y == pt.x.conj() and pt.y == pt.x * pt.x


def phi_x(witness: TrialityTriple, w: GammaElement) -> SemidirectElement:
    """Point-symmetry homomorphism at x = witness(o): w -> (witness * w(witness^-1), w).

    Independent of the witness up to right multiplication by automorphism
    triples, since the words fix those pointwise.
    """
    return SemidirectElement(witness * apply_gamma(w, witness.inverse()), w)


def kai_sides(
    gx: TrialityTriple,
    gy: TrialityTriple,
    gamma: GammaElement,
    delta: GammaElement,
) -> tuple[SemidirectElement, SemidirectElement]:
    """Both sides of the conjugation identity for point symmetries.

    Left: gamma_x delta_y gamma_x^-1.  Right: the symmetry of the image point
    gamma_x(y) at the conjugated word, with the image's transporter read off
    the semidirect product: (k, gamma)(gy, e) = (k * gamma(gy), gamma) and the
    word part fixes o, so k * gamma(gy) maps o to gamma_x(y).
    """
    gamma_x = phi_x(gx, gamma)
    delta_y = phi_x(gy, delta)
    lhs = gamma_x * delta_y * gamma_x.inverse()
    gz = gamma_x.spin * apply_gamma(gamma, gy)
    rhs = phi_x(gz, gamma * delta * gamma.inverse())
    return lhs, rhs


Certified = namedtuple("Certified", "points sigma_swaps polar_intersections")
AntipodalSet = namedtuple("AntipodalSet", Certified._fields + ("rows", "extra", "maximal"))


def antipodal_set(v: Octonion, trials: int, rng) -> AntipodalSet:
    """The set {o, p, q} of v with its certificates (``certify_antipodal``),
    the rows of the whole ``maximality_scan(v, trials, rng)`` and their
    ``maximality_verdict``: all the antipodal-triple check reads.  The
    antipodal command makes the same three calls itself, its scan in row
    ranges, and reads the same verdicts."""
    cert = certify_antipodal(v)
    rows = maximality_scan(v, trials, rng)
    accepted = [r.candidate for r in rows if r.accepted]
    return AntipodalSet(*cert, rows, *maximality_verdict(cert.points, accepted, len(rows), trials))


def certify_antipodal(v: Octonion) -> Certified:
    """The three-point set {o, p, q} = {o, (s, conj s), (conj s, s)} with
    certificates.

    The witnesses (the identity, L(s)-type and L(conj s)-type triples) must
    transport o to o, p and q.  The order-3 group at each point is the list
    [phi_x(witness, w) for w = tau, tau^2], built here and nowhere else, and
    the certificate is that each element fixes each point of the set.  A
    failed certificate raises; it must never fire.

    `sigma_swaps` records that sigma(p) = q and sigma(q) = p.  It is true by
    construction: q is built as the swap of p, so each side is the other's
    floats or form, equal at any tolerance.

    `polar_intersections` records that the pairwise intersections of the
    three polars land in the set: the group at p fixes o and q, the group at
    q fixes o and p, the group at o fixes p and q, and p, q are antipodal in
    Y in the parameter sense q = fix_tau_point(-v).  The first six are among
    the certificates just passed.  The last is true by construction too:
    cube_root_of_unity(-v) negates each coefficient of sqrt 3 v / 2 as conj
    does, so fix_tau_point(-v) builds q's floats or reduced form.  Both flags
    stay because the report keys and the benchmark goldens hold them.
    """
    s = cube_root_of_unity(v)
    o = base_point()
    p = SpherePoint(s, s.conj())
    q = SpherePoint(s.conj(), s)
    # Under a loose float tolerance the three points can compare equal, and
    # a one-point "set" would certify nothing.  With s = (-1 + sqrt 3 v)/2,
    # o and p (and o and q) differ by 3/2 in coefficient 0 of x, and p and q
    # by sqrt 3 |v_i| in coefficient i of x, the largest of these being at
    # least sqrt(3/7) ~ 0.65 for a unit v (sqrt(3 (1 - eps)/7), still > eps
    # for eps < 0.47, for a float v of norm^2 within eps of 1).  So this
    # never fires on the exact backend, nor at any eps below that.
    if o == p or o == q or p == q:
        raise AntipodalityViolated(f"o, p and q are not three points at {v!r}")
    points = [o, p, q]
    witnesses = [TrialityTriple.identity(), spin_from_unit(s), spin_from_unit(s.conj())]
    for base, witness in zip(points, witnesses):
        if act(witness, o) != base:
            raise AntipodalityViolated(f"witness does not transport o to {base!r}")
        group = [phi_x(witness, w) for w in (_TAU, _TAU2)]
        for target in points:
            if any(act_semidirect(el, target) != target for el in group):
                raise AntipodalityViolated(f"symmetry at {base!r} moves {target!r}")
    return Certified(points, sigma_sphere(p) == q and sigma_sphere(q) == p,
                     q == fix_tau_point(-v))


def maximality_verdict(points, accepted, scanned: int, trials: int) -> tuple:
    """(extra, maximal) for a scan of `trials` random candidates that gave
    `scanned` rows and accepted the candidates `accepted`.  `extra` counts
    the accepted candidates that are none of the `points` o, p and q;
    `maximal` holds when there are none, each of o, p and q is accepted, and
    the scan has its `trials + 3` rows.  Every caller reads these, so
    maximality is decided here and nowhere else."""
    extra = sum(not any(c == x for x in points) for c in accepted)
    return extra, (extra == 0 and scanned == trials + 3
                   and all(any(c == x for c in accepted) for x in points))


ScanRow = namedtuple("ScanRow", "t candidate accepted residual")


def maximality_scan(v: Octonion, trials: int, rng, start: int = 0, stop=None) -> list:
    """Scan for points of Y that could extend {o, p, q}: one ScanRow per
    candidate, for ``maximality_verdict`` to judge.  Rows [start, stop) of
    the scan are returned, by default all ``trials + 3``.

    Candidates are (s*t, conj(s)*conj(t)) for cube roots of unity t: the three
    closed-form ones (t = 1, s, conj s from w = v, -v) plus cube roots built
    from `trials` random unit imaginaries.  A candidate is accepted iff
    conj(s)*conj(t) = conj(s*t), and that holds only for p, q and o; the
    rows record every decision.

    Proof.  conj is a bijective anti-automorphism, so conj(s)*conj(t) =
    conj(t*s) equals conj(s*t) iff s*t = t*s.  t = 1 gives p.  Otherwise
    t = (-1 + sqrt 3 w)/2 for a unit imaginary w, s*t - t*s = 3(vw - wv)/4,
    and |vw - wv|^2 = 4(|v|^2 |w|^2 - <v,w>^2) for imaginary v, w (vw - wv
    is twice their cross product).  Equality in Cauchy-Schwarz forces
    w = +-v, i.e. t = s, whose candidate (s^2, conj s^2) = (conj s, s) is q,
    or t = conj s, whose candidate (s conj s, conj s s) is o.

    Each candidate runs on the octonion forms with every test in place: the
    imaginary-unit test of w in ``cube_root_of_unity``, the unit tests of
    both components in ``SpherePoint``, acceptance as equality of forms
    (reduced exact forms are unique per value) and the float residual
    ``deviation``.  The random candidates are drawn from `rng`, a
    random.Random, on the backend of v: exact, or floats at the tolerance of
    v's float form.

    Each row of a range is the whole scan's row of the same index, for the
    same rng state at the call.  Proof.  Row i is a function of v and t_i
    alone.  t_0, t_1 and t_2 depend on v only; t_i for i >= 3 is the cube
    root of w_(i-3), where w_j is what the (j+1)-th
    ``random_imaginary_unit(rng, backend)`` call returns.  Those calls are
    the scan's only use of rng, made in order of j, and a call's result and
    the state it leaves depend on the state before it alone, not on whether
    the result is kept.  So making and dropping the draws j < start - 3,
    then making those of the range's rows, gives the whole scan's w_j,
    hence its t_i and rows.  A range leaves rng after max(stop - 3, 0)
    draws, the whole scan after `trials`.
    """
    backend = EXACT if v._fl is None else FloatBackend(v._fl[0])
    stop = trials + 3 if stop is None else stop
    s = cube_root_of_unity(v)
    sc = s.conj()
    for _ in range(3, start):  # the draws of the rows before the range
        random_imaginary_unit(rng, backend)
    candidates = [to_backend(Octonion.one(), backend), s, cube_root_of_unity(-v)][start:stop]
    candidates += [
        cube_root_of_unity(random_imaginary_unit(rng, backend))
        for _ in range(max(start, 3), stop)
    ]
    rows = []
    for t in candidates:
        st = s * t
        pair = sc * t.conj()
        want = st.conj()
        rows.append(ScanRow(t=t, candidate=SpherePoint(st, pair),
                            accepted=(pair == want), residual=deviation(pair, want)))
    return rows

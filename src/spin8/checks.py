"""The named verification battery shared by the CLI and the acceptance tests.

Each check runs on one backend with a deterministically derived seed and
reports pass/fail plus the largest float residual it saw.  On the exact
backend a passing check always reports residual 0; on the float backend the
residual is the worst absolute deviation, which must stay within the
configured tolerance for the comparisons to pass.

Sample counts scale with the --trials knob (default 100); the multipliers are
chosen so the defaults match the package's acceptance targets, e.g. 2x/10x
trials for the algebra axioms and 10x trials for the maximality scan.
"""

from __future__ import annotations

import math
import os
import random
import zlib
from collections import namedtuple
from contextlib import suppress
from functools import partial, reduce
from itertools import chain, combinations
from operator import add, mul, sub

from .clifford import (
    NotVectorShaped,
    ad_conjugate,
    classify_parity,
    clifford_embed,
    recover_vector,
)
from .linalg import Matrix, NotOrthogonal, join, random_rotation, trace_inner_product
from .octonion import (
    NotUnit,
    Octonion,
    cube_root_of_unity,
    deviation,
    left_translation,
    random_imaginary_unit,
    random_octonion,
    random_quaternion,
    random_unit_octonion,
    right_translation,
    to_backend,
    transform,
)
from .sampling import random_g2, random_gamma, random_sphere_point, random_triple
from .scalars import EXACT, CheckFailed, FloatBackend
from .symspace import (
    SpherePoint,
    act,
    act_semidirect,
    antipodal_set,
    base_point,
    fix_tau_point,
    gamma_sphere,
    is_fixed_by_tau,
    kai_sides,
    phi_x,
    sigma_sphere,
    tau_fixed_characterization,
    tau_sphere,
)
from .triality import (
    GammaElement,
    TrialityTriple,
    TrialityViolated,
    apply_gamma,
    apply_sigma,
    apply_tau,
    is_g2,
    spin_from_unit,
    triple_from_pair,
)


# The largest --trials.  The maximality scan keeps each row until the report
# is written, about 1.9 KiB a row on exact and 1.6 KiB on floats, and
# verify-all scans 10 x trials rows per backend, both backends at once on two
# CPUs: about 3.3 GiB of rows at this bound, and 33 GiB at 10^6 trials.
MAX_TRIALS = 100_000


class RunConfig(namedtuple("RunConfig", "seed trials eps backend")):
    """What a check reads of a run, validated in __new__ (``_replace`` skips it)."""

    __slots__ = ()

    def __new__(cls, seed: int = 0, trials: int = 100, eps: float = 1e-9,
                backend: str = "both"):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if trials > MAX_TRIALS:
            raise ValueError(f"trials must be <= {MAX_TRIALS}")
        if not (eps > 0 and math.isfinite(eps)):
            raise ValueError("eps must be a positive finite number")
        if backend not in ("exact", "float", "both"):
            raise ValueError("backend must be exact, float or both")
        return super().__new__(cls, seed, trials, eps, backend)

    def backends(self):
        if self.backend == "exact":
            return [EXACT]
        if self.backend == "float":
            return [FloatBackend(self.eps)]
        return [EXACT, FloatBackend(self.eps)]


class CheckResult(namedtuple("CheckResult",
                             "name claim backend status max_residual trials seed")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def residual(a, b) -> float:
    """Largest absolute float deviation between two like values."""
    if isinstance(a, Octonion):
        return deviation(a, b)
    if isinstance(a, Matrix):
        return max(map(abs, map(sub, chain.from_iterable(a._floats()[1]),
                                chain.from_iterable(b._floats()[1]))))
    if isinstance(a, TrialityTriple):
        return max(
            residual(a.A, b.A), residual(a.B, b.B), residual(a.C, b.C)
        )
    if isinstance(a, SpherePoint):
        return max(residual(a.x, b.x), residual(a.y, b.y))
    return abs(float(a) - float(b))


class Judge:
    """Accumulates pass/fail and the worst residual across comparisons.

    On the exact backend equal values have equal floats, so a passing
    comparison has residual 0 and only failing ones are measured.  A control,
    that two values differ or that a call is refused, is ``differ`` or
    ``refuses``; neither records a residual.
    """

    def __init__(self, exact: bool = False):
        self.exact = exact
        self.ok = True
        self.max_residual = 0.0

    def eq(self, a, b) -> bool:
        same = a == b
        if not same:
            self.ok = False
        if not (same and self.exact):
            r = residual(a, b)
            if r > self.max_residual:
                self.max_residual = r
        return same

    def expect(self, condition: bool) -> bool:
        if not condition:
            self.ok = False
        return condition

    def differ(self, a, b) -> bool:
        """Passes when a != b at the backend's equality."""
        return self.expect(a != b)

    def refuses(self, exc, fn, *args) -> bool:
        """Passes when fn(*args) raises exc; any other error propagates."""
        try:
            fn(*args)
        except exc:
            return True
        self.ok = False
        return False


# --- the individual checks --------------------------------------------------
# Each compares through the Judge j that run_check gives it and returns its
# sample count.

def _check_octonion_axioms(j, backend, rng, trials):
    n = 2 * trials if backend.exact else 10 * trials
    for _ in range(n):
        x = random_octonion(rng, backend)
        y = random_octonion(rng, backend)
        j.eq((x * y).norm_sq(), x.norm_sq() * y.norm_sq())
        j.eq(x * (x * y), (x * x) * y)
        j.eq((y * x) * x, y * (x * x))
        j.eq((x * y).conj(), y.conj() * x.conj())
        j.eq((x * y) * x, x * (y * x))
        j.eq(x.conj() * (x * y), (x.conj() * x) * y)
    # an exact control, drawing nothing: by TABLE (e2 e3) e5 = e4 e5 = e8
    # but e2 (e3 e5) = e2 e7 = -e8, so three generators need not associate
    e2, e3, e5 = Octonion.basis(2), Octonion.basis(3), Octonion.basis(5)
    j.differ((e2 * e3) * e5, e2 * (e3 * e5))
    return n


def _check_sandwich(j, backend, rng, trials):
    n = max(1, trials // 2)
    ell = to_backend(Octonion.basis(5), backend)
    lell = left_translation(ell)
    for _ in range(n):
        s = random_octonion(rng, backend)
        x = random_octonion(rng, backend)
        j.eq(
            left_translation(s) * left_translation(x) * left_translation(s),
            left_translation(s * (x * s)),
        )
        h = random_quaternion(rng, backend)
        j.eq(left_translation(h) * lell, lell * left_translation(h.conj()))
        # conjugation sandwich: conj o L(x) o conj is right translation by conj(x)
        y = random_octonion(rng, backend)
        j.eq((x * y.conj()).conj(), y * x.conj())
        j.eq(transform(right_translation(x.conj()), y), y * x.conj())
    # an exact control, drawing nothing: on e5, L(e2) L(e3) gives
    # e2 (e3 e5) = -e8 and L(e2 e3) gives (e2 e3) e5 = e8 (octonion-axioms)
    e2, e3 = Octonion.basis(2), Octonion.basis(3)
    j.differ(left_translation(e2) * left_translation(e3), left_translation(e2 * e3))
    return n


def _check_clifford(j, backend, rng, trials):
    n = max(1, trials // 2)
    i16 = Matrix.identity(16)
    for _ in range(n):
        x = random_octonion(rng, backend)
        y = random_octonion(rng, backend)
        ex = clifford_embed(x)
        ey = clifford_embed(y)
        j.expect(classify_parity(ex) == "odd")
        j.eq(
            trace_inner_product(ex, ey),
            reduce(add, map(mul, x.coeffs, y.coeffs), 0),
        )
        j.expect(classify_parity(ex * ey) == "even")
        j.eq(ex * ex, i16.scale(-x.norm_sq()))
        j.eq(recover_vector(ex), x)
    for _ in range(max(1, trials // 10)):
        g = random_triple(rng, backend, max_len=2)
        x = random_octonion(rng, backend)
        w = recover_vector(ad_conjugate(g.A, g.B, x))
        j.eq(w, transform(g.C, x))
        # the cheap 64-pair route and the conjugation route must agree
        j.eq(triple_from_pair(g.A, g.B), g)
        a = random_rotation(rng, backend)
        b = random_rotation(rng, backend)
        # a generic rotation pair must be rejected
        j.refuses(NotVectorShaped, recover_vector, ad_conjugate(a, b, x))
        # and the triple constructor must refuse the same pair by its
        # identity: C = R(conj(a e1)) b is in SO(8), a e1 being a unit, so
        # NotOrthogonal cannot fire; were the triple built, (a, b) would be in
        # the group and ad_conjugate would send embed(x) to embed(Cx),
        # against the control above
        j.refuses(TrialityViolated, triple_from_pair, a, b)
    # controls on exact constants, drawing nothing: join(I, 0, I, 0) has a
    # nonzero block in each pair, so it is neither even nor odd, and
    # join(0, -I, I, I) has the off-diagonal blocks of embed(1) but a
    # nonzero diagonal block
    i8 = Matrix.identity(8)
    z8 = i8.scale(0)
    j.expect(classify_parity(join(i8, z8, i8, z8)) == "mixed")
    j.refuses(NotVectorShaped, recover_vector, join(z8, -i8, i8, i8))
    return n


def _check_closure(j, backend, rng, trials):
    for _ in range(trials):
        g = random_triple(rng, backend, max_len=3)
        h = random_triple(rng, backend, max_len=3)
        gh = g * h  # a product that fails raises to run_check
        j.max_residual = max(j.max_residual, gh.triality_residual())
        inv = gh.inverse()
        j.eq(gh * inv, TrialityTriple.identity())
        j.eq(inv, h.inverse() * g.inverse())
    if backend.exact:
        # controls on the last product, drawing nothing (a hostile float eps
        # would make M and -M, or 2A and a rotation, equal).  The central
        # z = (-I, -I, I) = spin_from_unit(-1) and tau^2(z) = (I, -I, -I) keep
        # the identity, (-B)(xy) = (Cx)((-A)y) = ((-C)x)(Ay), so gh z and
        # gh tau^2(z) are verified and each differs from gh in two components
        # (M != -M).  (2A, 2B, C) keeps it too, 2B(xy) = (Cx)(2Ay), but 2A is
        # not orthogonal, so only the SO(8) tests refuse it.
        z = spin_from_unit(-Octonion.one())
        j.differ(gh, gh * z)
        j.differ(gh, gh * apply_tau(apply_tau(z)))
        j.refuses(NotOrthogonal, TrialityTriple, gh.A.scale(2), gh.B.scale(2), gh.C)
    return trials


def _check_outer(apply, order, j, backend, rng, trials):
    # apply (apply_tau or apply_sigma) has the given order and is a
    # homomorphism.  The checks below pass it in when they run, not bound at
    # import, so a wrapper installed on this module's names sees its calls.
    for k in range(trials):
        g = x = random_triple(rng, backend, max_len=2)
        for _ in range(order):
            x = apply(x)
        j.eq(x, g)
        if k % 4 == 0:
            h = random_triple(rng, backend, max_len=1)
            j.eq(apply(g * h), apply(g) * apply(h))
    # an exact control, drawing nothing: g = spin_from_unit(e2) has
    # A = L(e2).  tau(g) has A = k L(-e2) k = R(e2), as k L(x) k y =
    # conj(x conj y) = y conj x, and sigma(g) has A = L(conj e2) = L(-e2);
    # both differ from L(e2), since on e3 it gives e2 e3 = e4 = -e3 e2
    g = spin_from_unit(Octonion.basis(2))
    j.differ(apply(g), g)
    return trials


def _check_tau(j, backend, rng, trials):
    return _check_outer(apply_tau, 3, j, backend, rng, trials)


def _check_sigma(j, backend, rng, trials):
    return _check_outer(apply_sigma, 2, j, backend, rng, trials)


def _check_s3(j, backend, rng, trials):
    words = GammaElement.all_elements()
    j.expect(len(words) == 6)
    for w1, w2 in combinations(words, 2):  # six distinct words
        j.differ(w1, w2)
    for w1 in words:
        for w2 in words:
            g = random_triple(rng, backend, max_len=1)
            j.eq(apply_gamma(w1 * w2, g), apply_gamma(w1, apply_gamma(w2, g)))
    for _ in range(trials):
        g = random_triple(rng, backend, max_len=2)
        j.eq(apply_sigma(apply_tau(apply_sigma(g))), apply_tau(apply_tau(g)))
        pt = random_sphere_point(rng, backend)
        j.eq(
            sigma_sphere(tau_sphere(sigma_sphere(pt))),
            tau_sphere(tau_sphere(pt)),
        )
        j.eq(tau_sphere(tau_sphere(tau_sphere(pt))), pt)
    return trials


def _check_g2(j, backend, rng, trials):
    n = max(1, trials // 2)
    for _ in range(n):
        g = random_g2(rng, backend)
        j.expect(is_g2(g))
        j.eq(apply_tau(g), g)
        j.eq(apply_sigma(g), g)
    for _ in range(n):
        g = random_triple(rng, backend, max_len=2)
        diagonal = g.A == g.B and g.A == g.C
        if not diagonal:
            # contrapositive of "tau-fixed implies diagonal"
            j.differ(apply_tau(g), g)
        # is_g2 first tests the same A == B and A == C, so on correct code
        # it agrees with `diagonal` at any eps
        j.expect(is_g2(g) == diagonal)
    # an exact control, drawing nothing: z = (-I, -I, I) has A = B, A != C
    z = spin_from_unit(-Octonion.one())
    j.expect(is_g2(z) == (z.A == z.B and z.A == z.C))
    return n


def _check_isotropy(j, backend, rng, trials):
    n = max(1, trials // 2)
    o = base_point()
    for _ in range(n):
        g = random_g2(rng, backend)
        j.eq(act(g, o), o)
        j.expect(is_g2(g))
    for _ in range(n):
        g = random_triple(rng, backend, max_len=2)
        if act(g, o) == o:
            j.expect(is_g2(g))
        else:  # g moves o, so it is not diagonal
            j.differ((g.A, g.A), (g.B, g.C))
    return n


def _check_descent(j, backend, rng, trials):
    o = base_point()
    tau_w = GammaElement.tau()
    for k in range(trials):
        g = random_triple(rng, backend, max_len=2)
        j.eq(gamma_sphere(tau_w, act(g, o)), act(apply_tau(g), o))
        if k % 4 == 0:
            w = random_gamma(rng)
            pt = random_sphere_point(rng, backend)
            j.eq(
                gamma_sphere(w, act(g, pt)),
                act(apply_gamma(w, g), gamma_sphere(w, pt)),
            )
    # an exact control, drawing nothing: tau(e2, 1) = (conj 1, e2 conj 1) =
    # (1, e2), which differs from (e2, 1)
    pt = SpherePoint(Octonion.basis(2), Octonion.one())
    j.differ(tau_sphere(pt), pt)
    return trials


_TWO = Octonion((2, 0, 0, 0, 0, 0, 0, 0))


def _check_fixed_sets(j, backend, rng, trials):
    n = max(1, trials // 2)
    o = base_point()
    for _ in range(n):
        v = random_imaginary_unit(rng, backend)
        p = fix_tau_point(v)
        j.eq(tau_sphere(p), p)                 # is_fixed_by_tau(p)
        j.expect(tau_fixed_characterization(p))
        j.differ(p.x, p.y)                     # Y misses the diagonal
        j.eq(fix_tau_point(-v), sigma_sphere(p))
        x = random_unit_octonion(rng, backend)
        j.eq(sigma_sphere(SpherePoint(x, x)), SpherePoint(x, x))
        if backend.exact:
            # negative control: |2x|^2 = |2|^2 |x|^2 = 4 != 1, so a sphere
            # point, whose coordinates are units, cannot have 2x as one
            j.refuses(NotUnit, SpherePoint, x * _TWO, x)
        pt = random_sphere_point(rng, backend)
        j.expect(is_fixed_by_tau(pt) == tau_fixed_characterization(pt))
    j.expect(is_fixed_by_tau(o) and tau_fixed_characterization(o))
    j.eq(sigma_sphere(o), o)
    # exact controls, drawing nothing: (1, e2) and (1, -e2) share x and
    # differ in y; tau sends (e2, -e2) to (e2, -1), and there y = conj x
    # but x^2 = -1 != y, so neither side holds
    e2 = Octonion.basis(2)
    j.differ(SpherePoint(o.x, e2), SpherePoint(o.x, -e2))
    pt = SpherePoint(e2, -e2)
    j.expect(is_fixed_by_tau(pt) == tau_fixed_characterization(pt))
    return n


def _check_kai(j, backend, rng, trials):
    grid = [random_sphere_point(rng, backend) for _ in range(10)]
    for k in range(trials):
        gx = random_triple(rng, backend, max_len=2)
        gy = random_triple(rng, backend, max_len=2)
        gamma = random_gamma(rng)
        delta = random_gamma(rng)
        lhs, rhs = kai_sides(gx, gy, gamma, delta)
        for pt in grid:
            j.eq(act_semidirect(lhs, pt), act_semidirect(rhs, pt))
        if k % 10 == 0:
            # well-definedness: witnesses differing by an automorphism triple
            w = random_gamma(rng)
            other = gx * random_g2(rng, backend, max_len=1)
            el1 = phi_x(gx, w)
            el2 = phi_x(other, w)
            for pt in grid[:3]:
                j.eq(act_semidirect(el1, pt), act_semidirect(el2, pt))
    # an exact control, drawing nothing: the tau-symmetry at p = g_p(o),
    # g_p = spin_from_unit(s) for s = cube_root_of_unity(e2), moves
    # y = (s', conj s') = fix_tau_point(e3).  It is g_p tau g_p^-1, so it
    # fixes y only if g_p^-1 y = (conj(s) s', s conj(s')) is tau-fixed,
    # which needs s and conj(s') to commute; their imaginary parts, along
    # e2 and e3, anticommute.  A phi_x that ignored its witness would give
    # tau itself, which fixes y.
    y = fix_tau_point(Octonion.basis(3))
    s = cube_root_of_unity(Octonion.basis(2))
    j.differ(act_semidirect(phi_x(spin_from_unit(s), GammaElement.tau()), y), y)
    return trials


def _check_antipodal(j, backend, rng, trials):
    vs = [to_backend(Octonion.basis(2), backend)]
    vs += [random_imaginary_unit(rng, backend) for _ in range(max(1, trials // 5))]
    for i, v in enumerate(vs):
        aset = antipodal_set(v, 10 * trials if i == 0 else 3, rng)
        j.expect(aset.sigma_swaps)
        j.expect(aset.polar_intersections)
        j.expect(aset.maximal)
    return len(vs)


CheckDef = namedtuple("CheckDef", "name claim run")


CHECKS = [
    CheckDef(
        "octonion-axioms",
        "norm multiplicativity |xy| = |x||y|, alternativity, two-generator "
        "associativity, and conjugation as an anti-automorphism",
        _check_octonion_axioms,
    ),
    CheckDef(
        "left-translation-sandwich",
        "L(s)L(x)L(s) = L(sxs); L(h)L(l) = L(l)L(conj h) for quaternionic h "
        "and the doubling generator l; conj o L(x) o conj is right "
        "translation by conj(x)",
        _check_sandwich,
    ),
    CheckDef(
        "clifford-embedding",
        "x -> [[0, -L(conj x)], [L(x), 0]] is isometric for the normalized "
        "trace form and squares to -|x|^2; conjugation by a verified rotation "
        "pair sends embedded vectors to embedded vectors and recovers the "
        "third rotation; generic pairs are rejected",
        _check_clifford,
    ),
    CheckDef(
        "triality-closure",
        "componentwise products and inverses of verified triples "
        "(B(xy) = (Cx)(Ay) on all basis pairs) remain verified",
        _check_closure,
    ),
    CheckDef(
        "tau-order-three",
        "(A,B,C) -> (kBk, kCk, A) is an automorphism of the triple group "
        "with third power the identity",
        _check_tau,
    ),
    CheckDef(
        "sigma-involution",
        "(A,B,C) -> (B, A, kCk) is an involutive automorphism",
        _check_sigma,
    ),
    CheckDef(
        "s3-relations",
        "sigma tau sigma = tau^2 and the six-element word engine acts "
        "compatibly on triples and on sphere pairs",
        _check_s3,
    ),
    CheckDef(
        "g2-fixed-group",
        "triples fixed by tau are exactly the diagonal triples (D,D,D), and "
        "those are octonion automorphisms fixed by sigma too",
        _check_g2,
    ),
    CheckDef(
        "isotropy-at-base",
        "a triple fixes the base point (1,1) exactly when it is a diagonal "
        "automorphism triple",
        _check_isotropy,
    ),
    CheckDef(
        "sphere-descent",
        "the action descends: tau(x,y) = (conj y, x conj y) and "
        "w(g(pt)) = w(g)(w(pt)) for every word w",
        _check_descent,
    ),
    CheckDef(
        "fixed-sets",
        "Fix(tau) is the base point plus the 6-sphere of pairs (s, conj s) "
        "with s a cube root of unity; Fix(sigma) is the diagonal; the full "
        "S3 fixes only the base point",
        _check_fixed_sets,
    ),
    CheckDef(
        "kai-property",
        "point-symmetry conjugation: gamma_x delta_y gamma_x^-1 equals the "
        "symmetry of the image point at the conjugated word, as sphere maps",
        _check_kai,
    ),
    CheckDef(
        "antipodal-triple",
        "{(1,1), (s, conj s), (conj s, s)} is antipodal, sigma swaps the "
        "last two, the commutation scan accepts nothing else, and the three "
        "polar 6-spheres intersect pairwise inside the set",
        _check_antipodal,
    ),
]


def derive_seed(base: int, name: str, backend_name: str) -> int:
    return (base * 1_000_003 + zlib.crc32(f"{name}:{backend_name}".encode())) % (2**31)


def run_check(check: CheckDef, cfg: RunConfig, backend) -> CheckResult:
    seed = derive_seed(cfg.seed, check.name, backend.name)
    rng = random.Random(seed)
    judge = Judge(backend.exact)
    try:
        samples = check.run(judge, backend, rng, cfg.trials)
        status = "pass" if judge.ok else "fail"
        max_residual = judge.max_residual
    except CheckFailed as exc:
        # e.g. a hostile tolerance makes verified constructions themselves
        # fail; report the check as failed rather than crashing the run
        status = "fail"
        max_residual = exc.residual
        samples = 0
    return CheckResult(
        name=check.name,
        claim=check.claim,
        backend=backend.name,
        status=status,
        max_residual=max_residual,
        trials=samples,
        seed=seed,
    )


def run_checks(cfg: RunConfig, names=None) -> list[CheckResult]:
    """Run the battery (or a named subset) on the configured backends.

    The (check, backend) jobs share no state and each draws from its own
    derive_seed stream, so they run on every CPU of the affinity mask; the
    results come back in report order whichever process ran them.
    """
    selected = CHECKS if names is None else [c for c in CHECKS if c.name in names]
    pairs = [(check, backend) for check in selected for backend in cfg.backends()]
    jobs = [partial(run_check, check, cfg, backend) for check, backend in pairs]
    return _run_jobs(jobs, _dispatch_order(pairs))


# Every check, longest job first.  By the CPU of each job run in one
# process at seed 0 (least of 5 runs), the float battery is kai-property
# 31%, triality-closure 17%, s3-relations 9%, tau-order-three 8%,
# sigma-involution 7%, antipodal-triple 6%, and each of the rest 5% or less;
# the default run is kai 17% + 15% (exact + float), closure 7% + 9%,
# s3-relations 4% + 5%, antipodal-triple 5% + 3%, and each of the rest 7%
# or less for both backends.  The order is the default run's down to
# g2-fixed-group; the five smallest, each under 5% of either run, follow
# the float battery.  On verify-all --backend exact --trials 6
# s3-relations (19%) passes closure (13%), after kai (26%).  Started last,
# as in report order, kai outlasts the rest of the battery on the other CPU:
# on 2 CPUs the float battery (seed 7, median of 3 runs) once took 3.55 s
# serially, 2.72 s dispatched in report order and 2.04 s with kai and
# closure first.  Small jobs last fill the gaps the large ones leave.
_HEAVIEST_FIRST = ("kai-property", "triality-closure", "s3-relations", "antipodal-triple",
                   "tau-order-three", "sigma-involution", "clifford-embedding",
                   "g2-fixed-group", "octonion-axioms", "sphere-descent", "isotropy-at-base",
                   "left-translation-sandwich", "fixed-sets")


def _dispatch_order(pairs) -> list[int]:
    """Indices of (check, backend) pairs, heaviest check first, the backends
    of a check in report order."""
    rank = {name: r for r, name in enumerate(_HEAVIEST_FIRST)}
    return sorted(range(len(pairs)), key=lambda i: rank[pairs[i][0].name])


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _processes() -> int:
    """How many processes share a run's jobs: one per CPU, or the calling
    process alone where there is no os.fork."""
    return _cpus() if hasattr(os, "fork") else 1


def _pull(queue_fd: int):
    """Job indices taken off the shared queue pipe, one byte each.

    A read of one byte from a pipe is atomic, so the processes sharing the
    read end each get a distinct index without a lock; EOF means the queue
    is empty (its write end is closed before any worker starts).
    """
    while True:
        byte = os.read(queue_fd, 1)
        if not byte:
            return
        yield byte[0]


def _run_jobs(jobs, order=None, workers=None) -> list:
    """Run `jobs`, zero-argument callables, taken in `order` (by default as
    listed); their results by index.

    The calling process forks `workers` workers, by default one fewer than
    there are CPUs (never more than there are jobs to share), and then pulls
    jobs from the same queue itself.  With no workers the same loop runs the
    whole queue here.

    Workers are forked, so a job need not pickle, but its result must: each
    worker runs its jobs, then sends (done, error) pickled over its own
    pipe, done being its (index, result) pairs, and leaves through
    os._exit: it never flushes the stdio buffers it inherited nor runs atexit
    handlers or a test runner's teardown.  An error a worker raised is raised
    again here, as a RuntimeError of its type's name and text if it does not
    pickle and load again; a worker that ends without sending a result, or a
    job that no process finished, is an error too.  Whatever ends this function,
    interrupts included, no worker outlives it.
    """
    if len(jobs) > 256:
        raise ValueError("a job index must fit in one byte")
    if order is None:
        order = range(len(jobs))
    if workers is None:
        workers = min(_processes(), len(jobs)) - 1
    pending = object()
    results = [pending] * len(jobs)
    queue_r, queue_w = os.pipe()
    try:
        os.write(queue_w, bytes(order))  # at most 256 bytes: one write
    finally:
        os.close(queue_w)
    running: dict[int, int] = {}  # worker pid -> read end of its result pipe
    try:
        for _ in range(workers):
            started = _fork_worker(jobs, queue_r)
            if started is None:  # the system refused a fork: share among fewer
                break
            running[started[0]] = started[1]
        for i in _pull(queue_r):
            results[i] = jobs[i]()
        for pid, fd in list(running.items()):
            import pickle  # only the parallel path pays for it

            data = _read_to_eof(fd)
            _, status = os.waitpid(pid, 0)
            del running[pid]
            os.close(fd)
            if not data:
                raise RuntimeError(
                    f"check worker {pid} ended without a result "
                    f"(exit code {os.waitstatus_to_exitcode(status)})"
                )
            done, error = pickle.loads(data)
            if error is not None:
                raise error
            for i, result in done:
                results[i] = result
    finally:
        for pid, fd in running.items():
            os.close(fd)
            with suppress(ProcessLookupError, ChildProcessError):  # already reaped
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)
        os.close(queue_r)
    missing = [i for i, r in enumerate(results) if r is pending]
    if missing:
        raise RuntimeError(f"no result for jobs {missing}")
    return results


# os has no signal names, and fork exists only where POSIX fixes SIGKILL at 9
_SIGKILL = 9


def _fork_worker(jobs, queue_fd):
    """Start one worker; (pid, read end of its result pipe), or None if the
    system refuses the fork."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            done, error = [], None
            try:
                for i in _pull(queue_fd):
                    done.append((i, jobs[i]()))
            except BaseException as exc:  # sent to the parent, raised there
                error = exc
                try:  # forked, the parent loads what loads here
                    pickle.loads(pickle.dumps(exc))
                except Exception:  # it does not pickle or load: keep its text
                    error = RuntimeError(f"{type(exc).__name__}: {exc}")
            data = pickle.dumps((done, error))
            view = memoryview(data)
            while view:
                view = view[os.write(write_fd, view):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)

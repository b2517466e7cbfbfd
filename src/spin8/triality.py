"""Rotation triples with the triality property, and their outer symmetries.

A triple (A, B, C) of special orthogonal 8x8 matrices is *verified* when

    B(x * y) = (C x) * (A y)          for all basis pairs x, y,

which pins the group of such triples down as the double cover of SO(8) acting
through three inequivalent 8-dimensional representations at once.  Every
constructor in this module re-runs the 64-basis-pair verification, including
products.  On exact triples a failure after a group operation is a bug; under
a hostile float ``--eps`` working code fails one too (``NotOrthogonal`` or
``TrialityViolated``), and ``checks.run_check`` reports such a row as failed.

The two outer symmetries are

    tau:   (A, B, C) -> (kBk, kCk, A)        (order 3)
    sigma: (A, B, C) -> (B, A, kCk)          (order 2)

with k the matrix of octonion conjugation; together they generate an S3 whose
common fixed group is the diagonal triples (D, D, D) with D an octonion
automorphism.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from math import gcd
from operator import itemgetter

from .kernel import columns, pack, zdot
from .linalg import Matrix, NotOrthogonal, is_special_orthogonal
from .octonion import (
    Octonion,
    TABLE,
    ensure_unit,
    left_translation,
    right_translation,
    sandwich_matrix,
    transform,
)
from .scalars import CheckFailed


class TrialityViolated(CheckFailed):
    """The three-rotation compatibility identity failed on a basis pair."""

    def __init__(self, pair, residual):
        self.pair = pair
        self.residual = residual
        i, j = pair
        super().__init__(
            f"B(e{i+1}*e{j+1}) != (C e{i+1})*(A e{j+1}), residual {residual:g}"
        )

    def __reduce__(self):  # pickled from a worker process by (pair, residual)
        return type(self), (self.pair, self.residual)


def _float_cols(*mats):
    """The largest tolerance of the matrices and the float columns of each."""
    forms = [m._floats() for m in mats]
    return max(eps for eps, _ in forms), [tuple(zip(*rows)) for _, rows in forms]


def _triality_holds(a: Matrix, b: Matrix, c: Matrix) -> bool:
    """B(e_i e_j) = (C e_i)(A e_j) on all 64 basis pairs, for orthogonal A, B
    and C: the constructor calls it after its SO(8) tests, ``is_g2`` on a
    verified triple.

    Floats pass within the triple's tolerance.  Exact triples are checked on
    their kernel forms A'/da, B'/db, C'/dc: with e_i e_j = s e_k, the pair
    holds iff the integer vectors (db/g) (C' e_i)(A' e_j) and
    (dc*da/g) s B' e_k agree, g = gcd(dc*da, db); over Z[sqrt 3] both of
    their integer parts agree.  For each i the 8 * 8 coordinates over j are
    compared at once as packed integers (see ``kernel``), coordinate r of
    pair (i, j) at digit 8 j + r.  The left side packs as
    sum_p C'[p][i] N_p with N_p = sum_j e_p (A' e_j) at digits 8 j + r;
    since e_p e_q = s e_r, N_p is a signed sum of the rows of A' packed at
    digits 8 j and shifted by r digits.  The digit width comes from the
    denominators: an entry (x + y sqrt 3)/d of an orthogonal matrix has
    |x|, |y sqrt 3| <= d (``linalg._so8_verdict``, step 1), so each part of
    a left digit, 8 terms x y + 3 x' y' or x y' + x' y with x, x' from C'
    and y, y' from A', is at most 32 dc da before the factor db/g, and a
    right digit at most db dc*da/g, both below 32 dc*da db/g < 2^(w-1).
    """
    if a._fl is not None or b._fl is not None or c._fl is not None:
        eps, cols = _float_cols(a, b, c)
        return _triality_defect(*cols)[1] <= eps
    da, aa, ab = a._form
    db, ba, bb = b._form
    dc, ca, cb = c._form
    f = dc * da
    g = gcd(f, db)
    fa, fb = db // g, f // g
    w = (32 * f * fa).bit_length() + 1
    # N_p of each integer part of A', from its signed packed rows
    n = [None if rows is None else [pack(factors(rows), w) for factors in _FACTORS]
         for rows in (_signed(aa, 8 * w), _signed(ab, 8 * w))]
    bcols = (_signed(columns(ba), w), _signed(columns(bb), w))
    for cola, colb, targets in zip(columns(ca), columns(cb) or repeat(None), _TARGETS):
        for lhs, cols in zip(zdot((cola, colb), n), bcols):
            rhs = 0 if cols is None else pack(targets(cols), 8 * w)
            if lhs * fa != rhs * fb:
                return False
    return True


def _signed(vectors, w):
    """The integer vectors packed at width w, then their negations (None: zero)."""
    if vectors is None:
        return None
    packed = [pack(v, w) for v in vectors]
    return packed + [-v for v in packed]


# Per TABLE row p, the packed rows q of A' signed by s in the order of r,
# e_p e_q = s e_r, picked from those rows followed by their negations.
_FACTORS = [itemgetter(*[t for _, t in sorted((r, q if s > 0 else 8 + q)
                                              for q, (s, r) in enumerate(row))])
            for row in TABLE]

# Per TABLE row i, the signed target columns s B e_k over j, e_i e_j = s e_k,
# picked from B's columns followed by their negations.
_TARGETS = [itemgetter(*[k if s > 0 else 8 + k for s, k in row]) for row in TABLE]


def _triality_defect(acols, bcols, ccols):
    """Worst float deviation over the 64 basis pairs, with its argmax pair.

    Pair (i, j), e_i e_j = s e_k, deviates by max_r |t_r - p_r|: t = s B e_k
    and p = (C e_i)(A e_j), whose coordinates are the lines of ``mul_lines``
    for x = C e_i, y = A e_j and zero = 0.0, written out again here without
    their 0.0 start (a test pins this copy to TABLE too).

    Precondition: every operand is a float.  Float matrices hold floats, and
    ``_float_cols`` reads an exact matrix through ``kernel.to_floats``.  So
    each term is a float p, and 0.0 + p is p unless p is -0.0, when it is
    +0.0.  Two partial sums that differ only in the sign of a zero stay so
    after the same float is added (x + z is x for a nonzero x and a zero z,
    and a zero plus a zero is a zero); t_r minus either is then t_r or a
    zero.  Dropping the start can so change a line or a d_r only in the sign
    of a zero, nan and inf included (they pass through a 0.0 start
    unchanged).  Every test below, the skip test, abs and ``>``, is blind to
    that sign, so (pair, worst) keeps its bits.  ``mul_lines`` keeps its
    start: its floats are printed, and -0.0 must stay out of reports.

    The signed column t is -b for s = -1, and |-b - p| is |b + p| bit for
    bit: IEEE rounding is symmetric, so (-b) - p = -(b + p) exactly, a nan
    operand passes through either way, and abs drops the sign.  The first
    pair of the largest deviation wins, and a nan deviation never does
    (``>`` is False on it); ``max`` keeps the first of equal or nan
    coordinates, as over any sequence.

    A pair whose eight differences d_r all lie in [-worst, worst] is skipped
    before abs and max: abs is exact, so then max_r |d_r| <= worst and the
    pair cannot raise worst.  A nan d_r fails that test, so every pair that
    could matter takes the full expression and the result is the same bits.
    """
    signed = (*bcols, *[tuple([-v for v in col]) for col in bcols])
    worst, lo, at = 0.0, -0.0, (0, 0)
    for i, (targets, (x0, x1, x2, x3, x4, x5, x6, x7)) in enumerate(zip(_TARGETS, ccols)):
        pairs = enumerate(zip(acols, targets(signed)))
        for j, ((y0, y1, y2, y3, y4, y5, y6, y7), (t0, t1, t2, t3, t4, t5, t6, t7)) in pairs:
            d0 = t0 - (x0*y0 - x1*y1 - x2*y2 - x3*y3 - x4*y4 - x5*y5 - x6*y6 - x7*y7)
            d1 = t1 - (x0*y1 + x1*y0 + x2*y3 - x3*y2 + x4*y5 - x5*y4 - x6*y7 + x7*y6)
            d2 = t2 - (x0*y2 - x1*y3 + x2*y0 + x3*y1 + x4*y6 + x5*y7 - x6*y4 - x7*y5)
            d3 = t3 - (x0*y3 + x1*y2 - x2*y1 + x3*y0 + x4*y7 - x5*y6 + x6*y5 - x7*y4)
            d4 = t4 - (x0*y4 - x1*y5 - x2*y6 - x3*y7 + x4*y0 + x5*y1 + x6*y2 + x7*y3)
            d5 = t5 - (x0*y5 + x1*y4 - x2*y7 + x3*y6 - x4*y1 + x5*y0 - x6*y3 + x7*y2)
            d6 = t6 - (x0*y6 + x1*y7 + x2*y4 - x3*y5 - x4*y2 + x5*y3 + x6*y0 - x7*y1)
            d7 = t7 - (x0*y7 - x1*y6 + x2*y5 + x3*y4 - x4*y3 - x5*y2 + x6*y1 + x7*y0)
            if (lo <= d0 <= worst and lo <= d1 <= worst and lo <= d2 <= worst
                    and lo <= d3 <= worst and lo <= d4 <= worst and lo <= d5 <= worst
                    and lo <= d6 <= worst and lo <= d7 <= worst):
                continue
            r = max(abs(d0), abs(d1), abs(d2), abs(d3), abs(d4), abs(d5), abs(d6), abs(d7))
            if r > worst:
                worst, lo, at = r, -r, (i, j)
    return at, worst


class TrialityTriple:
    """A verified triple (A, B, C); the concrete model of a group element.

    The constructor runs one sequence on both backends: SO(8) of A, B, then
    C, then the 64-pair identity, and raises the first failure.  An exact
    translation, product, transpose or kmk carries its SO(8) verdict
    (``linalg.is_special_orthogonal``), so on an exact triple built from
    those the three SO(8) tests are reads of that verdict.  The identity is
    the integer test of ``_triality_holds`` on an exact triple and the float
    sweep of ``_triality_defect`` on one with a float component, whose
    (pair, worst) the triple keeps in ``_defect``: ``TrialityViolated`` is
    raised with it and ``triality_residual`` returns it.
    """

    # _inv/_tau/_sigma memoize *freshly verified* images, forward only: a
    # cached value is never fabricated from the cache of its own inverse
    # image, so involution/order tests still exercise real constructions.
    __slots__ = ("A", "B", "C", "_defect", "_inv", "_tau", "_sigma")
    _cached_identity = None

    def __init__(self, a: Matrix, b: Matrix, c: Matrix):
        for name, m in (("A", a), ("B", b), ("C", c)):
            if not is_special_orthogonal(m):
                raise NotOrthogonal(f"component {name} is not in SO(8)")
        if a._fl is None and b._fl is None and c._fl is None:
            defect = None
            if not _triality_holds(a, b, c):
                raise TrialityViolated(*_triality_defect(*_float_cols(a, b, c)[1]))
        else:
            eps, cols = _float_cols(a, b, c)
            defect = _triality_defect(*cols)
            if not defect[1] <= eps:
                raise TrialityViolated(*defect)
        self.A = a
        self.B = b
        self.C = c
        self._defect = defect
        self._inv = None
        self._tau = None
        self._sigma = None

    @classmethod
    def identity(cls) -> "TrialityTriple":
        if cls._cached_identity is None:
            i8 = Matrix.identity(8)
            cls._cached_identity = cls(i8, i8, i8)
        return cls._cached_identity

    def __mul__(self, other):
        if not isinstance(other, TrialityTriple):
            return NotImplemented
        return TrialityTriple(self.A * other.A, self.B * other.B, self.C * other.C)

    def inverse(self) -> "TrialityTriple":
        if self._inv is None:
            self._inv = TrialityTriple(
                self.A.transpose(), self.B.transpose(), self.C.transpose()
            )
        return self._inv

    def __eq__(self, other):
        if not isinstance(other, TrialityTriple):
            return NotImplemented
        return self.A == other.A and self.B == other.B and self.C == other.C

    def triality_residual(self) -> float:
        """Largest float deviation of B(xy) - (Cx)(Ay) over the 64 basis pairs:
        the constructor's sweep on a float triple, and 0.0 on an exact one,
        which satisfies the identity exactly."""
        return 0.0 if self._defect is None else self._defect[1]

    def __repr__(self):
        return "<TrialityTriple>"


def _kconj(m: Matrix) -> Matrix:
    """k m k for k = diag(1, -1, ..., -1), carrying m's SO(8) verdict.

    Entries with exactly one index in the e1 slot are negated, on the
    matrix's float or kernel form.  The verdict of ``is_special_orthogonal``
    on kmk equals the one on m, so kmk is built with m's, not recomputed:

    * exact: k is orthogonal with det k = +-1, so (kmk)^t (kmk) = k m^t m k
      is I iff m^t m is, and det(kmk) = det(k)^2 det(m) = det(m);
      ``_so8_verdict`` decides both exactly.
    * float, bit for bit: entry (r, j) of kmk is k_r k_j m[r][j], and IEEE
      +, -, *, / round symmetrically, so negating operands negates results
      exactly.  Gram entry (i, j) of kmk sums the terms k_i k_j m[r][i] m[r][j]
      in the same order, the common sign k_i k_j pulled out of every partial
      sum: the same float up to sign, with the same sign on the diagonal, and
      |dot - 0| is sign-blind off it.  Partial-pivot LU on D m D (D = +-1
      diagonal) keeps that shape through every step: pivots are chosen by
      |entry|, so the same rows swap; each multiplier is r_i r_k times the
      original, and each update r_i c_j times it, r and c the row and column
      signs; the product of the pivots is the original times
      det(D_r) det(D_c) = det(D)^2 = 1, and a zero pivot is zero in both.
      So the determinant's float, and its sign, are unchanged.

    A float kmk is built with m's ``_det_pos`` too: kmk is k M0 k at m's
    distance from M0, and det(k M0 k) = det M0 (``linalg._so8_verdict``).
    """
    if m._fl is not None:
        eps, rows = m._fl
        return Matrix._of_floats(eps, _kconj_rows(rows), so8=m._so8, det_pos=m._det_pos)
    d, a, b = m._form
    return Matrix._of_form((d, _kconj_rows(a), b and _kconj_rows(b)), so8=m._so8)


def _kconj_rows(rows):
    head = rows[0]
    return [head[:1] + tuple(-e for e in head[1:])] + [
        (-row[0],) + row[1:] for row in rows[1:]
    ]


def apply_tau(g: TrialityTriple) -> TrialityTriple:
    """The order-3 outer symmetry (A, B, C) -> (kBk, kCk, A)."""
    if g._tau is None:
        g._tau = TrialityTriple(_kconj(g.B), _kconj(g.C), g.A)
    return g._tau


def apply_sigma(g: TrialityTriple) -> TrialityTriple:
    """The outer involution (A, B, C) -> (B, A, kCk)."""
    if g._sigma is None:
        g._sigma = TrialityTriple(g.B, g.A, _kconj(g.C))
    return g._sigma


class GammaElement(namedtuple("GammaElement", "s t")):
    """Element of the S3 generated by tau (order 3) and sigma (order 2).

    Stored in the normal form sigma^s tau^t with s in {0,1}, t in {0,1,2};
    as a map it is "tau t times, then sigma s times" (``act``).  Words read
    "st" = sigma-after-tau.
    """

    __slots__ = ()

    def __new__(cls, s: int = 0, t: int = 0):
        return super().__new__(cls, s % 2, t % 3)

    @classmethod
    def tau(cls) -> "GammaElement":
        return cls(0, 1)

    @classmethod
    def all_elements(cls) -> list["GammaElement"]:
        """The six words in the order e, t, t2, s, st, st2."""
        return [cls(s, t) for s in (0, 1) for t in (0, 1, 2)]

    def act(self, x, tau, sigma):
        """x under this word, for tau and sigma acting on x's kind of value."""
        for _ in range(self.t):
            x = tau(x)
        for _ in range(self.s):
            x = sigma(x)
        return x

    def __mul__(self, other):
        if not isinstance(other, GammaElement):
            return NotImplemented
        # sigma^s1 tau^t1 sigma^s2 tau^t2, rewritten with tau sigma = sigma tau^-1
        if other.s:
            return GammaElement(self.s + 1, other.t - self.t)
        return GammaElement(self.s, self.t + other.t)

    def inverse(self) -> "GammaElement":
        # reflections are involutions; rotations invert the tau power
        return GammaElement(self.s, self.t if self.s else -self.t)


def apply_gamma(w: GammaElement, g: TrialityTriple) -> TrialityTriple:
    """Act by the word w on a triple (tau first, then sigma)."""
    return w.act(g, apply_tau, apply_sigma)


class SemidirectElement(namedtuple("SemidirectElement", "spin gamma")):
    """Pair (g, w) of a triple and an S3 word, the isometry g after w.

    Multiplication follows w g = w(g) w:  (g, w)(h, u) = (g * w(h), w u).
    """

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        return SemidirectElement(
            self.spin * apply_gamma(self.gamma, other.spin),
            self.gamma * other.gamma,
        )

    def inverse(self) -> "SemidirectElement":
        winv = self.gamma.inverse()
        return SemidirectElement(apply_gamma(winv, self.spin.inverse()), winv)


def spin_from_unit(s: Octonion) -> TrialityTriple:
    """The verified triple (L(s), L(conj s), x -> conj(s) x conj(s)) for unit s."""
    ensure_unit(s)
    sb = s.conj()
    return TrialityTriple(
        left_translation(s), left_translation(sb), sandwich_matrix(sb, sb)
    )


def triple_from_pair(a: Matrix, b: Matrix) -> TrialityTriple:
    """Recover the third rotation from a pair via C(x) = B(x) * conj(A(e1)).

    The recovery is only a candidate; the constructor's full verification is
    what decides membership, so a pair outside the group raises
    TrialityViolated (or NotOrthogonal).
    """
    a1 = transform(a, Octonion.one())
    c = right_translation(a1.conj()) * b
    return TrialityTriple(a, b, c)


def is_g2(g: TrialityTriple) -> bool:
    """True iff the triple is diagonal, i.e. an octonion automorphism.

    Checks A = B = C and then A(xy) = A(x)A(y) on all 64 basis pairs.  For a
    verified exact triple the first implies the second, a cross-check; on
    floats A == B == C is only tolerance equality, so the second is a test.
    """
    return g.A == g.B and g.A == g.C and _triality_holds(g.A, g.A, g.A)

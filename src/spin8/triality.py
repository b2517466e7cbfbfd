"""Rotation triples with the triality property, and their outer symmetries.

A triple (A, B, C) of special orthogonal 8x8 matrices is *verified* when

    B(x * y) = (C x) * (A y)          for all basis pairs x, y,

which pins the group of such triples down as the double cover of SO(8) acting
through three inequivalent 8-dimensional representations at once.  Every
constructor in this module re-runs the 64-basis-pair verification, including
products, so a verification failure after a group operation always means an
implementation bug rather than bad input.

The two outer symmetries are

    tau:   (A, B, C) -> (kBk, kCk, A)        (order 3)
    sigma: (A, B, C) -> (B, A, kCk)          (order 2)

with k the matrix of octonion conjugation; together they generate an S3 whose
common fixed group is the diagonal triples (D, D, D) with D an octonion
automorphism.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import add, sub

from .kernel import columns, max_abs, pack, zdot
from .linalg import Matrix, NotOrthogonal, is_special_orthogonal
from .octonion import (
    Octonion,
    TABLE,
    ensure_unit,
    left_translation,
    mul_lines,
    right_translation,
    sandwich_matrix,
)


class TrialityViolated(ValueError):
    """The three-rotation compatibility identity failed on a basis pair."""

    def __init__(self, pair, residual):
        self.pair = pair
        self.residual = residual
        i, j = pair
        super().__init__(
            f"B(e{i+1}*e{j+1}) != (C e{i+1})*(A e{j+1}), residual {residual:g}"
        )


def _float_cols(*mats):
    """The largest tolerance of the matrices and the float columns of each."""
    forms = [m._floats() for m in mats]
    return max(eps for eps, _ in forms), [tuple(zip(*rows)) for _, rows in forms]


def _triality_holds(a: Matrix, b: Matrix, c: Matrix) -> bool:
    """B(e_i e_j) = (C e_i)(A e_j) on all 64 basis pairs.

    Floats pass within the triple's tolerance.  Exact triples are checked on
    their kernel forms A'/da, B'/db, C'/dc: with e_i e_j = s e_k, the pair
    holds iff the integer vectors (db/g) (C' e_i)(A' e_j) and
    (dc*da/g) s B' e_k agree, g = gcd(dc*da, db); over Z[sqrt 3] both of
    their integer parts agree.  For each i the 8 * 8 coordinates over j are
    compared at once as packed integers (see ``kernel``), coordinate r of
    pair (i, j) at digit 8 j + r.  The left side packs as
    sum_p C'[p][i] N_p with N_p = sum_j e_p (A' e_j) at digits 8 j + r;
    since e_p e_q = s e_r, N_p is a signed sum of the rows of A' packed at
    digits 8 j and shifted by r digits.  Each left digit is a sum of 8
    products of a C' entry and an A' entry, so at most
    32 * max|C'| * max|A'| over both parts before the factor db/g; that and
    max|B'| * dc*da/g on the right bound the digit width.
    """
    if a._fl is not None or b._fl is not None or c._fl is not None:
        eps, cols = _float_cols(a, b, c)
        return _triality_defect(*cols)[1] <= eps
    da, aa, ab = a._scaled()
    db, ba, bb = b._scaled()
    dc, ca, cb = c._scaled()
    f = dc * da
    g = gcd(f, db)
    fa, fb = db // g, f // g
    w = max(32 * max_abs(ca, cb) * max_abs(aa, ab) * fa,
            max_abs(ba, bb) * fb).bit_length() + 1
    n = (_packed_products(aa, w), _packed_products(ab, w))
    bcols = (_packed_columns(ba, w), _packed_columns(bb, w))
    for cola, colb, row in zip(columns(ca), columns(cb) or repeat(None), TABLE):
        for lhs, cols in zip(zdot((cola, colb), n), bcols):
            rhs = 0 if cols is None else sum(
                cols[s][k] << 8 * w * j for j, (s, k) in enumerate(row))
            if lhs * fa != rhs * fb:
                return False
    return True


def _packed_products(rows, w):
    """N_p for p = 0..7 from the rows of one integer part of A' (None: zero)."""
    if rows is None:
        return None
    packed = [pack(r, 8 * w) for r in rows]
    signed = {1: packed, -1: [-v for v in packed]}
    return [sum(signed[s][q] << w * r for q, (s, r) in enumerate(row))
            for row in TABLE]


def _packed_columns(rows, w):
    """Columns of one integer part of B' packed at digits r, by sign (None: zero)."""
    if rows is None:
        return None
    packed = [pack(col, w) for col in zip(*rows)]
    return {1: packed, -1: [-v for v in packed]}


def _triality_defect(acols, bcols, ccols):
    """Worst float deviation over the 64 basis pairs, with its argmax pair."""
    worst, at = 0.0, (0, 0)
    for i in range(8):
        ci = ccols[i]
        row = TABLE[i]
        for j in range(8):
            prod = mul_lines(ci, acols[j], 0.0)
            s, k = row[j]
            r = max(map(abs, map(sub if s > 0 else add, bcols[k], prod)))
            if r > worst:
                worst, at = r, (i, j)
    return at, worst


def triality_residual(a: Matrix, b: Matrix, c: Matrix) -> float:
    """Largest float deviation of B(xy) - (Cx)(Ay) over the 64 basis pairs."""
    return _triality_defect(*_float_cols(a, b, c)[1])[1]


class TrialityTriple:
    """A verified triple (A, B, C); the concrete model of a group element."""

    # _inv/_tau/_sigma memoize *freshly verified* images, forward only: a
    # cached value is never fabricated from the cache of its own inverse
    # image, so involution/order tests still exercise real constructions.
    __slots__ = ("A", "B", "C", "_inv", "_tau", "_sigma")
    _cached_identity = None

    def __init__(self, a: Matrix, b: Matrix, c: Matrix):
        for name, m in (("A", a), ("B", b), ("C", c)):
            if m.n != 8 or not is_special_orthogonal(m):
                raise NotOrthogonal(f"component {name} is not in SO(8)")
        if not _triality_holds(a, b, c):
            raise TrialityViolated(*_triality_defect(*_float_cols(a, b, c)[1]))
        self.A = a
        self.B = b
        self.C = c
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
        return triality_residual(self.A, self.B, self.C)

    def to_json(self) -> dict:
        return {"A": self.A.to_json(), "B": self.B.to_json(), "C": self.C.to_json()}

    @classmethod
    def from_json(cls, obj: dict, backend) -> "TrialityTriple":
        """Parse {"A": mat, "B": mat, "C": mat}; the triple is re-verified."""
        return cls(
            Matrix.from_json(obj["A"], backend),
            Matrix.from_json(obj["B"], backend),
            Matrix.from_json(obj["C"], backend),
        )

    def __repr__(self):
        return "<TrialityTriple>"


def _kconj(m: Matrix) -> Matrix:
    """k m k for k = diag(1, -1, ..., -1), carrying m's SO(n) verdict.

    Entries with exactly one index in the e1 slot are negated, on the
    matrix's float or kernel form.  The verdict of ``is_special_orthogonal``
    on kmk equals the one on m, so once known it is copied, not recomputed:

    * exact: k is orthogonal with det k = +-1, so (kmk)^t (kmk) = k m^t m k
      is I iff m^t m is, and det(kmk) = det(k)^2 det(m) = det(m); the kernel
      decides both exactly.
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
    """
    if m._fl is not None:
        eps, rows = m._fl
        out = Matrix._of_floats(eps, _kconj_rows(rows))
    else:
        d, a, b = m._scaled()
        out = Matrix._of_form((d, _kconj_rows(a), b and _kconj_rows(b)))
    out._so8 = m._so8
    return out


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


class GammaElement:
    """Element of the S3 generated by tau (order 3) and sigma (order 2).

    Stored in the normal form sigma^s tau^t with s in {0,1}, t in {0,1,2};
    as a map it is "tau t times, then sigma s times".  Words read "st" =
    sigma-after-tau.
    """

    __slots__ = ("s", "t")

    _WORDS = {"e": (0, 0), "t": (0, 1), "t2": (0, 2),
              "s": (1, 0), "st": (1, 1), "st2": (1, 2)}

    def __init__(self, s: int = 0, t: int = 0):
        self.s = s % 2
        self.t = t % 3

    @classmethod
    def identity(cls) -> "GammaElement":
        return cls(0, 0)

    @classmethod
    def tau(cls) -> "GammaElement":
        return cls(0, 1)

    @classmethod
    def sigma(cls) -> "GammaElement":
        return cls(1, 0)

    @classmethod
    def all_elements(cls) -> list["GammaElement"]:
        return [cls(*st) for st in cls._WORDS.values()]

    def word(self) -> str:
        return {v: k for k, v in self._WORDS.items()}[(self.s, self.t)]

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

    def is_identity(self) -> bool:
        return self.s == 0 and self.t == 0

    def __eq__(self, other):
        if not isinstance(other, GammaElement):
            return NotImplemented
        return self.s == other.s and self.t == other.t

    def __hash__(self):
        return hash((self.s, self.t))

    def __repr__(self):
        return f"GammaElement({self.word()!r})"


def apply_gamma(w: GammaElement, g: TrialityTriple) -> TrialityTriple:
    """Act by the word w on a triple (tau first, then sigma)."""
    for _ in range(w.t):
        g = apply_tau(g)
    for _ in range(w.s):
        g = apply_sigma(g)
    return g


class SemidirectElement:
    """Pair (g, w) of a triple and an S3 word, the isometry g after w.

    Multiplication follows w g = w(g) w:  (g, w)(h, u) = (g * w(h), w u).
    """

    __slots__ = ("spin", "gamma")

    def __init__(self, spin: TrialityTriple, gamma: GammaElement):
        self.spin = spin
        self.gamma = gamma

    @classmethod
    def identity(cls) -> "SemidirectElement":
        return cls(TrialityTriple.identity(), GammaElement.identity())

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

    def __eq__(self, other):
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        return self.gamma == other.gamma and self.spin == other.spin

    def __repr__(self):
        return f"<SemidirectElement gamma={self.gamma.word()!r}>"


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
    a1 = Octonion(a.column(0))
    c = right_translation(a1.conj()) * b
    return TrialityTriple(a, b, c)


def is_g2(g: TrialityTriple) -> bool:
    """True iff the triple is diagonal, i.e. an octonion automorphism.

    Checks A = B = C and then A(xy) = A(x)A(y) on all 64 basis pairs; for a
    verified triple the second condition is implied by the first, so it acts
    as a consistency cross-check.
    """
    return g.A == g.B and g.A == g.C and _triality_holds(g.A, g.A, g.A)

"""Dense square matrices over any scalar backend.

Matrices are generic in n (8x8 rotations and 16x16 Clifford blocks here),
but the one group decided is SO(8): ``is_special_orthogonal`` is False on
every matrix of another size.

Matrices are immutable; rows are tuples of scalars.  Each matrix computes
through one form of its backend, and the form decides the backend:

* exact: the reduced scaled-integer form (d, a, b) of ``kernel``;
* float: (eps, rows of Python floats), eps being the largest tolerance
  among the ``ApproxReal`` entries.

``Matrix(rows)`` builds its form at construction, and an operation computes
its result's form directly; the form is all a matrix holds, and ``rows``
reads scalars off it on every access.  Products, transposes,
negation, equality, the trace form, blocks (``Matrix.blocks``, ``join``) and
the plane rotations of ``random_rotation`` run on the forms alone.  Float
results are bit-identical to entrywise ``ApproxReal`` arithmetic: the same
float operations run in the same order, and a run's tolerances are uniform
and combine as the max.  Every float dot product (norms and the trace form
too) is ``_dots``, or has its bits: products added one by one in index order
onto +0.0, never the builtin ``sum``, whose float algorithm depends on the
Python version.  Two hot 8 x 8 paths write that expression out in place
instead of calling ``_dots``: the float product (``Matrix.__mul__``) and the
float Gram test (``is_orthogonal``); a test pins both copies to ``_dots``.

The one determinant is ``_det_float``, partial-pivot LU on floats.  It gives
the sign of every SO(8) verdict that nothing proves, exact ones included: an
exactly orthogonal matrix is far enough from singular that the float sign is
exact.  A float matrix whose construction proves det > 0 (``_det_pos``) skips
it at a tolerance up to ``_SIGN_EPS``, where the LU is proved to return that
sign (see ``_so8_verdict``).
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import lcm
from operator import add, mul, sub

from . import kernel
from .kernel import columns
from .scalars import ApproxReal, CheckFailed, approx_eps


class DimensionMismatch(ValueError):
    pass


class NotOrthogonal(CheckFailed):
    pass


class Matrix:
    """Square matrix; rows, read off the form, is a tuple of row tuples of
    scalars.

    Every matrix holds exactly one form from birth: an exact one its reduced
    kernel form (d, a, b) in ``_form``, a float one (eps, float rows) in
    ``_fl``; one computed on a form starts from the form alone.  ``_so8``
    holds the verdict of ``is_special_orthogonal`` once known (None before).
    ``_det_pos`` is True on a float matrix built so that its determinant is
    proved positive once it passes the Gram test at a tolerance up to
    ``_SIGN_EPS`` (see ``_so8_verdict``); False on every other matrix.  A
    construction that proves either passes it to the constructor.
    """

    __slots__ = ("_form", "_fl", "_so8", "_det_pos")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square and non-empty")
        self._so8 = None
        self._det_pos = False
        flat = list(chain.from_iterable(rows))
        eps = approx_eps(flat)
        self._fl = (eps, tuple(tuple(map(float, r)) for r in rows)) if eps else None
        self._form = None if eps else kernel.shaped(*kernel.scale(flat), n)

    @classmethod
    def _of_form(cls, form, *, so8=None) -> "Matrix":
        m = object.__new__(cls)
        m._form = form
        m._fl = None
        m._so8 = so8
        m._det_pos = False
        return m

    @classmethod
    def _of_floats(cls, eps: float, rows, *, so8=None, det_pos=False) -> "Matrix":
        """A float matrix from its tolerance and rows of floats (tuples)."""
        m = object.__new__(cls)
        m._form = None
        m._fl = (eps, rows)
        m._so8 = so8
        m._det_pos = det_pos
        return m

    @property
    def rows(self) -> tuple:
        """The entries as scalars, read off the form: ``ApproxReal`` at the
        form's tolerance, or exact scalars."""
        if self._fl is not None:
            eps, fl = self._fl
            return tuple(tuple(ApproxReal._fast(v, eps) for v in r) for r in fl)
        d, a, b = self._form
        return tuple(kernel.rows_of(tuple(kernel.unscale(d, _flat(a), _flat(b))), len(a)))

    def _floats(self):
        """(eps, rows as float tuples): the float form, or (0.0, the entries
        as floats, see ``kernel.to_floats``) for an exact matrix."""
        if self._fl is not None:
            return self._fl
        d, a, b = self._form
        return 0.0, tuple(kernel.rows_of(kernel.to_floats(d, _flat(a), _flat(b)), len(a)))

    @property
    def n(self) -> int:
        return len((self._fl or self._form)[1])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def transpose(self) -> "Matrix":
        if self._fl is not None:
            eps, rows = self._fl
            # det M^t = det M, positive for a True verdict (``_so8_verdict``)
            return Matrix._of_floats(eps, tuple(zip(*rows)), det_pos=self._so8 is True)
        d, a, b = self._form
        # the exact verdict carries: for square M, M^t M = I iff M M^t = I
        # (a one-sided inverse is two-sided), and det M^t = det M
        return Matrix._of_form((d, columns(a), columns(b)), so8=self._so8)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        n = self.n
        if other.n != n:
            raise DimensionMismatch(f"cannot multiply {n}x{n} by {other.n}x{other.n}")
        both = self._so8 is True and other._so8 is True
        if self._fl is not None or other._fl is not None:
            ea, a = self._floats()
            eb, b = other._floats()
            # entry (i, j): a_i . b_col_j, written out at n = 8 with the bits
            # of ``_dots``; within rounding of AB, and det AB = det A det B > 0
            # for two True verdicts (``_so8_verdict``)
            if n == 8:
                bc = tuple(zip(*b))
                rows = tuple([tuple([0.0 + v0*w0 + v1*w1 + v2*w2 + v3*w3
                                     + v4*w4 + v5*w5 + v6*w6 + v7*w7
                                     for w0, w1, w2, w3, w4, w5, w6, w7 in bc])
                              for v0, v1, v2, v3, v4, v5, v6, v7 in a])
            else:
                rows = tuple(zip(*[_dots(a, c) for c in zip(*b)]))
            return Matrix._of_floats(max(ea, eb), rows, det_pos=both)
        da, a, ab = self._form
        db, b, bb = other._form
        pa, pb = kernel.zmul(kernel.matmul, (a, ab), (columns(b), columns(bb)))
        # SO(8) is a group: (AB)^t AB = B^t (A^t A) B = I and det AB =
        # det A det B = 1; any other pair of verdicts leaves AB's unknown
        return _reduced(da * db, pa, pb, n, so8=both or None)

    def __neg__(self):
        if self._fl is not None:
            return Matrix._of_floats(self._fl[0], tuple(_times(self._fl[1], -1)))
        d, a, b = self._form
        return Matrix._of_form((d, _times(a, -1), _times(b, -1)))

    def scale(self, s) -> "Matrix":
        return Matrix(tuple(e * s for e in row) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.n != self.n:
            return False
        if self._fl is None and other._fl is None:
            # reduced kernel forms are unique, see kernel
            return self._form == other._form
        ea, a = self._floats()
        eb, b = other._floats()
        # eps >= |x - y|, like ApproxReal.__eq__, and False on a nan
        return all(map(max(ea, eb).__ge__, map(abs, map(
            sub, chain.from_iterable(a), chain.from_iterable(b)))))

    def blocks(self) -> tuple:
        """tl, tr, bl, br: the h x h blocks of a 2h x 2h matrix, on its form
        (exact blocks reduced, as a block can share a factor with d)."""
        h, odd = divmod(self.n, 2)
        if odd:
            raise DimensionMismatch("blocks need an even size")
        if self._fl is not None:
            return tuple(Matrix._of_floats(self._fl[0], q) for q in _quarters(self._fl[1], h))
        d, a, b = self._form
        return tuple(_reduced(d, _flat(x), _flat(y), h)
                     for x, y in zip(_quarters(a, h), _quarters(b, h) if b else [None] * 4))

    def __repr__(self):
        return f"<Matrix {self.n}x{self.n}>"


def _reduced(d, a, b, n, *, so8=None) -> Matrix:
    """The exact n x n matrix of the flat form (d, a, b), reduced."""
    return Matrix._of_form(kernel.shaped(*kernel.reduce(d, a, b), n), so8=so8)


def _flat(rows):
    return rows and [x for r in rows for x in r]


def _times(rows, k):
    return rows and [tuple([x * k for x in r]) for r in rows]


def _quarters(rows, h):
    halves = (slice(h), slice(h, None))
    return [tuple(r[c] for r in rows[s]) for s in halves for c in halves]


def _side_by_side(tl, tr, bl, br):
    return [x + y for x, y in chain(zip(tl, tr), zip(bl, br))]


def join(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    """[[tl, tr], [bl, br]] from four h x h blocks: on the float form if any
    block is a float matrix, else on the kernel form."""
    parts = (tl, tr, bl, br)
    if any(m.n != tl.n for m in parts):
        raise DimensionMismatch("blocks must have one size")
    if any(m._fl is not None for m in parts):
        eps, rows = zip(*[m._floats() for m in parts])
        return Matrix._of_floats(max(eps), tuple(_side_by_side(*rows)))
    forms = [m._form for m in parts]
    # Over d = lcm(d_i) reduced blocks join reduced: a prime p | d divides some
    # d_i as often as d, so p divides neither d / d_i nor (that block being
    # reduced) all of its numerators, nor hence all of the joined ones.
    d = lcm(*[f[0] for f in forms])
    zero = ((0,) * tl.n,) * tl.n
    a, b = [_side_by_side(*[_times(f[k] or zero, d // f[0]) for f in forms]) for k in (1, 2)]
    return Matrix._of_form((d, a, b if any(f[2] for f in forms) else None))


def _dots(vs, w):
    """[v . w for v in vs] on floats: each dot adds the products v[k] * w[k],
    v the left factor, one by one in index order onto +0.0.

    These are the bits of ``sum(map(mul, v, w))`` on CPython 3.11 and
    before, which this replaces.  That ``sum`` starts from the int 0, and
    0 + p for the float p = v[0] * w[0] is float addition 0.0 + p (int
    addition declines a float, and float addition reads the int 0 as 0.0);
    it then adds each further product into a C double, uncompensated, in
    order.  v and w are float rows, columns or octonion float forms; a
    form's int 0 makes a product the int 0 or a zero float, which adds to
    the running float as 0.0 does.  Written out, the bits do not depend on
    the Python version (3.12 made ``sum`` of floats compensated).  n = 8,
    every rotation and octonion here, runs straight-line; any other n
    (16 x 16 Clifford matrices, 7-dim draws, trace forms) folds with ``reduce``.
    ``Matrix.__mul__`` and ``is_orthogonal`` write the n = 8 line out again
    at their 8 x 8 float sites, with these bits.
    """
    if len(w) == 8:
        w0, w1, w2, w3, w4, w5, w6, w7 = w
        return [0.0 + v0 * w0 + v1 * w1 + v2 * w2 + v3 * w3
                + v4 * w4 + v5 * w5 + v6 * w6 + v7 * w7
                for v0, v1, v2, v3, v4, v5, v6, v7 in vs]
    return [reduce(add, map(mul, v, w), 0.0) for v in vs]


def _det_float(rows):
    """The determinant of float rows by partial-pivot LU, a plain float.

    The pivot of column k is the first row i >= k of largest |m[i][k]|: a
    later row replaces the one held only if strictly larger, so a tie keeps
    the earlier row, and a nan neither replaces the one held nor, held, is
    replaced (every comparison with nan is False).  That is the rule of
    ``max(range(k, n), key=...)``, which compares each key to the largest so
    far by ``>``.
    """
    n = len(rows)
    m = [list(row) for row in rows]
    det = 1.0
    for k in range(n):
        p, big = k, abs(m[k][k])
        for i in range(k + 1, n):
            v = abs(m[i][k])
            if v > big:
                p, big = i, v
        top = m[p]
        if top[k] == 0.0:
            return 0.0
        if p != k:
            m[k], m[p] = top, m[k]
            det = -det
        det *= top[k]
        inv = 1.0 / top[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k] * inv
            if f:
                for j in range(k + 1, n):
                    row[j] -= f * top[j]
    return det


def is_orthogonal(m: Matrix) -> bool:
    """m^t m = I, exactly or within tolerance.

    Exact matrices test M^t M = d^2 I on their kernel form M/d: the Gram
    matrix of the columns, as the kernel's plain product over Z[sqrt 3].
    Floats check the column dot products c_i . c_j for i >= j only, c_i the
    left factor; the Gram matrix is symmetric term by term, so this is the
    same test at half the work.  Off the diagonal |dot| stands for
    |dot - 0.0|, the same float: x - 0.0 is x for every float x, -0.0 and
    nan included.  A nan defect fails, as in ``Matrix.__eq__``, so at a
    finite eps every matrix with a non-finite entry fails: its column's
    square norm adds squares, each >= 0, inf or nan, so it is inf or nan.

    At n = 8, the size of every SO(8) verdict, the test is one pass: for
    j = 0, 1, ..., 7 the dot c_j . c_j, then c_i . c_j for i = j + 1, ..., 7,
    each written out with the expression of ``_dots`` (v = c_i, w = c_j)
    and compared as soon as it is computed.  These are the floats and the
    comparisons of ``_dots(cols[j:], c_j)`` per column, which other sizes
    (identity matrices in tests) still call, so the verdict is the same;
    returning at the first failure changes no verdict.
    """
    if m._fl is not None:
        eps, rows = m._fl
        cols = tuple(zip(*rows))
        if len(cols) != 8:  # the dots c_i . c_j for i = j, j + 1, ..., n - 1
            return all(abs(dot - (i == j)) <= eps for j, cj in enumerate(cols)
                       for i, dot in enumerate(_dots(cols[j:], cj), j))
        for j, (w0, w1, w2, w3, w4, w5, w6, w7) in enumerate(cols):
            if not abs(0.0 + w0*w0 + w1*w1 + w2*w2 + w3*w3
                       + w4*w4 + w5*w5 + w6*w6 + w7*w7 - 1.0) <= eps:
                return False
            for v0, v1, v2, v3, v4, v5, v6, v7 in cols[j + 1:]:
                if not abs(0.0 + v0*w0 + v1*w1 + v2*w2 + v3*w3
                           + v4*w4 + v5*w5 + v6*w6 + v7*w7) <= eps:
                    return False
        return True
    d, a, b = m._form
    n = len(a)
    cols = (columns(a), columns(b))
    ga, gb = kernel.zmul(kernel.matmul, cols, cols)
    return not (gb and any(gb)) and ga == [d * d if i == j else 0
                                           for i in range(n) for j in range(n)]


def is_special_orthogonal(m: Matrix) -> bool:
    """m is in SO(8): m is 8x8, m^t m = I (exact, or within tolerance) and
    det > 0, the sign read from the float LU of ``_det_float`` on both
    backends (exact for an exact matrix, see ``_so8_verdict``).  No matrix
    of another size is in SO(8).

    The verdict is computed once per matrix object and kept in ``m._so8``;
    matrices are immutable, so it cannot go stale.  Four constructions pass
    it to the constructor (``so8=``), each with its proof beside it: an
    exact L(x) or R(x) gets ``x.is_unit()`` (``octonion._translation``); an
    exact product of two True factors is True (``Matrix.__mul__``); an exact
    transpose copies it (``Matrix.transpose``); and kmk copies it on both
    backends (``triality._kconj``).  Float translations, sandwiches,
    products and transposes carry no verdict: a tolerance verdict on m says
    nothing bit-exact about the floats of a rounded product or of m^t.  Five
    pass a float matrix the sign of its determinant instead (``det_pos=``),
    so that its verdict runs the Gram test without the LU: a float L(x) or
    R(x) (``octonion._translation``), a float sandwich
    (``octonion.sandwich_matrix``), a float product of two True factors
    (``Matrix.__mul__``), a float transpose of a True matrix
    (``Matrix.transpose``), and kmk, which copies it (``triality._kconj``).
    """
    if m._so8 is None:
        m._so8 = _so8_verdict(m)
    return m._so8


# The largest tolerance at which a float matrix with ``_det_pos`` is decided
# by the Gram test alone: a proved constant (``_so8_verdict``), not a setting.
_SIGN_EPS = 1 / 64


def _so8_verdict(m: Matrix) -> bool:
    """False unless m is 8x8; then m^t m = I, and the sign of the float LU
    determinant of m's floats, unless how m was built proves that sign.

    A float matrix reads its own float rows.  An exact matrix is first tested
    exactly (``is_orthogonal``); only an orthogonal one is read as
    floats (``kernel.to_floats``), and for it the float sign is the sign of
    det M.  Proof, n = 8, u = 2^-53 the unit roundoff, gamma_k = k u / (1 - k u)
    (N. Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.):

    1. M^t M = I, so every singular value of M is 1 and |m_ij| <= 1.  Over
       Q(sqrt 3) the Galois conjugate M* (sqrt 3 -> -sqrt 3) is orthogonal
       too, so an entry a + b sqrt 3 has |a| <= 1 and |b sqrt 3| <= 1.
    2. F = to_floats(M) is within a few ulps of M entrywise: x/d is
       correctly rounded, and x/d + (y/d)*SQRT3 adds four roundings of
       quantities bounded by step 1.  So ||F - M||_2 <= n * 5u.
    3. Partial-pivot LU of F computes L^U^ = PF + dF with
       |dF| <= gamma_(n+1) |L^||U^| (Thm 9.3; n+1, not n, because a
       multiplier is m_ik * (1/m_kk), two roundings).  Partial pivoting keeps
       |l^_ij| <= 1 and |u^_ij| <= 2^(n-1) max|f_ij| (1 + O(u)), so every entry
       of |L^||U^| is at most n 2^(n-1) (1 + O(u)), and P^t L^U^ = M + E with
       ||E||_2 <= n^2 2^(n-1) gamma_(n+1) (1 + O(u)) + n * 5u, about 8e-12.
       A multiplier that underflows to 0 skips an update below 2^-1022,
       which is inside the same bound.
    4. Weyl: every M + tE, t in [0, 1], has singular values >= 1 - ||E|| > 0,
       so det(M + tE) never vanishes and det(M + E) = det(P) prod u^_kk has
       the sign of det M.  In particular no computed pivot is 0.
    5. ``_det_float`` returns +-prod u^_kk rounded after each factor, and a
       rounding keeps the sign of a normal number.  No partial product
       leaves the normal range: each |u^_kk| <= 2^7 (1 + O(u)) and the
       whole product is at least (1 - ||E||)^8, so a partial product (the
       whole one over at most 7 pivots) lies between about 2^-49 and 2^56.

    A float matrix with ``_det_pos``, at a tolerance eps <= ``_SIGN_EPS`` =
    1/64, is decided by the Gram test alone: whenever it passes, the LU
    would return det > 0.  Passing it, every entry is finite
    (``is_orthogonal``), so the sums below are over the reals:

    1. The Gram test computes c_i . c_j within gamma_n |c_i||c_j| (an n-term
       dot onto 0.0), so passing it at eps gives |c_i|^2 <= 1.016 and
       ||M^t M - I||_2 <= n (eps + gamma_n 1.07) < 0.13.  So every singular
       value of M lies in [0.93, 1.07], and |m_ij| <= 1.07.
    2. Steps 3 to 5 above for M's own floats (no conversion term), with
       singular values >= 0.93 in place of 1: the LU's backward error is at
       most n^2 2^(n-1) gamma_(n+1) 1.07, about 9e-12, so the LU returns the
       sign of det M.
    3. M is within delta < 1e-13 (2-norm) of a real matrix M0 whose
       determinant is >= 0 by construction.  By Weyl every matrix on the
       segment from M0 to M has singular values >= 0.93 - delta > 0, so
       det M0 > 0 and det M > 0.  Built with ``det_pos``:

       * a float L(x) or R(x) (``octonion._translation``): M0 = M is the
         translation of x's floats, det = |x|^8 by ``_translation``'s proof,
         which holds over the reals; delta = 0.
       * a float sandwich x -> l (x r) (``octonion.sandwich_matrix``):
         M0 = L(l) R(r) of l's and r's floats, det = |l|^8 |r|^8.  Each entry
         adds 8 signed products onto 0.0, so it is within gamma_8 |l||r| of
         M0's (Cauchy-Schwarz); |l||r| = ||M0||_2 <= 1.07 + delta, so
         delta <= 8 gamma_8 1.08 < 1e-14.
       * a float product AB of two True factors (``Matrix.__mul__``):
         M0 = AB over the factors' floats, and |fl(AB) - AB| <=
         gamma_n |A||B| gives delta <= gamma_n ||A||_F ||B||_F <=
         1.13 n gamma_n < 1e-13.  The product's tolerance is the larger of
         the factors', so each factor passed the Gram test at eps <= 1/64
         and has det > 0: by step 2 where its LU ran, by this lemma where
         it did not, and by the exact proof for an exact factor.
       * a float transpose of a True matrix A (``Matrix.transpose``): it is
         A^t exactly, and det A^t = det A > 0 as for a factor; delta = 0.
       * kmk (``triality._kconj``): k M0 k at the same distance, and
         det(k M0 k) = det M0.

       An underflow adds at most 2^-1074 per operation to these bounds.
    """
    if m.n != 8:
        return False
    if m._det_pos and m._fl[0] <= _SIGN_EPS:
        return is_orthogonal(m)
    return is_orthogonal(m) and _det_float(m._floats()[1]) > 0


def trace_inner_product(a: Matrix, b: Matrix):
    """<a, b> = trace(a^t b) / n, the trace form normalized so <I, I> = 1.

    On floats: ``_dots`` of the flattened rows, times 1/n, at the larger
    tolerance of a and b.  For finite entries that is, bit for bit, the
    fold of the nonzero products only (``ApproxReal`` arithmetic): a zero
    product is +-0.0 or the int 0, and the sum from +0.0 is never -0.0
    (x + (-x) rounds to +0.0, a nonzero exact sum to a nonzero float), so
    adding a zero product leaves it unchanged."""
    if a.n != b.n:
        raise DimensionMismatch("size mismatch")
    if a._fl is None and b._fl is None:
        (da, aa, ab), (db, ba, bb) = a._form, b._form
        x, y = kernel.zdot((_flat(aa), _flat(ab)), (_flat(ba), _flat(bb)))
        return kernel.unscale(da * db * a.n, [x], [y] if y else None)[0]
    (ea, fa), (eb, fb) = a._floats(), b._floats()
    dot = _dots((chain.from_iterable(fa),), tuple(chain.from_iterable(fb)))[0]
    return ApproxReal._fast(dot * (1 / a.n), max(ea, eb))


def random_rotation(rng, backend) -> Matrix:
    """Random element of SO(8) as a product of 12 plane rotations.

    Each factor uses the rational circle parametrization
    (cos, sin) = ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)), so exact-backend output
    is an exactly orthogonal rational matrix (t = p/q: (q^2 - p^2, 2pq) over
    p^2 + q^2, reduced).  A float 1 + t^2 within eps of 0 raises NotOrthogonal.
    """
    m = Matrix.identity(8)
    for _ in range(12):
        i = rng.randrange(8)
        j = rng.randrange(7)
        if j >= i:
            j += 1
        if backend.exact:
            p, q = rng.randint(-8, 8), rng.randint(1, 8)
            d, zero, c, s = p * p + q * q, 0, q * q - p * p, 2 * p * q
        else:
            t = rng.uniform(-2.0, 2.0)
            if t * t + 1.0 <= backend.eps:
                raise NotOrthogonal("1 + t^2 indistinguishable from zero")
            den = 1.0 / (t * t + 1.0)
            d, zero, c, s = 1.0, 0.0, (1.0 - t * t) * den, t * 2.0 * den
        g = [[d if a == b else zero for b in range(8)] for a in range(8)]
        g[i][i] = g[j][j] = c
        g[i][j], g[j][i] = -s, s
        g = (_reduced(d, _flat(g), None, 8) if backend.exact
             else Matrix._of_floats(backend.eps, tuple(map(tuple, g))))
        m = g * m
    return m

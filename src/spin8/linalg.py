"""Dense square matrices over any scalar backend.

Sized for the 8x8 rotation and 16x16 block work here, but generic in n.
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
too) is ``_dots``: products added one by one in index order onto +0.0, never
the builtin ``sum``, whose float algorithm depends on the Python version.

The one determinant is ``_det_float``, partial-pivot LU on floats.  It gives
the sign of every SO(n) verdict, exact ones included: an exactly orthogonal
matrix is far enough from singular that the float sign is exact (see
``_so8_verdict``).
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import lcm
from operator import add, mul, sub

from . import kernel
from .kernel import columns
from .scalars import ApproxReal, approx_eps, format_scalar


class DimensionMismatch(ValueError):
    pass


class NotOrthogonal(ValueError):
    pass


class Matrix:
    """Square matrix; rows, read off the form, is a tuple of row tuples of
    scalars.

    Every matrix holds exactly one form from birth: an exact one its reduced
    kernel form (d, a, b) in ``_form``, a float one (eps, float rows) in
    ``_fl``; one computed on a form starts from the form alone.  ``_so8``
    holds the verdict of ``is_special_orthogonal`` once known (None before).
    """

    __slots__ = ("_form", "_fl", "_so8")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square and non-empty")
        self._so8 = None
        flat = list(chain.from_iterable(rows))
        eps = approx_eps(flat)
        self._fl = (eps, tuple(tuple(map(float, r)) for r in rows)) if eps else None
        self._form = None if eps else kernel.shaped(*kernel.scale(flat), n)

    @classmethod
    def _of_form(cls, form) -> "Matrix":
        m = object.__new__(cls)
        m._form = form
        m._fl = None
        m._so8 = None
        return m

    @classmethod
    def _of_floats(cls, eps: float, rows) -> "Matrix":
        """A float matrix from its tolerance and rows of floats (tuples)."""
        m = object.__new__(cls)
        m._form = None
        m._fl = (eps, rows)
        m._so8 = None
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
            return Matrix._of_floats(eps, tuple(zip(*rows)))
        d, a, b = self._form
        out = Matrix._of_form((d, columns(a), columns(b)))
        # the exact verdict carries: for square M, M^t M = I iff M M^t = I
        # (a one-sided inverse is two-sided), and det M^t = det M
        out._so8 = self._so8
        return out

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        n = self.n
        if other.n != n:
            raise DimensionMismatch(f"cannot multiply {n}x{n} by {other.n}x{other.n}")
        if self._fl is not None or other._fl is not None:
            ea, a = self._floats()
            eb, b = other._floats()
            # column j of the product: a_i . b_col_j over the rows a_i
            return Matrix._of_floats(max(ea, eb), tuple(zip(*[_dots(a, c) for c in zip(*b)])))
        da, a, ab = self._form
        db, b, bb = other._form
        pa, pb = kernel.zmul(kernel.matmul, (a, ab), (columns(b), columns(bb)))
        out = _reduced(da * db, pa, pb, n)
        # SO(n) is a group: (AB)^t AB = B^t (A^t A) B = I and det AB =
        # det A det B = 1; any other pair of verdicts leaves AB's unknown
        if self._so8 and other._so8:
            out._so8 = True
        return out

    def apply_floats(self, eps: float, vec):
        """(tolerance, floats) of M v for v given as floats at tolerance eps
        (0.0 for exact v); M is read as floats when exact."""
        meps, rows = self._floats()
        return max(eps, meps), tuple(_dots(rows, vec))

    def apply_form(self, d, a, b):
        """Reduced kernel form of M v for exact M and v = (a + b sqrt 3)/d."""
        md, ma, mb = self._form
        pa, pb = kernel.zmul(kernel.matmul, (ma, mb), ([a], b and [b]))
        return kernel.reduce(md * d, pa, pb)

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

    def to_json(self) -> list[list[str]]:
        """Row-major nested arrays of scalar literals."""
        return [[format_scalar(e) for e in row] for row in self.rows]

    @classmethod
    def from_json(cls, rows, backend) -> "Matrix":
        """The matrix of ``to_json``'s nested arrays of scalar literals."""
        return cls([[backend.parse(e) for e in row] for row in rows])

    def __repr__(self):
        return f"<Matrix {self.n}x{self.n}>"


def _reduced(d, a, b, n) -> Matrix:
    """The exact n x n matrix of the flat form (d, a, b), reduced."""
    return Matrix._of_form(kernel.shaped(*kernel.reduce(d, a, b), n))


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
    nan included.
    """
    if m._fl is not None:
        eps, rows = m._fl
        cols = tuple(zip(*rows))
        for j, cj in enumerate(cols):
            dots = _dots(cols[j:], cj)  # i = j, j + 1, ..., n - 1
            if abs(dots[0] - 1.0) > eps:
                return False
            for dot in dots[1:]:
                if abs(dot) > eps:
                    return False
        return True
    d, a, b = m._form
    n = len(a)
    cols = (columns(a), columns(b))
    ga, gb = kernel.zmul(kernel.matmul, cols, cols)
    return not (gb and any(gb)) and ga == [d * d if i == j else 0
                                           for i in range(n) for j in range(n)]


def is_special_orthogonal(m: Matrix) -> bool:
    """m^t m = I (exact, or within tolerance) and det > 0, the sign read from
    the float LU of ``_det_float`` on both backends (exact for an exact
    matrix, see ``_so8_verdict``).

    The verdict is computed once per matrix object and kept in ``m._so8``;
    matrices are immutable, so it cannot go stale.  Four places set it
    without this test, each with its proof beside it: an exact L(x) or R(x)
    gets ``x.is_unit()`` (``octonion._translation``); an exact product of
    two True factors is True (``Matrix.__mul__``); an exact transpose copies
    it (``Matrix.transpose``); and ``triality._kconj`` copies it to kmk, on
    both backends.  Float translations, products and transposes carry
    none: a tolerance verdict on m says nothing bit-exact about the floats
    of a rounded product or of m^t.
    """
    if m._so8 is None:
        m._so8 = _so8_verdict(m)
    return m._so8


def _so8_verdict(m: Matrix) -> bool:
    """m^t m = I, then the sign of the float LU determinant of m's floats.

    A float matrix reads its own float rows.  An exact matrix is first tested
    exactly (``is_orthogonal``); only an orthogonal one is read as
    floats (``kernel.to_floats``), and for it the float sign is the sign of
    det M.  Proof, u = 2^-53 the unit roundoff, gamma_k = k u / (1 - k u)
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
       ||E||_2 <= n^2 2^(n-1) gamma_(n+1) (1 + O(u)) + n * 5u: about 8e-12 at
       n = 8, 2e-8 at n = 16 and 8e-3 at n = 32.  A
       multiplier that underflows to 0 skips an update below 2^-1022, which
       is inside the same bound.
    4. Weyl: every M + tE, t in [0, 1], has singular values >= 1 - ||E|| > 0,
       so det(M + tE) never vanishes and det(M + E) = det(P) prod u^_kk has
       the sign of det M.  In particular no computed pivot is 0.
    5. ``_det_float`` returns +-prod u^_kk rounded after each factor, and a
       rounding keeps the sign of a normal number.  No partial product
       leaves the normal range: each |u^_kk| <= 2^(n-1) (1 + O(u)) and the
       whole product is at least (1 - ||E||)^n, so a partial product (the
       whole one over at most n - 1 pivots) lies between about
       (1 - ||E||)^n 2^(-(n-1)^2) and 2^(n(n-1)): 2^-962 .. 2^992 at n = 32.

    Step 3's bound passes 1 beyond n = 32, so a larger exact matrix raises
    DimensionMismatch; this package builds only 8x8 and 16x16 ones.
    """
    if m._fl is None and m.n > 32:
        raise DimensionMismatch(f"exact SO(n) sign is proved up to n = 32, got {m.n}")
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


def random_rotation(rng, backend, n: int = 8, steps: int = 12) -> Matrix:
    """Random element of SO(n) as a product of plane rotations.

    Each factor uses the rational circle parametrization
    (cos, sin) = ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)), so exact-backend output
    is an exactly orthogonal rational matrix (t = p/q: (q^2 - p^2, 2pq) over
    p^2 + q^2, reduced).  A float 1 + t^2 within eps of 0 raises ZeroDivisionError.
    """
    m = Matrix.identity(n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        if backend.exact:
            p, q = rng.randint(-8, 8), rng.randint(1, 8)
            d, zero, c, s = p * p + q * q, 0, q * q - p * p, 2 * p * q
        else:
            t = rng.uniform(-2.0, 2.0)
            if t * t + 1.0 <= backend.eps:
                raise ZeroDivisionError("1 + t^2 indistinguishable from zero")
            den = 1.0 / (t * t + 1.0)
            d, zero, c, s = 1.0, 0.0, (1.0 - t * t) * den, t * 2.0 * den
        g = [[d if a == b else zero for b in range(n)] for a in range(n)]
        g[i][i] = g[j][j] = c
        g[i][j], g[j][i] = -s, s
        g = (_reduced(d, _flat(g), None, n) if backend.exact
             else Matrix._of_floats(backend.eps, tuple(map(tuple, g))))
        m = g * m
    return m

"""Dense square matrices over any scalar backend.

Sized for the 8x8 rotation and 16x16 block work here, but generic in n.
Matrices are immutable; rows are tuples of scalars.  Each matrix computes
through one form of its backend, and the form decides the backend:

* exact: the scaled-integer form (d, a, b) of ``kernel``, built once per
  matrix on first use and kept beside the rows;
* float: (eps, rows of Python floats), set when the matrix is built from
  rows holding an ``ApproxReal``, eps being the largest tolerance among
  them, or directly when a float operation computes the matrix.

A matrix computed on either form builds its scalar rows only when ``rows``
is read.  Float results are bit-identical to entrywise ``ApproxReal``
arithmetic: the same float operations run in the same order (dot products
are ``sum`` over the terms in index order), and a run's tolerances are
uniform and combine as the max.
"""

from __future__ import annotations

from itertools import chain
from operator import mul, sub

from . import kernel
from .kernel import columns
from .scalars import ApproxReal, Rational, approx_eps, format_scalar, invert


class DimensionMismatch(ValueError):
    pass


class NotOrthogonal(ValueError):
    pass


class Matrix:
    """Square matrix; rows is a tuple of row tuples of scalars.

    An exact matrix also keeps its kernel form (d, a, b) in ``_form``, a
    float matrix its float form (eps, float rows) in ``_fl``; a matrix
    computed on a form starts from the form alone.  ``_so8`` holds the
    verdict of ``is_special_orthogonal`` once it is known (None before).
    """

    __slots__ = ("_rows", "_form", "_fl", "_so8")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square and non-empty")
        self._rows = rows
        self._form = None
        self._so8 = None
        eps = approx_eps(chain.from_iterable(rows))
        self._fl = (eps, tuple(tuple(map(float, r)) for r in rows)) if eps else None

    @classmethod
    def _of_form(cls, form) -> "Matrix":
        m = object.__new__(cls)
        m._rows = None
        m._form = form
        m._fl = None
        m._so8 = None
        return m

    @classmethod
    def _of_floats(cls, eps: float, rows) -> "Matrix":
        """A float matrix from its tolerance and rows of floats (tuples)."""
        m = object.__new__(cls)
        m._rows = None
        m._form = None
        m._fl = (eps, rows)
        m._so8 = None
        return m

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            if self._fl is not None:
                eps, fl = self._fl
                self._rows = tuple(
                    tuple(ApproxReal._fast(v, eps) for v in r) for r in fl)
            else:
                d, a, b = self._form
                flat = kernel.unscale(d, [x for r in a for x in r],
                                      b and [x for r in b for x in r])
                self._rows = tuple(kernel.rows_of(tuple(flat), len(a)))
        return self._rows

    def _floats(self):
        """(eps, rows as float tuples): the float form, or (0.0, the entries
        as floats) for an exact matrix."""
        if self._fl is not None:
            return self._fl
        return 0.0, tuple(tuple(map(float, r)) for r in self.rows)

    def _scaled(self):
        """Kernel form (d, a, b) of an exact matrix, a and b as lists of row tuples."""
        if self._form is None:
            d, a, b = kernel.scale([e for row in self._rows for e in row])
            self._form = kernel.shaped(d, a, b, self.n)
        return self._form

    @property
    def n(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len((self._fl or self._form)[1])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "Matrix":
        return cls(((0,) * n,) * n)

    def transpose(self) -> "Matrix":
        if self._fl is not None:
            eps, rows = self._fl
            return Matrix._of_floats(eps, tuple(zip(*rows)))
        if self._form is not None:
            d, a, b = self._form
            return Matrix._of_form((d, columns(a), columns(b)))
        return Matrix(zip(*self._rows))

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        n = self.n
        if other.n != n:
            raise DimensionMismatch(f"cannot multiply {n}x{n} by {other.n}x{other.n}")
        if self._fl is not None or other._fl is not None:
            ea, a = self._floats()
            eb, b = other._floats()
            bcols = tuple(zip(*b))
            return Matrix._of_floats(max(ea, eb), tuple(
                tuple([sum(map(mul, r, c)) for c in bcols]) for r in a))
        da, a, ab = self._scaled()
        db, b, bb = other._scaled()
        pa, pb = kernel.zmul(kernel.matmul, (a, ab), (columns(b), columns(bb)))
        return Matrix._of_form(kernel.shaped(*kernel.reduce(da * db, pa, pb), n))

    def apply(self, vec) -> tuple:
        """M vec for a vector of scalars, through the kernel of its backend."""
        vec = tuple(vec)
        n = self.n
        if len(vec) != n:
            raise DimensionMismatch(f"vector of length {len(vec)} against {n}x{n}")
        eps = approx_eps(vec)
        if eps or self._fl is not None:
            eps, out = self.apply_floats(eps, tuple(map(float, vec)))
            return tuple([ApproxReal._fast(v, eps) for v in out])
        return tuple(kernel.unscale(*self.apply_scaled(*kernel.scale(vec))))

    def apply_floats(self, eps: float, vec):
        """(tolerance, floats) of M v for v given as floats at tolerance eps
        (0.0 for exact v); M is read as floats when exact."""
        meps, rows = self._floats()
        return max(eps, meps), tuple([sum(map(mul, r, vec)) for r in rows])

    def apply_scaled(self, d, a, b):
        """Reduced kernel form of M v for exact M and v = (a + b sqrt 3)/d."""
        md, ma, mb = self._scaled()
        pa, pb = kernel.zmul(kernel.matmul, (ma, mb), ([a], b and [b]))
        return kernel.reduce(md * d, pa, pb)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("size mismatch")
        return Matrix(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )

    def __neg__(self):
        return Matrix(tuple(-e for e in row) for row in self.rows)

    def scale(self, s) -> "Matrix":
        return Matrix(tuple(e * s for e in row) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.n != self.n:
            return False
        if self._form is not None and other._form is not None:
            # reduced kernel forms are unique, see kernel
            return self._form == other._form
        if self._fl is not None or other._fl is not None:
            ea, a = self._floats()
            eb, b = other._floats()
            # eps >= |x - y|, like ApproxReal.__eq__, and False on a nan
            return all(map(max(ea, eb).__ge__, map(abs, map(
                sub, chain.from_iterable(a), chain.from_iterable(b)))))
        for ra, rb in zip(self.rows, other.rows):
            for a, b in zip(ra, rb):
                if not (a == b):
                    return False
        return True

    def det(self):
        """Determinant: fraction-free elimination on the kernel form for exact
        entries, partial-pivot LU on raw floats for the tolerance backend."""
        if self._fl is not None:
            return _det_float(*self._fl)
        d, a, b = self._scaled()
        x, y = kernel.det(a, b)
        return kernel.unscale(d ** self.n, [x], [y] if y else None)[0]

    def to_json(self) -> list[list[str]]:
        """Row-major nested arrays of scalar literals."""
        return [[format_scalar(e) for e in row] for row in self.rows]

    @classmethod
    def from_json(cls, rows, backend) -> "Matrix":
        return cls([[backend.parse(e) if isinstance(e, str) else backend.scalar(e)
                     for e in row] for row in rows])

    def __repr__(self):
        return f"<Matrix {self.n}x{self.n}>"


def _det_float(eps, rows):
    n = len(rows)
    m = [list(row) for row in rows]
    det = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[p][k] == 0.0:
            return ApproxReal(0.0, eps)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        inv = 1.0 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                for j in range(k + 1, n):
                    m[i][j] -= f * m[k][j]
    return ApproxReal(det, eps)


def is_orthogonal(m: Matrix) -> bool:
    """m^t m = I, exactly or within tolerance.

    Exact matrices test M^t M = d^2 I on their kernel form M/d.  Floats check
    column dot products pairwise for j <= i only; the Gram matrix is
    symmetric term by term, so this is the same test at half the work.
    """
    if m._fl is not None:
        eps, rows = m._fl
        cols = tuple(zip(*rows))
        for i, ci in enumerate(cols):
            for j in range(i + 1):
                dot = sum(map(mul, ci, cols[j]))
                if abs(dot - (1.0 if i == j else 0.0)) > eps:
                    return False
        return True
    return kernel.is_orthogonal(*m._scaled())


def is_special_orthogonal(m: Matrix) -> bool:
    """m^t m = I (exact, or within tolerance) and det +1 (sign test on floats).

    The verdict is computed once per matrix object and kept in ``m._so8``;
    matrices are immutable, so it cannot go stale.
    """
    if m._so8 is None:
        m._so8 = _so8_verdict(m)
    return m._so8


def _so8_verdict(m: Matrix) -> bool:
    if not is_orthogonal(m):
        return False
    if m._fl is not None:
        return m.det().value > 0
    d, a, b = m._scaled()
    return kernel.det(a, b) == (d ** m.n, 0)


def trace_inner_product(a: Matrix, b: Matrix):
    """<a, b> = trace(a^t b) / n, the trace form normalized so <I, I> = 1."""
    if a.n != b.n:
        raise DimensionMismatch("size mismatch")
    total = 0
    for ra, rb in zip(a.rows, b.rows):
        for x, y in zip(ra, rb):
            if x and y:
                total = total + x * y
    return total * invert(a.n)


def random_rotation(rng, backend, n: int = 8, steps: int = 12) -> Matrix:
    """Random element of SO(n) as a product of plane rotations.

    Each factor uses the rational circle parametrization
    (cos, sin) = ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)), so exact-backend output
    is an exactly orthogonal rational matrix.
    """
    m = Matrix.identity(n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        if backend.exact:
            t = Rational(rng.randint(-8, 8), rng.randint(1, 8))
        else:
            t = backend.scalar(rng.uniform(-2.0, 2.0))
        den = invert(1 + t * t)
        c = (1 - t * t) * den
        s = 2 * t * den
        g = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        g[i][i] = c
        g[j][j] = c
        g[i][j] = -s
        g[j][i] = s
        m = Matrix(g) * m
    return m

"""Octonion algebra on R^8.

Basis convention: e1 is the multiplicative unit, e2, e3, e4 span a quaternion
subalgebra (i, j, ij), and e5..e8 are l, i*l, j*l, (ij)*l for a doubling
generator l orthogonal to the quaternions.  The 8x8 unit product table is
generated once at import time by doubling R three times (R, C, H, O) with
the Cayley-Dickson rule

    (a, b)(c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))

and is the single source of truth for every product in the package.
Conjugation is the full octonionic one: it fixes e1 and negates e2..e8.

Like a ``Matrix``, an octonion computes through one form of its backend, and
the form decides the backend:

* exact: the reduced scaled-integer form (d, a, b) of ``kernel``, coefficient
  i being (a[i] + b[i]*sqrt 3)/d with a and b lists.  It is unique per value,
  so exact equality is equality of forms.
* float: (eps, floats), set when some coefficient is an ``ApproxReal``, eps
  being the largest tolerance among them.  An exact zero coefficient stays
  the int 0 there and every other coefficient is read as a float.  The int 0
  acts as +0.0 in every float operation, but it negates to 0 and formats as
  "0", as the exact zero it stands for did; -0.0 stays -0.0.

``Octonion(coeffs)`` builds its form at construction, and the form is all an
octonion holds: ``coeffs`` reads scalars off it on every access.  Products
run on one straight-line kernel written out from the table, ``mul_lines``:
on floats, and on the integer parts of exact forms, combined over Z[sqrt 3]
by ``kernel.zmul``.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter, sub

from . import kernel
from .linalg import Matrix, _dots
from .scalars import SQRT3, ApproxReal, CheckFailed, ParseError, approx_eps


class NotUnit(CheckFailed):
    """Octonion expected to have norm 1."""


class NotImaginaryUnit(CheckFailed):
    """Octonion expected to be a unit vector with zero e1 component."""


# --- unit multiplication table ---------------------------------------------

def _unit_mul(i: int, j: int, n: int = 8) -> tuple[int, int]:
    # e_i e_j = s e_k (0-based) in the n-dimensional algebra, each unit being
    # a pair over the n/2-dimensional one: m < n/2 is (e_m, 0), else
    # (0, e_{m-n/2}); conj(e_m) = -e_m unless m = 0.  R (n = 1) ends it.
    if n == 1:
        return (1, 0)
    h = n // 2
    (hi, p), (hj, q) = divmod(i, h), divmod(j, h)
    conj = 1 if q == 0 else -1
    if not hj:  # (a,0)(c,0) = (ac, 0); (0,b)(c,0) = (0, b conj(c))
        s, k = _unit_mul(p, q, h)
        return (s * conj if hi else s, k + h * hi)
    s, k = _unit_mul(q, p, h)  # (a,0)(0,d) = (0, da); (0,b)(0,d) = (-conj(d) b, 0)
    return (-s * conj if hi else s, k + h * (1 - hi))


# TABLE[i][j] = (sign, k) with e_{i+1} * e_{j+1} = sign * e_{k+1} (0-based i, j, k)
TABLE: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(_unit_mul(i, j) for j in range(8)) for i in range(8)
)


def table_rows() -> list[list[str]]:
    """The basis product table as strings, e.g. "e4" or "-e4"."""
    return [
        [("e" if s > 0 else "-e") + str(k + 1) for (s, k) in row]
        for row in TABLE
    ]


def _layouts():
    # Row k of L(x), the matrix of y -> x*y, holds s*x[p] in column q where
    # e_p e_q = s e_k, and row k of R(x), the matrix of y -> y*x, holds s*x[q]
    # in column p.  For fixed q (resp. p), p -> k (resp. q -> k) is a
    # bijection.  Each row is one itemgetter over the 16 signed coefficients
    # (x[0..7], -x[0..7]): index p for s = +1, p + 8 for s = -1.
    left = [[0] * 8 for _ in range(8)]
    right = [[0] * 8 for _ in range(8)]
    for p, row in enumerate(TABLE):
        for q, (s, k) in enumerate(row):
            left[k][q] = p if s > 0 else p + 8
            right[k][p] = q if s > 0 else q + 8
    return ([itemgetter(*r) for r in left], [itemgetter(*r) for r in right])


_LEFT, _RIGHT = _layouts()


def _placed(x, layout, zero=0):
    """Rows of L(x) or R(x) for an 8-vector x (None stays None): integers,
    or floats with zero=0.0, every zero (-0.0 and the int 0 too) as `zero`."""
    if x is None:
        return None
    signed = [v or zero for v in x]
    signed += [-v or zero for v in signed]
    return [get(signed) for get in layout]


def mul_lines(x, y, zero=0):
    """Octonion product of two 8-sequences, the straight-line kernel of both
    backends: the integer parts of exact forms, and floats with zero=0.0.

    Line k is coordinate k of x*y: the terms +-x[p]*y[q] with e_p e_q = +-e_k,
    added in ascending p onto `zero`, as an accumulation loop over ``TABLE``
    does (a test pins each line to the table), so on finite floats every
    coordinate has the loop's bits.  A zero term, which such a loop may skip,
    leaves a nonzero sum unchanged and a zero sum at +0.0; starting floats
    from +0.0 keeps -0.0, which formats as "-0.0", out of the result.
    ``triality._triality_defect`` writes these lines out once more without
    the 0.0 start, each subtracted from its target coordinate of B, and a
    test pins that copy to the table as well.
    """
    x0, x1, x2, x3, x4, x5, x6, x7 = x
    y0, y1, y2, y3, y4, y5, y6, y7 = y
    return [
        zero + x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3 - x4 * y4 - x5 * y5 - x6 * y6 - x7 * y7,
        zero + x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2 + x4 * y5 - x5 * y4 - x6 * y7 + x7 * y6,
        zero + x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1 + x4 * y6 + x5 * y7 - x6 * y4 - x7 * y5,
        zero + x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0 + x4 * y7 - x5 * y6 + x6 * y5 - x7 * y4,
        zero + x0 * y4 - x1 * y5 - x2 * y6 - x3 * y7 + x4 * y0 + x5 * y1 + x6 * y2 + x7 * y3,
        zero + x0 * y5 + x1 * y4 - x2 * y7 + x3 * y6 - x4 * y1 + x5 * y0 - x6 * y3 + x7 * y2,
        zero + x0 * y6 + x1 * y7 + x2 * y4 - x3 * y5 - x4 * y2 + x5 * y3 + x6 * y0 - x7 * y1,
        zero + x0 * y7 - x1 * y6 + x2 * y5 + x3 * y4 - x4 * y3 - x5 * y2 + x6 * y1 + x7 * y0,
    ]


def mul_coeffs(x, y):
    """Product of two octonion coefficient 8-tuples, as scalars.

    The product of the octonions they build: exact inputs multiply on their
    kernel forms; with a float input the result is ``mul_lines`` at the
    largest tolerance of both, as entrywise ``ApproxReal`` arithmetic would
    give it.  No program code calls it: it stays because perfbench's tracer
    wraps it by name, and a perfbench test fails when a name it reads is gone.
    """
    return (Octonion(x) * Octonion(y)).coeffs


# --- the algebra ------------------------------------------------------------

class Octonion:
    """8-vector of scalars with the Cayley-Dickson product.

    Every octonion holds exactly one form from birth: ``_form``, the exact
    kernel form, or ``_fl``, the float form.  One computed on a form starts
    from the form alone.
    A float octonion has one tolerance, its form's eps: its norms and
    translations carry that eps, and a product or comparison of two
    octonions the larger of theirs.
    """

    __slots__ = ("_form", "_fl")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 8:
            raise ValueError("octonion needs exactly 8 coefficients")
        eps = approx_eps(coeffs)
        self._fl = (eps, tuple([float(v) if v or type(v) is ApproxReal else 0
                                for v in coeffs])) if eps else None
        self._form = None if eps else kernel.scale(coeffs)

    @classmethod
    def _of_form(cls, form) -> "Octonion":
        x = object.__new__(cls)
        x._form = form
        x._fl = None
        return x

    @classmethod
    def _of_floats(cls, eps: float, floats) -> "Octonion":
        """A float octonion from its tolerance and its 8 floats (the int 0 for
        an exact zero)."""
        x = object.__new__(cls)
        x._form = None
        x._fl = (eps, floats)
        return x

    @property
    def coeffs(self) -> tuple:
        """The coefficients as scalars, read off the form: ``ApproxReal`` at
        the form's tolerance (an int 0 stays 0), or exact scalars."""
        if self._fl is not None:
            eps, fl = self._fl
            return tuple([ApproxReal._fast(v, eps) if type(v) is float else v for v in fl])
        return tuple(kernel.unscale(*self._form))

    def _floats(self):
        """(eps, floats): the float form, or (0.0, the coefficients as floats)
        for an exact octonion."""
        if self._fl is not None:
            return self._fl
        return 0.0, kernel.to_floats(*self._form)

    @classmethod
    def basis(cls, i: int) -> "Octonion":
        """Basis octonion e_i (1-based); e_1 is the unit."""
        return _BASIS[i - 1]

    @classmethod
    def one(cls) -> "Octonion":
        return _BASIS[0]

    def __neg__(self):
        if self._fl is not None:
            eps, f = self._fl
            return Octonion._of_floats(eps, tuple([-v for v in f]))
        d, a, b = self._form
        return Octonion._of_form((d, [-v for v in a], b and [-v for v in b]))

    def __mul__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        if self._fl is not None or other._fl is not None:
            ex, x = self._floats()
            ey, y = other._floats()
            return Octonion._of_floats(max(ex, ey), mul_lines(x, y, 0.0))
        dx, xa, xb = self._form
        dy, ya, yb = other._form
        pa, pb = kernel.zmul(mul_lines, (xa, xb), (ya, yb))
        return Octonion._of_form(kernel.reduce(dx * dy, pa, pb))

    def conj(self) -> "Octonion":
        if self._fl is not None:
            eps, f = self._fl
            return Octonion._of_floats(eps, (f[0],) + tuple([-v for v in f[1:]]))
        d, a, b = self._form
        return Octonion._of_form(
            (d, a[:1] + [-v for v in a[1:]], b and b[:1] + [-v for v in b[1:]]))

    def norm_sq(self):
        """|x|^2, the sum of the squared coefficients.

        A float octonion adds the squares of its float form in index order
        onto +0.0 (``linalg._dots``), at the form's tolerance: a zero square
        adds +0.0 to a sum >= +0.0, so this is ``ApproxReal`` arithmetic over
        the nonzero terms bit for bit.  An exact one sums exactly on the
        kernel form.
        """
        if self._fl is not None:
            f = self._fl[1]
            return ApproxReal._fast(_dots((f,), f)[0], self._fl[0])
        d, a, b = self._form
        x, y = kernel.zdot((a, b), (a, b))
        return kernel.unscale(d * d, [x], [y] if y else None)[0]

    def is_unit(self) -> bool:
        """norm_sq() == 1, without building the scalar: within the form's
        tolerance, or on the kernel form as the integer identity
        |a + b sqrt 3|^2 = d^2.  The zero vector is no unit at any tolerance."""
        if self._fl is not None:
            eps, f = self._fl
            return any(f) and abs(_dots((f,), f)[0] - 1.0) <= eps
        d, a, b = self._form
        x, y = kernel.zdot((a, b), (a, b))
        return y == 0 and x == d * d

    def is_imaginary_unit(self) -> bool:
        if self._fl is not None:
            eps, f = self._fl
            first_zero = abs(f[0]) <= eps
        else:
            _, a, b = self._form
            first_zero = not a[0] and (b is None or not b[0])
        return first_zero and self.is_unit()

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        if self._fl is None and other._fl is None:
            # reduced kernel forms are unique, see kernel
            return self._form == other._form
        ex, x = self._floats()
        ey, y = other._floats()
        # eps >= |x - y| at the larger tolerance, like ApproxReal.__eq__, and
        # False on a nan
        return all(map(max(ex, ey).__ge__, map(abs, map(sub, x, y))))

    def __repr__(self):
        return f"Octonion({format_octonion(self)})"


_BASIS = tuple(
    Octonion(tuple(1 if j == i else 0 for j in range(8))) for i in range(8)
)


def deviation(x: Octonion, y: Octonion) -> float:
    """Largest |x_i - y_i| over the coefficients read as floats.

    Exact coefficients are read through ``kernel.to_floats``, which gives
    ``float()`` of each scalar bit for bit, so this is the residual a loop
    over ``abs(float(a) - float(b))`` computes; ``float`` keeps it a float
    where two exact zeros of float forms leave the int 0 as the largest.
    """
    return float(max(map(abs, map(sub, x._floats()[1], y._floats()[1]))))


def ensure_unit(x: Octonion) -> Octonion:
    if not x.is_unit():
        raise NotUnit(f"expected a unit octonion, got |x|^2 = {x.norm_sq()}")
    return x


def ensure_imaginary_unit(v: Octonion) -> Octonion:
    if not v.is_imaginary_unit():
        raise NotImaginaryUnit(
            "expected a unit octonion with zero e1 component"
        )
    return v


def transform(m: Matrix, x: Octonion) -> Octonion:
    """The octonion m x for an 8x8 matrix m, computed on the forms of both:
    ``_dots`` at the larger tolerance (m read as floats when exact), or kernel."""
    if m._fl is not None or x._fl is not None:
        (ex, v), (em, rows) = x._floats(), m._floats()
        return Octonion._of_floats(max(ex, em), tuple(_dots(rows, v)))
    (md, ma, mb), (d, a, b) = m._form, x._form
    pa, pb = kernel.zmul(kernel.matmul, (ma, mb), ([a], b and [b]))
    return Octonion._of_form(kernel.reduce(md * d, pa, pb))


def _translation(x: Octonion, layout) -> Matrix:
    """L(x) or R(x): signed copies of the coefficients of x placed by the
    layout, so no scalar products are needed.

    A float octonion gives a float matrix at its form's tolerance, with +0.0
    for every zero; an exact one gives the kernel form, whose signed and
    permuted entries stay reduced, built with its SO(8) verdict:
    x.is_unit().  Proof: |xy| = |x||y| gives L(x)^t L(x) = R(x)^t R(x) =
    |x|^2 I, so |det L(x)| = |det R(x)| = |x|^8; the determinant is
    continuous and nonzero on the nonzero octonions, a connected set, and 1
    at x = 1, so det L(x) = det R(x) = |x|^8, and the matrix is in SO(8) iff
    |x|^2 = 1.  The float matrix is exactly the translation of x's floats,
    so the same proof gives det = |x|^8 >= 0: it is built with ``det_pos``
    (``linalg._so8_verdict``).
    """
    if x._fl is not None:
        eps, fl = x._fl
        return Matrix._of_floats(eps, tuple(_placed(fl, layout, 0.0)), det_pos=True)
    d, a, b = x._form
    return Matrix._of_form((d, _placed(a, layout), _placed(b, layout)), so8=x.is_unit())


def left_translation(x: Octonion) -> Matrix:
    """Matrix of y -> x*y; column j is x * e_j."""
    return _translation(x, _LEFT)


def right_translation(x: Octonion) -> Matrix:
    """Matrix of y -> y*x; column j is e_j * x."""
    return _translation(x, _RIGHT)


def sandwich_matrix(l: Octonion, r: Octonion) -> Matrix:
    """Matrix of x -> l (x r); column j is l (e_j r).

    Exact input gives the kernel product L(l) R(r).  On float input column j
    is ``mul_lines`` of l and column j of R(r) (``_placed`` on r's floats),
    at the largest tolerance of l and r: the floats the octonion product
    computes for l (e_j r), since e_j r is a signed copy of r, rounding is
    symmetric, and ``mul_lines`` gives the same bits for +0.0 and -0.0
    inputs.  Within rounding of L(l) R(r), whose determinant is
    |l|^8 |r|^8 >= 0, it gets ``det_pos`` (``linalg._so8_verdict``).
    """
    if l._fl is None and r._fl is None:
        return left_translation(l) * right_translation(r)
    (el, lf), (er, rf) = l._floats(), r._floats()
    cols = zip(*_placed(rf, _RIGHT, 0.0))
    rows = tuple(zip(*[mul_lines(lf, col, 0.0) for col in cols]))
    return Matrix._of_floats(max(el, er), rows, det_pos=True)


def to_backend(x: Octonion, backend) -> Octonion:
    """An exact octonion x re-coded in the given backend: x itself on the
    exact backend, and on floats its coefficients as floats
    (``kernel.to_floats``, ``float()`` of each scalar bit for bit) at the
    backend's tolerance."""
    if backend.exact:
        return x
    return Octonion._of_floats(backend.eps, kernel.to_floats(*x._form))


def cube_root_of_unity(v: Octonion) -> Octonion:
    """s = (-1 + sqrt(3) v) / 2 for unit imaginary v.

    Satisfies s**3 = 1, s != 1 and s*s = conj(s); together with conj(s) and 1
    these are the cube roots of unity in the subalgebra spanned by 1 and v.

    On floats coefficient 0 is -0.5 and coefficient i is (sqrt(3) * 0.5) * v_i,
    the products ``ApproxReal`` arithmetic forms, with the exact 0 for a zero
    v_i.  On the kernel form, v_0 = 0 gives
    s = (-d + 3 b_i + a_i sqrt 3) / 2d for v = (a + b sqrt 3)/d.
    """
    ensure_imaginary_unit(v)
    if v._fl is not None:
        eps, f = v._fl
        h = SQRT3 * 0.5
        return Octonion._of_floats(eps, (-0.5,) + tuple([h * c if c else 0 for c in f[1:]]))
    d, a, b = v._form
    ra = [-d] + ([3 * y for y in b[1:]] if b else [0] * 7)
    return Octonion._of_form(kernel.reduce(2 * d, ra, [0] + a[1:]))


# --- parsing / formatting ---------------------------------------------------

def format_octonion(x: Octonion) -> str:
    """The literal "[c1, ..., c8]": the float form by ``repr`` (the int 0 as
    "0"), the exact form in the grammar of ``format_scalar``
    (``kernel.literals``)."""
    if x._fl is not None:
        parts = map(repr, x._fl[1])
    else:
        parts = kernel.literals(*x._form)
    return "[" + ", ".join(parts) + "]"


def parse_octonion(text: str, backend) -> Octonion:
    """Parse "[c1, ..., c8]" with scalar literals in the backend's format."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ParseError("octonion literal must be bracketed: [c1, ..., c8]")
    parts = t[1:-1].split(",")
    if len(parts) != 8:
        raise ParseError(f"octonion literal needs 8 entries, got {len(parts)}")
    return Octonion(tuple(backend.parse(p) for p in parts))


# --- random sampling --------------------------------------------------------
#
# Exact-backend points on spheres come from inverse stereographic projection
# of small random rational vectors, so they are exactly unit-norm rationals.

def _draw(rng):
    """Numerator and denominator of a small random rational."""
    return rng.randint(-4, 4), rng.randint(1, 4)


def _draws(rng, k: int):
    """k random rationals from ``_draw`` over their common denominator L:
    (L, numerators)."""
    draws = [_draw(rng) for _ in range(k)]
    den = lcm(*[q for _, q in draws])
    return den, [n * (den // q) for n, q in draws]


def _rational_unit_form(rng, dim: int):
    """Kernel form of the inverse stereographic image of a random rational
    u in Q^(dim-1), its entries drawn by ``_draws``.

    The image of u is (n - 1, 2 u_1, ..., 2 u_(dim-1)) / (n + 1), n = |u|^2.
    With u_i = p_i / L over the common denominator L and S = sum p_i^2 that
    is (S - L^2, 2 L p_1, ...) / (S + L^2).
    """
    den, p = _draws(rng, dim - 1)
    s = sum([x * x for x in p])
    return kernel.reduce(s + den * den, [s - den * den] + [2 * den * x for x in p], None)


def _float_unit_vector(rng, dim: int):
    while True:
        u = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        n = _dots((u,), u)[0] ** 0.5
        if n > 1e-6:
            return tuple([c / n for c in u])


def random_unit_octonion(rng, backend) -> Octonion:
    if backend.exact:
        return Octonion._of_form(_rational_unit_form(rng, 8))
    return Octonion._of_floats(backend.eps, _float_unit_vector(rng, 8))


def random_imaginary_unit(rng, backend) -> Octonion:
    if backend.exact:
        d, a, _ = _rational_unit_form(rng, 7)
        return Octonion._of_form((d, [0] + a, None))
    return Octonion._of_floats(backend.eps, (0,) + _float_unit_vector(rng, 7))


def _random_head(rng, backend, k: int) -> Octonion:
    """Small random coefficients 1..k, the rest exact zeros (the int 0 on
    floats)."""
    if backend.exact:
        den, p = _draws(rng, k)
        return Octonion._of_form(kernel.reduce(den, p + [0] * (8 - k), None))
    return Octonion._of_floats(
        backend.eps, tuple([rng.uniform(-1, 1) for _ in range(k)]) + (0,) * (8 - k))


def random_octonion(rng, backend) -> Octonion:
    """A generic (not necessarily unit) octonion with small coefficients."""
    return _random_head(rng, backend, 8)


def random_quaternion(rng, backend) -> Octonion:
    """A random element of the quaternion subalgebra span(e1..e4)."""
    return _random_head(rng, backend, 4)

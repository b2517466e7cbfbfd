"""Octonion algebra on R^8.

Basis convention: e1 is the multiplicative unit, e2, e3, e4 span a quaternion
subalgebra (i, j, ij), and e5..e8 are l, i*l, j*l, (ij)*l for a doubling
generator l orthogonal to the quaternions.  The 8x8 unit product table is
generated once at import time by Cayley-Dickson doubling

    (a, b)(c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))

and is the single source of truth for every product in the package.
Conjugation is the full octonionic one: it fixes e1 and negates e2..e8.

Products run on one kernel per backend: exact coefficients multiply as
L(x) y on their scaled-integer forms (``kernel``), float coefficients in
``mul_floats``, the straight-line product written out from the table.
"""

from __future__ import annotations

from operator import itemgetter

from . import kernel
from .linalg import Matrix
from .scalars import (
    ApproxReal,
    Rational,
    approx_eps,
    format_scalar,
    infer_backend,
    invert,
    ParseError,
)


class NotUnit(ValueError):
    """Octonion expected to have norm 1."""


class NotImaginaryUnit(ValueError):
    """Octonion expected to be a unit vector with zero e1 component."""


# --- unit multiplication table ---------------------------------------------

_QUAT_CYCLE = {
    (1, 2): (1, 3), (2, 1): (-1, 3),
    (2, 3): (1, 1), (3, 2): (-1, 1),
    (3, 1): (1, 2), (1, 3): (-1, 2),
}


def _quat_mul(a: int, b: int) -> tuple[int, int]:
    # 0-based quaternion units 0=1, 1=i, 2=j, 3=k
    if a == 0:
        return (1, b)
    if b == 0:
        return (1, a)
    if a == b:
        return (-1, 0)
    return _QUAT_CYCLE[(a, b)]


def _unit_mul(i: int, j: int) -> tuple[int, int]:
    # 0-based octonion units as quaternion pairs: m<4 -> (q_m, 0), else (0, q_{m-4})
    hi, lo_i = (i >= 4), i % 4
    hj, lo_j = (j >= 4), j % 4
    if not hi and not hj:
        return _quat_mul(lo_i, lo_j)
    if not hi and hj:                      # (a,0)(0,d) = (0, d*a)
        s, k = _quat_mul(lo_j, lo_i)
        return (s, k + 4)
    if hi and not hj:                      # (0,b)(c,0) = (0, b*conj(c))
        s, k = _quat_mul(lo_i, lo_j)
        return (s if lo_j == 0 else -s, k + 4)
    # (0,b)(0,d) = (-conj(d)*b, 0)
    s, k = _quat_mul(lo_j, lo_i)
    return (-s if lo_j == 0 else s, k)


TABLE: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(_unit_mul(i, j) for j in range(8)) for i in range(8)
)


def unit_product(i: int, j: int) -> tuple[int, int]:
    """(sign, k) with e_i * e_j = sign * e_k, all indices 1-based."""
    s, k = TABLE[i - 1][j - 1]
    return (s, k + 1)


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


def _left_rows(x):
    """Rows of L(x) for an integer 8-vector x (None stays None)."""
    if x is None:
        return None
    signed = x + [-v for v in x]
    return [get(signed) for get in _LEFT]


def mul_floats(x, y):
    """Octonion product of two float 8-sequences: the float kernel.

    Line k is coordinate k of x*y: the terms +-x[p]*y[q] with e_p e_q = +-e_k,
    added in ascending p onto +0.0, as an accumulation loop over ``TABLE``
    does (a test pins each line to the table), so on finite inputs every
    coordinate has the loop's bits.  A zero term, which such a loop may skip,
    leaves a nonzero sum unchanged and a zero sum at +0.0; starting from
    +0.0 keeps -0.0, which formats as "-0.0", out of the result.
    """
    x0, x1, x2, x3, x4, x5, x6, x7 = x
    y0, y1, y2, y3, y4, y5, y6, y7 = y
    return (
        0.0 + x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3 - x4 * y4 - x5 * y5 - x6 * y6 - x7 * y7,
        0.0 + x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2 + x4 * y5 - x5 * y4 - x6 * y7 + x7 * y6,
        0.0 + x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1 + x4 * y6 + x5 * y7 - x6 * y4 - x7 * y5,
        0.0 + x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0 + x4 * y7 - x5 * y6 + x6 * y5 - x7 * y4,
        0.0 + x0 * y4 - x1 * y5 - x2 * y6 - x3 * y7 + x4 * y0 + x5 * y1 + x6 * y2 + x7 * y3,
        0.0 + x0 * y5 + x1 * y4 - x2 * y7 + x3 * y6 - x4 * y1 + x5 * y0 - x6 * y3 + x7 * y2,
        0.0 + x0 * y6 + x1 * y7 + x2 * y4 - x3 * y5 - x4 * y2 + x5 * y3 + x6 * y0 - x7 * y1,
        0.0 + x0 * y7 - x1 * y6 + x2 * y5 + x3 * y4 - x4 * y3 - x5 * y2 + x6 * y1 + x7 * y0,
    )


def mul_coeffs(x, y):
    """Product of two octonion coefficient 8-tuples (the hot path).

    Exact inputs multiply as x*y = L(x) y on their scaled-integer forms.
    Tolerance-backend inputs are multiplied by ``mul_floats`` and re-wrapped
    at the largest tolerance, as entrywise ``ApproxReal`` arithmetic would.
    """
    eps = max(approx_eps(x), approx_eps(y))
    if eps:
        return tuple([ApproxReal._fast(v, eps)
                      for v in mul_floats(map(float, x), map(float, y))])
    dx, xa, xb = kernel.scale(x)
    dy, ya, yb = kernel.scale(y)
    pa, pb = kernel.zmul(
        kernel.matmul, (_left_rows(xa), _left_rows(xb)), ([ya], yb and [yb])
    )
    return tuple(kernel.unscale(*kernel.reduce(dx * dy, pa, pb)))


# --- the algebra ------------------------------------------------------------

class Octonion:
    """8-vector of scalars with the Cayley-Dickson product."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 8:
            raise ValueError("octonion needs exactly 8 coefficients")
        self.coeffs = coeffs

    @classmethod
    def basis(cls, i: int) -> "Octonion":
        """Basis octonion e_i (1-based); e_1 is the unit."""
        return _BASIS[i - 1]

    @classmethod
    def one(cls) -> "Octonion":
        return _BASIS[0]

    @classmethod
    def zero(cls) -> "Octonion":
        return _ZERO

    def __add__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return Octonion(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return Octonion(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return Octonion(-c for c in self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return Octonion(mul_coeffs(self.coeffs, other.coeffs))

    def scale(self, s) -> "Octonion":
        return Octonion(c * s for c in self.coeffs)

    def conj(self) -> "Octonion":
        c = self.coeffs
        return Octonion((c[0],) + tuple(-v for v in c[1:]))

    def norm_sq(self):
        """|x|^2, the sum of the squared coefficients.

        With a nonzero float coefficient the squares add in floats, in index
        order onto +0.0, at the largest tolerance among the nonzero
        coefficients: ``ApproxReal`` arithmetic over the nonzero terms bit
        for bit, since a zero square adds +0.0 to a sum >= +0.0.  Exact
        coefficients mixed in are read as floats, as ``mul_coeffs`` reads
        them.  Otherwise the kernel sums exactly; all zeros give the int 0.
        """
        c = self.coeffs
        if any(type(v) is ApproxReal for v in c):
            c = [v for v in c if v]
            eps = approx_eps(c)
            if eps:
                n = 0.0
                for v in map(float, c):
                    n += v * v
                return ApproxReal._fast(n, eps)
        d, a, b = kernel.scale(c)
        x, y = kernel.zdot((a, b), (a, b))
        return kernel.unscale(d * d, [x], [y] if y else None)[0]

    def inverse(self) -> "Octonion":
        """x^-1 = conj(x) / |x|^2."""
        return self.conj().scale(invert(self.norm_sq()))

    def is_unit(self) -> bool:
        return self.norm_sq() == 1

    def is_imaginary_unit(self) -> bool:
        return self.coeffs[0] == 0 and self.is_unit()

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"Octonion({format_octonion(self)})"

    def __str__(self):
        return format_octonion(self)


_BASIS = tuple(
    Octonion(tuple(1 if j == i else 0 for j in range(8))) for i in range(8)
)
_ZERO = Octonion((0,) * 8)


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


def _translation(x: Octonion, layout) -> Matrix:
    """L(x) or R(x): signed copies of the coefficients of x placed by the
    layout, so no scalar products are needed.

    A zero coefficient places 0 and carries no tolerance.  With a nonzero
    float coefficient the matrix is built on its float form, at the largest
    tolerance among the nonzero coefficients and with +0.0 for the zeros:
    the form ``Matrix`` takes from those entries.
    """
    c = x.coeffs
    eps = approx_eps([v for v in c if v])
    if eps:
        f = [float(v) if v else 0.0 for v in c]
        signed = f + [-u if v else 0.0 for u, v in zip(f, c)]
        return Matrix._of_floats(eps, tuple([get(signed) for get in layout]))
    signed = [v if v else 0 for v in c]
    signed += [-v for v in signed]
    return Matrix([get(signed) for get in layout])


def left_translation(x: Octonion) -> Matrix:
    """Matrix of y -> x*y; column j is x * e_j."""
    return _translation(x, _LEFT)


def right_translation(x: Octonion) -> Matrix:
    """Matrix of y -> y*x; column j is e_j * x."""
    return _translation(x, _RIGHT)


def sandwich_matrix(l: Octonion, r: Octonion) -> Matrix:
    """Matrix of x -> l (x r); column j is l (e_j r).

    On float input column j is ``mul_floats`` of l and column j of R(r), at
    the largest tolerance of l and r: the floats ``mul_coeffs`` computes for
    l (e_j r), since e_j r is a signed copy of r and ``mul_floats`` gives
    the same bits for +0.0 and -0.0 inputs.
    """
    lc, rc = l.coeffs, r.coeffs
    eps = max(approx_eps(lc), approx_eps(rc))
    if not eps:
        return Matrix(zip(*[mul_coeffs(lc, mul_coeffs(e.coeffs, rc)) for e in _BASIS]))
    lf = tuple(map(float, lc))
    cols = zip(*right_translation(r)._floats()[1])
    return Matrix._of_floats(eps, tuple(zip(*[mul_floats(lf, col) for col in cols])))


def to_backend(x: Octonion, backend) -> Octonion:
    """Re-code the coefficients of x in the given backend."""
    return Octonion(tuple(backend.scalar(c) for c in x.coeffs))


def cube_root_of_unity(v: Octonion) -> Octonion:
    """s = (-1 + sqrt(3) v) / 2 for unit imaginary v.

    Satisfies s**3 = 1, s != 1 and s*s = conj(s); together with conj(s) and 1
    these are the cube roots of unity in the subalgebra spanned by 1 and v.
    """
    ensure_imaginary_unit(v)
    backend = infer_backend(v.coeffs)
    half = backend.scalar(Rational(1, 2))
    hr3 = backend.sqrt3() * half
    coeffs = [-half]
    for c in v.coeffs[1:]:
        coeffs.append(hr3 * c if c else 0)
    return Octonion(coeffs)


# --- parsing / formatting ---------------------------------------------------

def format_octonion(x: Octonion) -> str:
    return "[" + ", ".join(format_scalar(c) for c in x.coeffs) + "]"


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

def _random_rational(rng, lim: int = 4):
    return Rational(rng.randint(-lim, lim), rng.randint(1, lim))


def _rational_unit_vector(rng, dim: int):
    u = [_random_rational(rng) for _ in range(dim - 1)]
    n = 0
    for c in u:
        n = n + c * c
    den = invert(n + 1)
    return tuple([(n - 1) * den] + [2 * c * den for c in u])


def _float_unit_vector(rng, dim: int, backend):
    while True:
        u = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        n = sum(c * c for c in u) ** 0.5
        if n > 1e-6:
            return tuple(backend.scalar(c / n) for c in u)


def random_unit_octonion(rng, backend) -> Octonion:
    if backend.exact:
        return Octonion(_rational_unit_vector(rng, 8))
    return Octonion(_float_unit_vector(rng, 8, backend))


def random_imaginary_unit(rng, backend) -> Octonion:
    if backend.exact:
        return Octonion((0,) + _rational_unit_vector(rng, 7))
    return Octonion((0,) + _float_unit_vector(rng, 7, backend))


def random_octonion(rng, backend) -> Octonion:
    """A generic (not necessarily unit) octonion with small coefficients."""
    if backend.exact:
        return Octonion(tuple(_random_rational(rng) for _ in range(8)))
    return Octonion(tuple(backend.scalar(rng.uniform(-1, 1)) for _ in range(8)))


def random_quaternion(rng, backend) -> Octonion:
    """A random element of the quaternion subalgebra span(e1..e4)."""
    if backend.exact:
        head = tuple(_random_rational(rng) for _ in range(4))
    else:
        head = tuple(backend.scalar(rng.uniform(-1, 1)) for _ in range(4))
    return Octonion(head + (0, 0, 0, 0))

"""Scaled-integer kernel: the arithmetic under every exact-backend hot path.

An exact vector or matrix is held as integer numerators over one common
denominator d.  With rational entries that is one integer list ``a``, entry
i being a[i]/d.  Once sqrt 3 enters, a second list ``b`` holds the sqrt-3
parts and entry i is (a[i] + b[i]*sqrt 3)/d, an element of Z[sqrt 3] over d.
Products and Gram matrices then run on Python ints, where a dot product is
one expression (``matmul``) and no gcd is taken per operation; comparisons
become cross-multiplied integer equalities.  No exact determinant is taken:
the sign an SO(8) verdict needs is read from floats (``linalg._so8_verdict``).

A form (d, a, b) is *reduced* when gcd(d, a..., b...) = 1 and b is None
whenever every sqrt-3 part is zero.  Then d is the least common denominator
of the entries, so two reduced forms are equal exactly when their values are.
``scale`` returns reduced forms because exact scalars are kept in lowest
terms; ``reduce`` restores the property after a product.

Integer matrices are lists of rows; a product takes the rows of its left
factor and the columns of its right factor and returns the entries row-major.

Packed comparisons.  A family of integer equalities u_t = v_t can be tested
as one equality of packed integers sum(u_t X^t) = sum(v_t X^t), X = 2^w: an
integer has at most one expansion sum(u_t X^t) with every |u_t| < X/2 (the
lowest digit is its residue mod X taken in (-X/2, X/2), and the rest is the
expansion of (N - u_0)/X), so the two packed integers are equal iff every
u_t = v_t, provided each side's digits lie below X/2 in absolute value.  The
one caller, ``triality._triality_holds``, takes w from the denominators of
its orthogonal matrices, which bound every entry's numerator, so the test is
exact without reading an entry, and the packing turns many short dot
products into a few long multiplications carried out in C.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, mul

from .scalars import SQRT3, QuadExt, Rational


def scale(values):
    """(d, a, b) with values[i] == (a[i] + b[i]*sqrt 3)/d, a reduced form.

    Entries are read through ``numerator`` and ``denominator``, so ints and
    Fractions take the same path.  The ``Octonion`` and ``Matrix``
    constructors, where exact scalars become forms, are its only callers.
    """
    if not any(type(v) is QuadExt for v in values):
        d = lcm(*[v.denominator for v in values])
        return d, [v.numerator * (d // v.denominator) for v in values], None
    ra = [v.a if type(v) is QuadExt else v for v in values]
    rb = [v.b if type(v) is QuadExt else 0 for v in values]
    d = lcm(*[v.denominator for v in ra], *[v.denominator for v in rb])
    a = [v.numerator * (d // v.denominator) for v in ra]
    b = [v.numerator * (d // v.denominator) for v in rb]
    return (d, a, b) if any(b) else (d, a, None)


def reduce(d, a, b):
    """The reduced form of (d, a, b)."""
    if b is not None and not any(b):
        b = None
    g = gcd(d, *a) if b is None else gcd(d, *a, *b)
    if g != 1:
        d //= g
        a = [x // g for x in a]
        if b is not None:
            b = [x // g for x in b]
    return d, a, b


def unscale(d, a, b):
    """The exact scalars of a form: ints when d = 1, else Rational or QuadExt."""
    if b is None:
        if d == 1:
            return [int(x) for x in a]
        return [Rational(x, d) if x else 0 for x in a]
    return [
        QuadExt._fast(Rational(x, d), Rational(y, d)) if y
        else (Rational(x, d) if x else 0)
        for x, y in zip(a, b)
    ]


def to_floats(d, a, b):
    """The entries of a flat form as floats, each bit for bit ``float()`` of
    the scalar ``unscale`` gives.

    float(Fraction(x, d)) is x/d: the reduced fraction has the same value,
    and CPython's int/int true division is correctly rounded, so both are
    the double nearest to it, whether or not x/d is in lowest terms (for an
    int entry, d = 1, x/1 is float(x)).  float(QuadExt) is
    float(a) + float(b)*SQRT3, hence x/d + (y/d)*SQRT3; where y = 0 that
    adds +0.0 to x/d, which is never -0.0, so it leaves x/d.
    """
    if b is None:
        return tuple([x / d for x in a])
    return tuple([x / d + (y / d) * SQRT3 for x, y in zip(a, b)])


def _ratio(x, d):
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def literals(d, a, b):
    """The entries of a flat form as ``format_scalar`` writes their scalars:
    "p/q" in lowest terms ("p" when q = 1), "r/s*r3" and "p/q+r/s*r3" or
    "p/q-r/s*r3" once sqrt 3 enters.  d > 0, so the sign is the numerator's."""
    if b is None:
        return [_ratio(x, d) for x in a]
    out = []
    for x, y in zip(a, b):
        if not y:
            out.append(_ratio(x, d))
        elif not x:
            out.append(_ratio(y, d) + "*r3")
        else:
            out.append(f"{_ratio(x, d)}{'+' if y > 0 else ''}{_ratio(y, d)}*r3")
    return out


def rows_of(flat, n):
    return [flat[i:i + n] for i in range(0, len(flat), n)]


def shaped(d, a, b, n):
    """A flat form with a and b cut into lists of n-tuples."""
    return d, rows_of(tuple(a), n), None if b is None else rows_of(tuple(b), n)


def matmul(rows, cols):
    """Row-major entries of the integer product (rows) x (cols), written out
    for vectors of length 8 (triples, octonions), by ``sum`` for the rest."""
    if len(rows[0]) != 8:
        return [sum(map(mul, r, c)) for r in rows for c in cols]
    return [a0 * c0 + a1 * c1 + a2 * c2 + a3 * c3 + a4 * c4 + a5 * c5 + a6 * c6 + a7 * c7
            for a0, a1, a2, a3, a4, a5, a6, a7 in rows
            for c0, c1, c2, c3, c4, c5, c6, c7 in cols]


def zmul(f, x, y):
    """f extended from Z to Z[sqrt 3]: (xa + xb r)(ya + yb r) with r^2 = 3.

    f is an integer bilinear map returning a flat list, x = (xa, xb) and
    y = (ya, yb); a None part is zero.  Returns (pa, pb), pb None when both
    sqrt-3 parts are.
    """
    xa, xb = x
    ya, yb = y
    pa = f(xa, ya)
    if xb is not None and yb is not None:
        pa = [p + 3 * q for p, q in zip(pa, f(xb, yb))]
    if yb is None:
        return pa, (None if xb is None else f(xb, ya))
    pb = f(xa, yb)
    if xb is not None:
        pb = list(map(add, pb, f(xb, ya)))
    return pa, pb


def zdot(x, y):
    """Dot product over Z[sqrt 3] of x = (xa, xb) and y = (ya, yb) as an
    integer pair; a None part is zero."""
    xa, xb = x
    ya, yb = y
    pa = sum(map(mul, xa, ya))
    pb = 0
    if xb is not None:
        pb = sum(map(mul, xb, ya))
        if yb is not None:
            pa += 3 * sum(map(mul, xb, yb))
    if yb is not None:
        pb += sum(map(mul, xa, yb))
    return pa, pb


def columns(rows):
    return None if rows is None else list(zip(*rows))


def pack(values, width):
    """sum(v_t * 2^(width*t)) over the eight values v_0..v_7, by Horner's rule
    (``+`` binds before ``<<``)."""
    v0, v1, v2, v3, v4, v5, v6, v7 = values
    return (((((((v7 << width) + v6 << width) + v5 << width) + v4 << width)
              + v3 << width) + v2 << width) + v1 << width) + v0

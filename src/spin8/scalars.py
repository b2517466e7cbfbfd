"""Scalars: exact rationals, the quadratic field Q(sqrt 3), and
tolerance-aware floats.

Scalars are boundary values.  Matrices and octonions compute on the integer
or float forms of ``kernel``; scalars are what parsing produces, what
``Matrix.rows`` and ``Octonion.coeffs`` read back, and what ``to_json``
formats.  So a scalar supports only +, *, unary minus, == and float(), with
semantics fixed by its backend: exact equality for ``Rational`` and
``QuadExt``, absolute-tolerance equality for ``ApproxReal``, which also
takes ``1 - x`` and an inverse for ``linalg.random_rotation``.  Plain
``int`` values mix freely with every backend, which lets identity matrices
and basis vectors be written with literal 0 and 1.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Rational = Fraction

_RAT_TYPES = (int, Fraction)
_NUM_TYPES = (int, float, Fraction)

SQRT3 = math.sqrt(3.0)


class ParseError(ValueError):
    """Malformed scalar or octonion literal."""


class QuadExt:
    """a + b*sqrt(3) with exact rational coefficients.

    Closed under + and *; (sqrt 3)**2 reduces to the rational 3, and equality
    is exact coefficient equality.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Rational(a)
        self.b = Rational(b)

    @classmethod
    def _fast(cls, a, b):
        # internal: a, b already normalized rationals
        self = object.__new__(cls)
        self.a = a
        self.b = b
        return self

    def __add__(self, other):
        if isinstance(other, QuadExt):
            return QuadExt._fast(self.a + other.a, self.b + other.b)
        if isinstance(other, _RAT_TYPES):
            return QuadExt._fast(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, QuadExt):
            return QuadExt._fast(
                self.a * other.a + 3 * (self.b * other.b),
                self.a * other.b + self.b * other.a,
            )
        if isinstance(other, _RAT_TYPES):
            return QuadExt._fast(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return QuadExt._fast(-self.a, -self.b)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b
        if isinstance(other, _RAT_TYPES):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        # equal to a Rational (or int) exactly when b == 0, so hash like one
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __float__(self):
        return float(self.a) + float(self.b) * SQRT3

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b})"

    def __str__(self):
        return format_scalar(self)


class ApproxReal:
    """64-bit float compared with an absolute tolerance.

    Tolerances propagate through arithmetic as the max of the operands', so
    every comparison downstream of a computation stays at the tolerance its
    inputs were built with.  All quantities in this package are O(1) (inputs
    are unit vectors), which is why an absolute tolerance suffices.
    """

    __slots__ = ("value", "eps")

    def __init__(self, value, eps: float = 1e-9):
        if not 0 < eps < math.inf:
            raise ValueError("tolerance must be positive and finite")
        self.value = float(value)
        self.eps = eps

    @classmethod
    def _fast(cls, value: float, eps: float):
        self = object.__new__(cls)
        self.value = value
        self.eps = eps
        return self

    def __add__(self, other):
        if type(other) is ApproxReal:
            return ApproxReal._fast(self.value + other.value, max(self.eps, other.eps))
        if isinstance(other, _NUM_TYPES):
            return ApproxReal._fast(self.value + float(other), self.eps)
        return NotImplemented

    __radd__ = __add__

    def __rsub__(self, other):
        if isinstance(other, _NUM_TYPES):
            return ApproxReal._fast(float(other) - self.value, self.eps)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is ApproxReal:
            return ApproxReal._fast(self.value * other.value, max(self.eps, other.eps))
        if isinstance(other, _NUM_TYPES):
            return ApproxReal._fast(self.value * float(other), self.eps)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return ApproxReal._fast(-self.value, self.eps)

    def inverse(self) -> "ApproxReal":
        if abs(self.value) <= self.eps:
            raise ZeroDivisionError("divisor indistinguishable from zero")
        return ApproxReal._fast(1.0 / self.value, self.eps)

    # No __hash__ (defining __eq__ leaves it None): tolerance equality is not
    # transitive, x == y == z with x != z, so no hash can agree with it and
    # sets or dict keys of ApproxReal would hold "equal" values twice.
    def __eq__(self, other):
        if type(other) is ApproxReal:
            return abs(self.value - other.value) <= max(self.eps, other.eps)
        if isinstance(other, _NUM_TYPES):
            return abs(self.value - float(other)) <= self.eps
        return NotImplemented

    def __bool__(self):
        # Exact zero only; truthiness is used to skip known-zero terms in
        # product loops, which must not depend on the tolerance.
        return self.value != 0.0

    def __float__(self):
        return self.value

    def __repr__(self):
        return f"ApproxReal({self.value!r}, eps={self.eps:g})"

    def __str__(self):
        return repr(self.value)


def approx_eps(values) -> float:
    """Largest tolerance among the ApproxReal values, 0.0 if there are none."""
    eps = 0.0
    for v in values:
        if type(v) is ApproxReal and v.eps > eps:
            eps = v.eps
    return eps


def invert(x):
    """1/x for a rational (int or Fraction) or an ``ApproxReal``; a zero, or
    an ``ApproxReal`` within its tolerance of zero, raises ZeroDivisionError."""
    if type(x) is ApproxReal:
        return x.inverse()
    return Rational(1, x)


def format_scalar(x) -> str:
    """Text form: "p/q" for rationals, "p/q+r/s*r3" for Q(sqrt 3), repr for floats."""
    if isinstance(x, ApproxReal):
        return repr(x.value)
    if isinstance(x, QuadExt):
        if not x.b:
            return str(x.a)
        r3 = f"{x.b}*r3" if x.b > 0 else f"-{-x.b}*r3"
        if not x.a:
            return r3
        sep = "+" if x.b > 0 else ""
        return f"{x.a}{sep}{r3}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


_TERM = re.compile(
    r"([+-]?)(?:((?:\d+(?:\.\d*)?|\.\d+)(?:[eE]([+-]?\d+))?|\d+/\d+)(?:\*(r3))?|(r3))$"
)

# A decimal exponent adds as many digits to the exact value as it says, so it
# is bounded like the digits of an integer literal (CPython's default limit
# for int() on strings); "1e999999999" would otherwise build a huge power of 10.
_MAX_EXPONENT = 4300


def _parse_exact(text: str):
    """Parse "p/q", decimals with an optional exponent ("2.5E-3" is 1/400
    exactly), and "a+b*r3" forms into Rational or QuadExt."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty scalar literal")
    a = Rational(0)
    b = Rational(0)
    # a sign right after an exponent marker belongs to the exponent
    for part in re.split(r"(?<![eE])(?=[+-])", s):
        if not part or part in "+-":
            if part:
                raise ParseError(f"bad scalar literal {text!r}")
            continue
        m = _TERM.match(part)
        if m is None or m.end() != len(part):
            raise ParseError(f"bad scalar literal {text!r}")
        sign, coef, exponent, r3a, r3b = m.groups()
        try:
            if exponent and abs(int(exponent)) > _MAX_EXPONENT:
                raise ValueError(f"exponent {exponent} out of range")
            val = Rational(coef) if coef else Rational(1)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {text!r}") from None
        except ValueError as exc:  # too many digits for int(), or a huge exponent
            raise ParseError(f"bad scalar literal: {exc}") from None
        if sign == "-":
            val = -val
        if r3a or r3b:
            b += val
        else:
            a += val
    return QuadExt(a, b) if b else a


class ExactBackend:
    """Produces exact scalars: Rational values, or QuadExt once sqrt 3 enters."""

    name = "exact"
    exact = True
    eps = 0.0

    def scalar(self, x):
        if isinstance(x, QuadExt):
            return x
        if isinstance(x, str):
            return self.parse(x)
        return Rational(x)

    def parse(self, text: str):
        return _parse_exact(text)

    def __repr__(self):
        return "ExactBackend()"


class FloatBackend:
    """Produces ApproxReal scalars sharing one comparison tolerance."""

    name = "float"
    exact = False

    def __init__(self, eps: float = 1e-9):
        if not 0 < eps < math.inf:
            raise ValueError("tolerance must be positive and finite")
        self.eps = float(eps)

    def scalar(self, x):
        if isinstance(x, ApproxReal):
            return x
        if isinstance(x, str):
            return self.parse(x)
        return ApproxReal(float(x), self.eps)

    def parse(self, text: str):
        """A literal of the exact grammar read to the nearest double; it must
        be finite.  A plain decimal ("5e-324", "-0.0", as float reports print
        repr) is read by float(), which rounds it correctly as float() of its
        exact value does and keeps the sign of a zero; the grammar check
        rejects what float() alone would take, such as "1_0" or "1E5_0"."""
        try:
            value = float(text)
        except ValueError:
            value = None
        if value is None or math.isfinite(value):
            exact = _parse_exact(text)  # the grammar both backends read
            if value is None:
                try:
                    value = float(exact)
                except OverflowError:
                    value = math.inf
        if not math.isfinite(value):
            raise ParseError(f"non-finite scalar literal {text!r}")
        return ApproxReal(value, self.eps)

    def __repr__(self):
        return f"FloatBackend(eps={self.eps:g})"


EXACT = ExactBackend()


import math
import random

import pytest

from spin8.scalars import (
    EXACT,
    ApproxReal,
    FloatBackend,
    ParseError,
    QuadExt,
    Rational,
    format_scalar,
)


def test_rational_basics():
    assert Rational(1, 2) + Rational(1, 3) == Rational(5, 6)
    assert Rational(2, 4) == Rational(1, 2)
    assert format_scalar(Rational(-3, 6)) == "-1/2"


def test_quadext_squares_to_three():
    r3 = QuadExt(0, 1)
    assert r3 * r3 == 3
    assert r3 * r3 == QuadExt(3, 0)


def test_quadext_closure_and_mixing():
    x = QuadExt(Rational(1, 3), Rational(-2, 5))
    y = QuadExt(Rational(7, 2), Rational(1, 4))
    for v in (x + y, x * y, -x):
        assert isinstance(v, QuadExt)
    # rationals and ints mix from either side
    assert 1 + x == x + 1
    assert Rational(1, 2) * x == x * Rational(1, 2)
    assert QuadExt(5, 0) == 5
    assert QuadExt(5, 1) != 5


def test_field_axioms_sampled():
    rng = random.Random(2)

    def rand():
        return QuadExt(Rational(rng.randint(-6, 6), rng.randint(1, 6)),
                       Rational(rng.randint(-6, 6), rng.randint(1, 6)))

    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_approx_real_tolerance():
    a = ApproxReal(1.0, 1e-9)
    assert a == 1.0
    assert a + 5e-10 == a
    assert not (a + 1e-8 == a)
    assert a != ApproxReal(1.1, 1e-9)
    # tolerance propagates as the max
    wide = ApproxReal(1.0, 1e-3)
    assert (a + wide).eps == 1e-3
    assert wide == ApproxReal(1.0005, 1e-9)
    # truthiness is exact zero on every backend, never tolerance-based
    assert not ApproxReal(0.0, 1e-9) and not QuadExt(0, 0) and not Rational(0)
    assert ApproxReal(1e-30, 1e-9) and QuadExt(0, Rational(1, 10**9))


def test_approx_real_eps_validation():
    with pytest.raises(ValueError):
        ApproxReal(1.0, 0.0)
    with pytest.raises(ValueError):
        FloatBackend(-1.0)
    # a nan tolerance compares as neither small nor large, an infinite one
    # makes every comparison pass
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ApproxReal(1.0, eps)
        with pytest.raises(ValueError):
            FloatBackend(eps)


def test_embed_float_is_homomorphic_up_to_ulps():
    # 4 ulp measured at the scale where the roundings happen: the
    # cancellation-free magnitude |a| + sqrt(3)|b| of each operand
    rng = random.Random(3)

    def magnitude(q):
        return abs(float(q.a)) + math.sqrt(3) * abs(float(q.b))

    for _ in range(50):
        a = QuadExt(Rational(rng.randint(-9, 9), rng.randint(1, 9)),
                    Rational(rng.randint(-9, 9), rng.randint(1, 9)))
        b = QuadExt(Rational(rng.randint(-9, 9), rng.randint(1, 9)),
                    Rational(rng.randint(-9, 9), rng.randint(1, 9)))
        for op, scale in (
            (lambda u, v: u + v, magnitude(a) + magnitude(b)),
            (lambda u, v: u * v, magnitude(a) * magnitude(b)),
        ):
            exact = float(op(a, b))
            floated = op(ApproxReal(float(a), 1e-9), ApproxReal(float(b), 1e-9)).value
            assert abs(exact - floated) <= 4 * math.ulp(max(scale, 1.0))


def test_parse_scalars():
    cases = {
        "1/2": Rational(1, 2),
        "-1/2": Rational(-1, 2),
        "3": Rational(3),
        "0.25": Rational(1, 4),
        "r3": QuadExt(0, 1),
        "-r3": QuadExt(0, -1),
        "1/2*r3": QuadExt(0, Rational(1, 2)),
        "-1/2+1/2*r3": QuadExt(Rational(-1, 2), Rational(1, 2)),
        "1/2 - 1/2 * r3": QuadExt(Rational(1, 2), Rational(-1, 2)),
        " - 3/5 ": Rational(-3, 5),
        "2+r3": QuadExt(2, 1),
        # decimal exponents, read exactly: the float grammar's literals
        "1e0": Rational(1),
        "2.5E-3": Rational(1, 400),
        "-1.5e+2": Rational(-150),
        ".5e1": Rational(5),
        "1e-2+3E1*r3": QuadExt(Rational(1, 100), 30),
        "1e4300": Rational(10**4300),
    }
    for text, expected in cases.items():
        assert EXACT.parse(text) == expected, text
    for text in ("1e0", "2.5E-3", "-1.5e+2", ".5e1", "0e0", "1e-2"):
        assert FloatBackend(1e-9).parse(text).value == float(EXACT.parse(text)), text
    for bad in ("", "x", "1//2", "r3r3", "1+", "--1", "1/0", "1/2+3/0*r3",
                "9" * 5000, "1/2e3", "1e", "e3", "1e+-2", "r3e1", "1e4301",
                "1e-4301", "1e" + "9" * 5000):
        with pytest.raises(ParseError):
            EXACT.parse(bad)


def test_format_parse_round_trip():
    rng = random.Random(4)
    for _ in range(40):
        x = QuadExt(Rational(rng.randint(-9, 9), rng.randint(1, 9)),
                    Rational(rng.randint(-9, 9), rng.randint(1, 9)))
        assert EXACT.parse(format_scalar(x)) == x
    assert format_scalar(ApproxReal(0.5, 1e-9)) == "0.5"


def test_float_backend_parsing():
    fb = FloatBackend(1e-9)
    assert fb.parse("0.5").value == 0.5
    assert fb.parse("1e-3").value == 1e-3
    assert abs(fb.parse("-1/2+1/2*r3").value - 0.3660254037844386) < 1e-15
    # float reports print repr, so every finite repr parses back
    for x in (1.5e-300, -2.5e+300, 5e-324, 0.1):
        assert fb.parse(repr(x)).value == x
    assert math.copysign(1.0, fb.parse("-0.0").value) == -1.0
    for bad in ("nan", "-inf", "Infinity", "1e400", "10" * 200 + "/3"):
        with pytest.raises(ParseError):
            fb.parse(bad)
    # the float backend reads only the exact grammar, which has no "_", only
    # ASCII digits (float() reads "1e\u0660", an Arabic-Indic 0, as 1.0) and
    # whitespace only around a term, after its sign and around "*"
    for bad in ("1_0e-1", "1E5_0", "1_0", "_1", "1e-5000",
                "\u0663/5", "\uff13/\uff15", "1e\u0660",
                "0.6 0", "4 /5", "4/ 5", "0.8e 0", "1e -5", "1/2*r 3"):
        with pytest.raises(ParseError, match="bad scalar literal"):
            fb.parse(bad)
        with pytest.raises(ParseError, match="bad scalar literal"):
            EXACT.parse(bad)


def test_backends():
    fb = FloatBackend(1e-6)
    assert fb.eps == 1e-6
    assert EXACT.exact and not fb.exact


def test_quadext_hash_agrees_with_eq():
    assert hash(QuadExt(1, 0)) == hash(1) == hash(Rational(1))
    assert hash(QuadExt(Rational(-2, 3))) == hash(Rational(-2, 3))
    assert hash(QuadExt(1, 2)) == hash(QuadExt(Rational(2, 2), 2))
    assert {QuadExt(2, 0), 2, Rational(2)} == {2}
    assert len({QuadExt(1, 1), QuadExt(1, 1), QuadExt(1, -1), 1}) == 3
    assert {QuadExt(0, 0): "zero"}[0] == "zero"
    # tolerance equality is not transitive, so ApproxReal stays unhashable
    with pytest.raises(TypeError):
        hash(ApproxReal(1.0, 1e-9))

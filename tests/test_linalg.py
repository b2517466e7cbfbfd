import ast
import hashlib
import json
import math
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import spin8.linalg as linalg
from spin8 import kernel
from spin8.linalg import (
    DimensionMismatch,
    Matrix,
    NotOrthogonal,
    is_orthogonal,
    is_special_orthogonal,
    join,
    random_rotation,
    trace_inner_product,
)
from spin8.octonion import (
    Octonion,
    cube_root_of_unity,
    left_translation,
    random_imaginary_unit,
    random_unit_octonion,
    right_translation,
    sandwich_matrix,
    transform,
)
from spin8.scalars import EXACT, ApproxReal, FloatBackend, QuadExt, Rational, format_scalar


def test_identity_and_multiply():
    i8 = Matrix.identity(8)
    rng = random.Random(1)
    m = random_rotation(rng, EXACT)
    assert i8 * m == m
    assert m * i8 == m
    assert m.transpose().transpose() == m
    # Q(sqrt 3) products, and mixed with a rational factor, entry by entry
    s = cube_root_of_unity(random_imaginary_unit(rng, EXACT))
    t = cube_root_of_unity(random_imaginary_unit(rng, EXACT))
    for a, b in ((left_translation(s), right_translation(t)),
                 (left_translation(s), m), (m, left_translation(t))):
        ab = a * b
        for i in range(8):
            for j in range(8):
                terms = (a.rows[i][k] * b.rows[k][j] for k in range(8))
                assert ab.rows[i][j] == sum(terms, QuadExt(0))
    # products compare on their whole scaled form: denominator, integer
    # parts and sqrt-3 parts
    half = i8.scale(Rational(1, 2)) * i8
    assert half != i8 * i8
    assert half * i8.scale(2) == i8 * i8
    assert i8.scale(QuadExt(1, 1)) * i8 != i8 * i8


def test_exact_equality_reads_the_whole_form():
    # one path: exact matrices compare their reduced kernel forms, whether
    # built from rows or computed on a form
    rng = random.Random(9)
    m = random_rotation(rng, EXACT)
    s = cube_root_of_unity(random_imaginary_unit(rng, EXACT))
    for prod in (m * m, left_translation(s) * m, left_translation(s) * right_translation(s)):
        rows = Matrix(prod.rows)
        assert rows == prod and prod == rows
        assert rows.transpose() == prod.transpose()
        assert Matrix(zip(*prod.rows)) == prod.transpose()
        assert rows.transpose().transpose() == prod
        assert rows != prod.transpose() and prod.transpose() != rows
    # QuadExt(x, 0) entries are the rationals they equal
    half, third = Rational(1, 2), Rational(1, 3)
    assert Matrix([[QuadExt(half, 0), 0], [0, QuadExt(2, 0)]]) == Matrix([[half, 0], [0, 2]])
    assert Matrix([[2, 0], [0, 1]]) == Matrix([[Rational(4, 2), 0], [0, QuadExt(1)]])
    # rows that differ only in d, only in a sqrt-3 part, only in a rational part
    r = QuadExt(half, half)
    pairs = [
        ([[half, 0], [0, half]], [[third, 0], [0, third]]),
        ([[r, 0], [0, 1]], [[QuadExt(half, -half), 0], [0, 1]]),
        ([[r, 0], [0, 1]], [[QuadExt(-half, half), 0], [0, 1]]),
    ]
    i2 = Matrix.identity(2)
    for a, b in pairs:
        x, y = Matrix(a), Matrix(b)
        assert x != y and x.transpose() != y.transpose() and x * i2 != y * i2
        assert x == Matrix(a) and x * i2 == Matrix(a) and x.transpose() == Matrix(a)  # diagonal


def test_transpose_of_product():
    rng = random.Random(2)
    a = random_rotation(rng, EXACT)
    b = random_rotation(rng, EXACT)
    assert (a * b).transpose() == b.transpose() * a.transpose()


def test_apply():
    l2 = left_translation(Octonion.basis(2))
    assert transform(l2, Octonion.basis(1)) == Octonion.basis(2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3, 4]]) * Matrix.identity(3)
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2, 3], [4, 5, 6]])


def test_det_quadext():
    # L(s) for a cube root of unity s is a rotation; negating one column
    # makes it orthogonal with det -1
    ls = left_translation(cube_root_of_unity(Octonion.basis(2)))
    assert is_special_orthogonal(ls)
    flipped = Matrix([(-row[0],) + row[1:] for row in ls.rows])
    assert is_orthogonal(flipped) and not is_special_orthogonal(flipped)


def _known_sign_matrix(rng, kind):
    """An exact 8x8 matrix and its SO(8) verdict, known by construction: +1
    for rotations and unit translations, the permutation's sign times the
    signs' product for a signed permutation."""
    if kind == "rotation":
        m = Matrix.identity(8)
        for _ in range(rng.randint(0, 16)):  # 0 to 192 plane rotations
            m = m * random_rotation(rng, EXACT)
        return m, 1
    if kind == "permutation":
        n = 8
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice([1, -1]) for _ in range(n)]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        sign = (-1) ** inversions * math.prod(signs)
        return Matrix([[signs[i] if j == perm[i] else 0 for j in range(n)]
                       for i in range(n)]), sign
    m = Matrix.identity(8)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            u = random_unit_octonion(rng, EXACT)
        else:
            u = cube_root_of_unity(random_imaginary_unit(rng, EXACT))
        make = rng.choice([left_translation, right_translation,
                           lambda s: sandwich_matrix(s, s.conj())])
        m = m * make(u)
    return m, 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["rotation", "translations", "permutation"]),
       st.sampled_from(["as-is", "column-negated", "scaled-2", "scaled-quadext"]))
def test_so8_verdict_reads_the_exact_sign(seed, kind, change):
    # The exact verdict is the exact Gram test, then the sign of the float LU
    # determinant (linalg._so8_verdict); it matches the sign known by
    # construction, on rational and Q(sqrt 3) 8x8 matrices.
    rng = random.Random(seed)
    m, sign = _known_sign_matrix(rng, kind)
    if change == "column-negated":
        c = rng.randrange(m.n)
        m = Matrix([[-x if j == c else x for j, x in enumerate(r)] for r in m.rows])
        sign = -sign
    elif change != "as-is":
        k = 2 if change == "scaled-2" else QuadExt(Rational(1, 2), Rational(1, 2))
        m, sign = m.scale(k), None
    assert is_orthogonal(m) is (sign is not None)
    assert linalg._so8_verdict(m) is (sign == 1)


def test_no_matrix_of_another_size_is_in_so8():
    for n in (4, 16, 33):
        eye = Matrix.identity(n)
        assert is_orthogonal(eye) and not is_special_orthogonal(eye)
        floats = Matrix._of_floats(1e-9, eye._floats()[1], det_pos=True)
        assert is_orthogonal(floats) and not is_special_orthogonal(floats)
    assert is_special_orthogonal(Matrix.identity(8))


def _fresh(m):
    # the same matrix on its form, with no SO(n) verdict yet
    return Matrix._of_form(m._form)


_TRANSLATED = {
    "unit": lambda rng: random_unit_octonion(rng, EXACT),
    "non-unit": lambda rng: Octonion((Rational(3, 5), Rational(4, 5), 1, 0, 0, 0, 0, 0)),
    "zero": lambda rng: Octonion((0,) * 8),
    "rational-unit": lambda rng: Octonion((0, 0, Rational(5, 13), 0, 0, 0, Rational(-12, 13), 0)),
    "cube-root": lambda rng: cube_root_of_unity(random_imaginary_unit(rng, EXACT)),
    "sqrt3-non-unit": lambda rng: Octonion((QuadExt(Rational(1, 2), Rational(1, 2)),) + (0,) * 7),
}


@pytest.mark.parametrize("kind", sorted(_TRANSLATED))
def test_exact_translation_carries_the_fresh_verdict(kind):
    # octonion._translation sets L(x) and R(x) in SO(8) iff x is a unit
    # (|xy| = |x||y| and det L(x) = |x|^8); each carried verdict is the one
    # linalg computes afresh, Gram and determinant
    x = _TRANSLATED[kind](random.Random(31))
    unit = kind in ("unit", "rational-unit", "cube-root")
    assert x.is_unit() is unit
    for make in (left_translation, right_translation):
        m = make(x)
        assert m._so8 is unit
        assert linalg._so8_verdict(_fresh(m)) is unit


def test_exact_products_and_transposes_carry_the_fresh_verdict():
    rng = random.Random(32)
    s = random_unit_octonion(rng, EXACT)
    u = cube_root_of_unity(random_imaginary_unit(rng, EXACT))
    rot = left_translation(s) * right_translation(u)  # True times True
    assert rot._so8 is True and linalg._so8_verdict(_fresh(rot)) is True
    reflect = Matrix([[(-1 if i == j == 0 else int(i == j)) for j in range(8)]
                      for i in range(8)])
    assert is_special_orthogonal(reflect) is False
    non_unit = left_translation(Octonion((1, 1, 0, 0, 0, 0, 0, 0)))
    undecided = random_rotation(rng, EXACT)
    assert non_unit._so8 is False and undecided._so8 is None
    # a False or unknown factor decides nothing: the product is unknown,
    # whatever its fresh verdict (a reflection times a rotation is False,
    # a rotation times a rotation True)
    for a, b, fresh in ((rot, reflect, False), (reflect, rot, False),
                        (non_unit, rot, False), (rot, undecided, True),
                        (undecided, rot, True), (reflect, reflect, True)):
        p = a * b
        assert p._so8 is None and linalg._so8_verdict(_fresh(p)) is fresh
    # a transpose carries True, False and None unchanged
    for m in (rot, reflect, non_unit, rot * reflect):
        t = m.transpose()
        assert t._so8 is m._so8
        if m._so8 is not None:
            assert linalg._so8_verdict(_fresh(t)) is m._so8


def test_float_translations_products_and_transposes_carry_no_verdict():
    # a tolerance verdict says nothing bit-exact about other floats
    fb = FloatBackend(1e-9)
    rng = random.Random(33)
    a = left_translation(random_unit_octonion(rng, fb))
    b = right_translation(random_unit_octonion(rng, fb))
    assert a._so8 is None and b._so8 is None
    assert is_special_orthogonal(a) and is_special_orthogonal(b)
    assert (a * b)._so8 is None and a.transpose()._so8 is None
    assert (a * left_translation(random_unit_octonion(rng, EXACT)))._so8 is None


# Every site that writes an SO(n) verdict, with the value it writes: an
# assignment to ._so8, written as its value, or a constructor keyword so8=.
# Each one but the constructors' None and the memo of is_special_orthogonal
# carries its proof beside it; a new site fails the test below until its
# proof is written and it is listed here.
_VERDICT_SITES = sorted([
    ("linalg", "Matrix.__init__", "None"),
    ("linalg", "Matrix._of_form", "so8"),
    ("linalg", "Matrix._of_floats", "so8"),
    ("linalg", "Matrix.transpose", "so8=self._so8"),
    ("linalg", "Matrix.__mul__", "so8=both or None"),
    ("linalg", "_reduced", "so8=so8"),
    ("linalg", "is_special_orthogonal", "_so8_verdict(m)"),
    ("octonion", "_translation", "so8=x.is_unit()"),
    ("triality", "_kconj", "so8=m._so8"),  # float
    ("triality", "_kconj", "so8=m._so8"),  # exact
])


# Every site that writes a float matrix's proved determinant sign, with the
# value it writes (an assignment to ._det_pos or a keyword det_pos=).  Each
# one but the constructors' False carries its proof in linalg._so8_verdict;
# a new site fails the test below until its proof is written there and it
# is listed here.
_SIGN_SITES = sorted([
    ("linalg", "Matrix.__init__", "False"),
    ("linalg", "Matrix._of_form", "False"),
    ("linalg", "Matrix._of_floats", "det_pos"),
    ("linalg", "Matrix.transpose", "det_pos=self._so8 is True"),
    ("linalg", "Matrix.__mul__", "det_pos=both"),
    ("octonion", "_translation", "det_pos=True"),
    ("octonion", "sandwich_matrix", "det_pos=True"),
    ("triality", "_kconj", "det_pos=m._det_pos"),
])


def _verdict_writes(tree, module, attr="_so8"):
    """(module, qualified name, value) of each assignment to an .<attr>, and
    (module, qualified name, "key=value") of each call keyword named <attr>
    without its underscore."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        for target in node.targets if isinstance(node, ast.Assign) else ():
            for t in ast.walk(target):
                if isinstance(t, ast.Attribute) and t.attr == attr:
                    found.append((module, ".".join(scope), ast.unparse(node.value)))
        for kw in node.keywords if isinstance(node, ast.Call) else ():
            if kw.arg == attr[1:]:
                found.append((module, ".".join(scope), ast.unparse(kw)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _src_trees():
    src = Path(linalg.__file__).parent
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))]


def test_every_verdict_site_is_listed():
    writes = [w for module, tree in _src_trees() for w in _verdict_writes(tree, module)]
    assert sorted(writes) == _VERDICT_SITES


def test_every_sign_site_is_listed():
    writes = [w for module, tree in _src_trees()
              for w in _verdict_writes(tree, module, "_det_pos")]
    assert sorted(writes) == _SIGN_SITES
    # the tolerance up to which the sign is proved is a constant of linalg
    assert linalg._SIGN_EPS == 1 / 64


def test_only_linalg_assigns_a_verdict_slot():
    # a construction outside linalg that proves a verdict or a sign passes it
    # to the constructor; no other module writes ._so8 or ._det_pos, by
    # assignment, augmented or annotated assignment, or setattr
    slots = {"_so8", "_det_pos"}
    for module, tree in _src_trees():
        if module == "linalg":
            continue
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            for t in (t for target in targets for t in ast.walk(target)):
                assert not (isinstance(t, ast.Attribute) and t.attr in slots), \
                    (module, node.lineno)
            if isinstance(node, ast.Call) and "setattr" in ast.unparse(node.func):
                assert not {a.value for a in node.args if isinstance(a, ast.Constant)} & slots, \
                    (module, node.lineno)


# Every call of the public constructors, where scalars become a form:
# constants, parsing, Matrix.scale and mul_coeffs.  A value computed on a form
# is built on its form, so a new scalar round trip fails the test below until
# it is listed here.
_CONSTRUCTOR_SITES = sorted([
    ("checks", "_TWO"),
    ("clifford", "_Z8"),
    ("linalg", "Matrix.identity"),
    ("linalg", "Matrix.scale"),
    ("octonion", "_BASIS"),
    ("octonion", "mul_coeffs"),
    ("octonion", "mul_coeffs"),
    ("octonion", "parse_octonion"),
])


def _constructor_calls(tree, module):
    """(module, site) of each call Octonion(...), Matrix(...), or cls(...)
    inside those classes; a site is the enclosing qualified name, or the
    assigned name for module-level code."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        elif not scope and isinstance(node, ast.Assign):
            scope = tuple(ast.unparse(t) for t in node.targets)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
                node.func.id in ("Octonion", "Matrix")
                or node.func.id == "cls" and scope[0] in ("Octonion", "Matrix")):
            found.append((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_scalars_become_forms_only_at_listed_sites():
    src = Path(linalg.__file__).parent
    calls = []
    for path in sorted(src.glob("*.py")):
        calls += _constructor_calls(ast.parse(path.read_text()), path.stem)
    assert sorted(calls) == _CONSTRUCTOR_SITES
    # the form is all a value holds: no second, scalar copy
    assert Octonion.__slots__ == ("_form", "_fl")
    assert Matrix.__slots__ == ("_form", "_fl", "_so8", "_det_pos")


def test_special_orthogonal_predicate():
    assert is_special_orthogonal(Matrix.identity(8))
    reflect = [[(-1 if i == j == 0 else (1 if i == j else 0)) for j in range(8)]
               for i in range(8)]
    assert is_orthogonal(Matrix(reflect))
    assert not is_special_orthogonal(Matrix(reflect))
    assert not is_special_orthogonal(Matrix.identity(8).scale(2))
    # (1 + sqrt 3)/2 has rational part of its square 1 but is not a unit
    half_unit = QuadExt(Rational(1, 2), Rational(1, 2))
    assert not is_orthogonal(Matrix.identity(8).scale(half_unit))


def test_left_translation_of_unit_is_rotation():
    rng = random.Random(4)
    for _ in range(5):
        s = random_unit_octonion(rng, EXACT)
        assert is_special_orthogonal(left_translation(s))


def test_so_closed_under_product_and_transpose():
    rng = random.Random(5)
    for backend in (EXACT, FloatBackend(1e-9)):
        a = random_rotation(rng, backend)
        b = random_rotation(rng, backend)
        assert is_special_orthogonal(a)
        assert is_special_orthogonal(a * b)
        assert is_special_orthogonal(a.transpose())


def test_trace_inner_product():
    i16 = Matrix.identity(16)
    assert trace_inner_product(i16, i16) == 1
    assert trace_inner_product(Matrix.identity(8), Matrix.identity(8)) == 1
    rng = random.Random(6)
    a = random_rotation(rng, EXACT)
    b = random_rotation(rng, EXACT)
    # symmetry and bilinearity spot checks
    assert trace_inner_product(a, b) == trace_inner_product(b, a)
    assert trace_inner_product(a.scale(2), b) == 2 * trace_inner_product(a, b)


def _exact(kind, a, b):
    # the value a + b sqrt 3 as a scalar of type `kind`, where that type holds it
    if b or kind == "quadext":
        return QuadExt(a, b)
    return int(a) if kind == "int" and a.denominator == 1 else a


# (p, q, r, kinds): the value (p + r sqrt 3)/q and two scalar types to write it in
_KINDS = st.sampled_from(["int", "fraction", "quadext"])
_ENTRY = st.tuples(st.integers(-9, 9), st.integers(1, 12), st.sampled_from([0, 0, 1, -2]),
                   st.tuples(_KINDS, _KINDS))


def _twice(entries):
    # the entries' values, once in each of their two scalar types
    return [[_exact(kinds[k], Rational(p, q), Rational(r, q)) for p, q, r, kinds in entries]
            for k in (0, 1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(_ENTRY, min_size=8, max_size=8), st.lists(_ENTRY, min_size=1, max_size=16))
def test_exact_values_are_built_on_their_reduced_forms(octo, entries):
    # Octonion(coeffs) and Matrix(rows) of exact scalars hold their reduced
    # kernel form from construction, the form a product computes, and the
    # form depends on the values alone: ints, Fractions and QuadExt (with a
    # zero sqrt-3 part or not) of one value give one form.
    x, y = [Octonion(c) for c in _twice(octo)]
    assert x._fl is None and y._fl is None
    assert x._form == y._form == kernel.reduce(*x._form)
    assert (x * Octonion.one())._form == x._form
    n = math.isqrt(len(entries))
    m, m2 = [Matrix(kernel.rows_of(flat, n)) for flat in _twice(entries[:n * n])]
    assert m._fl is None and m2._fl is None and m.n == n
    d, a, b = m._form
    flat = (d, [v for r in a for v in r], b and [v for r in b for v in r])
    assert m._form == m2._form and flat == kernel.reduce(*flat)
    assert (m * Matrix.identity(n))._form == m._form


def test_plain_float_entries_fail_at_construction():
    # a float value is an ApproxReal at its tolerance; a bare Python float
    # has no exact form, so the constructors reject it at once
    with pytest.raises(AttributeError, match="denominator"):
        Octonion((0.5,) + (0,) * 7)
    with pytest.raises(AttributeError, match="denominator"):
        Matrix([[0.5, 0], [0, 1]])
    assert Matrix([[ApproxReal(0.5, 1e-9), 0], [0, 1]])._fl == (1e-9, ((0.5, 0.0), (0.0, 1.0)))


def test_float_matrix_ops_fast_path():
    fb = FloatBackend(1e-9)
    rng = random.Random(7)
    a = random_rotation(rng, fb)
    b = random_rotation(rng, fb)
    ab = a * b
    assert all(isinstance(x, ApproxReal) for row in ab.rows for x in row)
    assert ab == Matrix([[ApproxReal(sum(float(a.rows[i][k]) * float(b.rows[k][j])
                                         for k in range(8)), 1e-9) for j in range(8)]
                         for i in range(8)])
    v = Octonion(tuple(ApproxReal(c, 1e-9) for c in Octonion.basis(3).coeffs))
    av = transform(a, v).coeffs
    assert all(isinstance(x, ApproxReal) for x in av)


def test_random_rotation():
    # seeds 0-19 pinned: exact output by its literals, float output by its bits
    h = hashlib.sha256()
    for seed in range(20):
        ex = random_rotation(random.Random(seed), EXACT)
        fl = random_rotation(random.Random(seed), FloatBackend(1e-9))
        h.update(json.dumps([[format_scalar(e) for e in r] for r in ex.rows]).encode())
        h.update(repr(fl._fl).encode())
    assert h.hexdigest() == \
        "3e60d24df074d685b9fb26003a4d010ecd1da78c29c93cc66bab07b460509d75"
    assert is_special_orthogonal(random_rotation(random.Random(0), FloatBackend(1e-9)))
    m = random_rotation(random.Random(1), EXACT)  # exact output is on the reduced form
    assert is_special_orthogonal(m) and m == Matrix(m.rows)
    # every draw has 1 + t^2 <= 5, within the tolerance of zero
    with pytest.raises(NotOrthogonal, match=r"^1 \+ t\^2 indistinguishable from zero$"):
        random_rotation(random.Random(0), FloatBackend(5.0))


def test_negation_blocks_and_join_on_forms():
    rng = random.Random(10)
    fb = FloatBackend(1e-9)
    a = random_rotation(rng, EXACT)
    b = left_translation(cube_root_of_unity(random_imaginary_unit(rng, EXACT)))
    half = Matrix.identity(8).scale(Rational(1, 2))
    z = Matrix(((0,) * 8,) * 8)
    f = random_rotation(rng, fb)
    for m in (a, b, f):
        assert -m == Matrix([[-v for v in r] for r in m.rows])
        assert (-m)._fl == Matrix([[-v for v in r] for r in m.rows])._fl
    # exact rows read as floats give float() of each scalar
    assert b._floats()[1] == tuple(tuple(map(float, r)) for r in b.rows)
    # an exact join over the lcm of the denominators is reduced, and so
    # are its blocks, whose entries can share a factor with d
    m = join(a, b, half, z)
    assert m == Matrix([x + y for x, y in zip(a.rows, b.rows)] +
                       [x + y for x, y in zip(half.rows, z.rows)])
    assert m.blocks() == (a, b, half, z)
    assert join(*m.blocks()) == m
    # a float block makes a float join; bits agree up to the sign of a zero
    mf = join(f, z, a, -f)
    assert mf._fl[0] == fb.eps
    assert mf._fl == Matrix([x + y for x, y in zip(f.rows, z.rows)] +
                            [x + y for x, y in zip(a.rows, (-f).rows)])._fl
    assert [x._fl for x in mf.blocks()] == [f._fl, (fb.eps, z._floats()[1]),
                                           (fb.eps, a._floats()[1]), (-f)._fl]
    with pytest.raises(DimensionMismatch):
        Matrix.identity(3).blocks()
    with pytest.raises(DimensionMismatch):
        join(a, b, half, Matrix.identity(4))


def test_float_trace_form_bits():
    # the nonzero products of ApproxReal entries added in row-major order,
    # times 1/n, at the larger tolerance of the two float forms
    rng = random.Random(11)
    a = random_rotation(rng, FloatBackend(1e-9))
    b = random_rotation(rng, FloatBackend(1e-6))
    for x, y in ((a, b), (a, random_rotation(rng, EXACT))):
        total = 0
        for rx, ry in zip(x.rows, y.rows):
            for u, v in zip(rx, ry):
                if u and v:
                    total = total + u * v
        want = total * Rational(1, 8)
        got = trace_inner_product(x, y)
        eps = max(x._floats()[0], y._floats()[0])
        assert (repr(got.value), got.eps) == (repr(want.value), eps)
    # no nonzero product: +0.0 at the larger tolerance
    zero = trace_inner_product(Matrix.identity(8).scale(ApproxReal(0.0, 1e-9)), a)
    assert (type(zero), repr(zero.value), zero.eps) == (ApproxReal, "0.0", 1e-9)


def _finite_float(rng, big):
    """A finite float: a signed zero, a subnormal, one in [-2, 2], or, with
    probability big, one of magnitude 1e150 to 1e308."""
    r = rng.random()
    if r < 0.3:
        return rng.choice((0.0, -0.0))
    if r < 0.45:
        return rng.choice((5e-324, -5e-324, 1e-310, -2.5e-308))
    if r < 1 - big:
        return rng.uniform(-2, 2)
    return rng.choice((-1, 1)) * 10.0 ** rng.uniform(150, 308)


def _float_entries(rng, n):
    """Two lists of n * n finite floats.  One regime in five pairs signed
    zeros, all -0.0 half the time, with positive floats, so that every
    product is a zero; one pairs +-1 and +-0 with the least subnormals,
    whose sums cancel to zero often; the others mix zeros, subnormals,
    floats in [-2, 2] and some huge values."""
    regime = rng.choice(("zeros", "signs", 0, 0.002, 0.02))
    if regime == "zeros":
        neg = rng.choice((0.5, 1.0))
        return ([-0.0 if rng.random() < neg else 0.0 for _ in range(n * n)],
                [rng.uniform(0.5, 2) for _ in range(n * n)])
    if regime == "signs":
        signs = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324)
        return [[rng.choice(signs) for _ in range(n * n)] for _ in range(2)]
    return [[_finite_float(rng, regime) for _ in range(n * n)] for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([8, 16]), st.integers(0, 2**32))
def test_float_trace_form_adds_zero_products_as_nothing(n, seed):
    # _dots adds every product, the fold it replaced only those of two
    # nonzero factors: a zero product is +-0.0, and the running sum starts
    # at +0.0 and is never -0.0, so the bits are the same
    fa, fb = _float_entries(random.Random(seed), n)
    a, b = [Matrix._of_floats(1e-9, tuple(kernel.rows_of(tuple(f), n))) for f in (fa, fb)]
    fold = 0.0
    for x, y in zip(fa, fb):
        if x and y:
            fold += x * y
    assert repr(trace_inner_product(a, b).value) == repr(fold * (1 / n))


def test_straight_line_matmul_matches_sum():
    # length-8 vectors take the straight-line expression, other lengths a
    # sum; both give the exact integer dot products, signs and entries
    # above 2^64 included
    rng = random.Random(31)

    def draw(n):
        return tuple(rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 40, 70, 200)))
                     for _ in range(n))

    for n in (8, 8, 8, 3, 16):
        rows = [draw(n) for _ in range(n)]
        cols = [draw(n) for _ in range(rng.choice((1, n)))]
        assert kernel.matmul(rows, cols) == [sum(map(operator.mul, r, c))
                                             for r in rows for c in cols]


def test_horner_pack_matches_the_shifted_sum():
    rng = random.Random(31)
    for _ in range(50):
        width = rng.randrange(1, 300)
        values = [rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(1, 2 * width))
                  for _ in range(8)]
        assert kernel.pack(values, width) == sum(v << width * t for t, v in enumerate(values))

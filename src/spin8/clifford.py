"""16x16 block model for octonion vectors and rotation pairs.

An octonion embeds as the block-antidiagonal matrix

    x  ->  [[ 0,       -L(conj x) ],
            [ L(x),     0         ]]

which squares to -|x|^2 times the identity.  A pair (A, B) of rotations
belongs to the triality group exactly when conjugation by diag(A, B) maps
every embedded vector to an embedded vector; the vector it maps e_1 to
recovers the third rotation of the triple.
"""

from __future__ import annotations

from .linalg import DimensionMismatch, Matrix, NotOrthogonal, is_special_orthogonal
from .octonion import Octonion, left_translation

EVEN = "even"
ODD = "odd"
MIXED = "mixed"

_Z8 = Matrix(((0,) * 8,) * 8)


class NotVectorShaped(ValueError):
    """Matrix is not the embedding of any octonion."""


def _split_blocks(m: Matrix):
    if m.n != 16:
        raise DimensionMismatch("expected a 16x16 matrix")
    r = m.rows
    tl = Matrix(tuple(row[:8] for row in r[:8]))
    tr = Matrix(tuple(row[8:] for row in r[:8]))
    bl = Matrix(tuple(row[:8] for row in r[8:]))
    br = Matrix(tuple(row[8:] for row in r[8:]))
    return tl, tr, bl, br


def _join_blocks(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    rows = [tl.rows[i] + tr.rows[i] for i in range(8)]
    rows += [bl.rows[i] + br.rows[i] for i in range(8)]
    return Matrix(rows)


def classify_parity(m: Matrix) -> str:
    """even = block diagonal, odd = block antidiagonal, else mixed."""
    tl, tr, bl, br = _split_blocks(m)
    off_zero = tr == _Z8 and bl == _Z8
    diag_zero = tl == _Z8 and br == _Z8
    if off_zero:
        return EVEN
    if diag_zero:
        return ODD
    return MIXED


class CliffordElement:
    """A 16x16 matrix tagged with its even/odd parity."""

    __slots__ = ("matrix", "parity")

    def __init__(self, matrix: Matrix):
        if matrix.n != 16:
            raise DimensionMismatch("expected a 16x16 matrix")
        self.matrix = matrix
        self.parity = classify_parity(matrix)

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return CliffordElement(self.matrix * other.matrix)

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"<CliffordElement {self.parity}>"


def clifford_embed(x: Octonion) -> CliffordElement:
    """Embed an octonion as an odd block matrix (a linear isometry for the
    normalized trace form)."""
    return CliffordElement(
        _join_blocks(_Z8, -left_translation(x.conj()), left_translation(x), _Z8)
    )


def ad_conjugate(a: Matrix, b: Matrix, x: Octonion) -> Matrix:
    """diag(a, b) * embed(x) * diag(a^t, b^t), computed blockwise."""
    for name, m in (("a", a), ("b", b)):
        if not is_special_orthogonal(m):
            raise NotOrthogonal(f"{name} must be special orthogonal")
    tr = -(a * left_translation(x.conj()) * b.transpose())
    bl = b * left_translation(x) * a.transpose()
    return _join_blocks(_Z8, tr, bl, _Z8)


def recover_vector(m) -> Octonion:
    """Read the octonion w with embed(w) == m, verifying the full block shape.

    Partial matches (right parity but blocks that are not translations, or
    translations of two different vectors) are rejected: anything less would
    silently accept rotation pairs outside the triality group.
    """
    if isinstance(m, CliffordElement):
        m = m.matrix
    tl, tr, bl, br = _split_blocks(m)
    if not (tl == _Z8 and br == _Z8):
        raise NotVectorShaped("matrix has nonzero diagonal blocks")
    w = Octonion(bl.column(0))
    if bl != left_translation(w):
        raise NotVectorShaped("lower-left block is not a left translation")
    if tr != -left_translation(w.conj()):
        raise NotVectorShaped("upper-right block does not match the conjugate")
    return w

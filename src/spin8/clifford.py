"""16x16 block model for octonion vectors and rotation pairs.

An octonion embeds as the block-antidiagonal matrix

    x  ->  [[ 0,       -L(conj x) ],
            [ L(x),     0         ]]

which squares to -|x|^2 times the identity.  A pair (A, B) of rotations
belongs to the triality group exactly when conjugation by diag(A, B) maps
every embedded vector to an embedded vector; the vector it maps e_1 to
recovers the third rotation of the triple.
Elements are plain 16x16 matrices, read and built with ``Matrix.blocks``
and ``linalg.join``.
"""

from __future__ import annotations

from .linalg import DimensionMismatch, Matrix, NotOrthogonal, is_special_orthogonal, join
from .octonion import Octonion, left_translation, transform
from .scalars import CheckFailed

EVEN = "even"
ODD = "odd"
MIXED = "mixed"

_Z8 = Matrix(((0,) * 8,) * 8)


class NotVectorShaped(CheckFailed):
    """Matrix is not the embedding of any octonion."""


def classify_parity(m: Matrix) -> str:
    """even = block diagonal, odd = block antidiagonal, else mixed."""
    if m.n != 16:
        raise DimensionMismatch("expected a 16x16 matrix")
    tl, tr, bl, br = m.blocks()
    if tr == _Z8 and bl == _Z8:
        return EVEN
    if tl == _Z8 and br == _Z8:
        return ODD
    return MIXED


def clifford_embed(x: Octonion) -> Matrix:
    """Embed an octonion as an odd block matrix (a linear isometry for the
    normalized trace form)."""
    return join(_Z8, -left_translation(x.conj()), left_translation(x), _Z8)


def ad_conjugate(a: Matrix, b: Matrix, x: Octonion) -> Matrix:
    """diag(a, b) * embed(x) * diag(a^t, b^t), computed blockwise."""
    for name, m in (("a", a), ("b", b)):
        if not is_special_orthogonal(m):
            raise NotOrthogonal(f"{name} must be special orthogonal")
    tr = -(a * left_translation(x.conj()) * b.transpose())
    bl = b * left_translation(x) * a.transpose()
    return join(_Z8, tr, bl, _Z8)


def recover_vector(m: Matrix) -> Octonion:
    """Read the octonion w with embed(w) == m, verifying the full block shape.

    Partial matches (right parity but blocks that are not translations, or
    translations of two different vectors) are rejected: anything less would
    silently accept rotation pairs outside the triality group.
    """
    tl, tr, bl, br = m.blocks()
    if not (tl == _Z8 and br == _Z8):  # never equal for a size other than 16
        raise NotVectorShaped("matrix has nonzero diagonal blocks")
    w = transform(bl, Octonion.one())  # column 0 of L(w) is w
    if bl != left_translation(w):
        raise NotVectorShaped("lower-left block is not a left translation")
    if tr != -left_translation(w.conj()):
        raise NotVectorShaped("upper-right block does not match the conjugate")
    return w

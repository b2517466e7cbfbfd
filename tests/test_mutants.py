"""Model mutants that the battery itself must kill.

Each test applies one fault to the model in process, runs
``verify-all --trials 3`` on the exact backend, or on both, with every job in
this process, and asserts exit 1 with the named rows failing on each backend
run.  No mutant changes the code of ``checks``; two rebind a name it
imports, so only its own calls see them.  The short-scan mutant must also
fail the ``antipodal`` command, which reads the same verdict, with its scan
split into row ranges run by this process and a forked worker.
"""

import json

import pytest

from spin8 import checks, cli, clifford, kernel, octonion, symspace, triality
from spin8.cli import main
from spin8.symspace import SpherePoint
from spin8.triality import TrialityTriple

# every exact row but octonion-axioms and fixed-sets, which compute on
# octonion products, not on L(x) or matrix products, and so pass under both
# matrix mutants
_TRIPLE_ROWS = {
    "left-translation-sandwich", "clifford-embedding", "triality-closure",
    "tau-order-three", "sigma-involution", "s3-relations", "g2-fixed-group",
    "isotropy-at-base", "sphere-descent", "kai-property", "antipodal-triple",
}


def _matmul_off_by_one(monkeypatch):
    # every exact product gains 1 in its first entry; A and B of a product
    # triple arrive with a carried SO(8) verdict, so no Gram test sees it,
    # and the 64-pair identity must
    real = kernel.matmul

    def matmul(rows, cols):
        out = real(rows, cols)
        out[0] += 1
        return out

    monkeypatch.setattr(kernel, "matmul", matmul)


def _left_rows_swapped(monkeypatch):
    # rows 3 and 4 of every L(x) swapped: still a signed permutation of the
    # coefficients, so orthogonal, and only the 64-pair identity can see it
    layout = list(octonion._LEFT)
    layout[2], layout[3] = layout[3], layout[2]
    monkeypatch.setattr(octonion, "_LEFT", layout)


def _sphere_point_takes_any_pair(monkeypatch):
    # M8: SpherePoint drops its two unit checks
    monkeypatch.setattr(symspace, "ensure_unit", lambda x: x)


def _identity_always_holds(monkeypatch):
    # the triple constructor stops testing B(xy) = (Cx)(Ay): the integer
    # test of an exact triple holds, and a float triple's sweep finds no
    # deviation.  Every triple the battery builds is genuine but for the
    # rotation pairs of the clifford control, which only the identity refuses
    monkeypatch.setattr(triality, "_triality_holds", lambda a, b, c: True)
    monkeypatch.setattr(triality, "_triality_defect", lambda *cols: ((0, 0), 0.0))


def _triple_takes_any_8x8(monkeypatch):
    # the SO(8) precondition of the triple constructor passes every matrix;
    # closure's (2A, 2B, C) control must see it
    monkeypatch.setattr(triality, "is_special_orthogonal", lambda m: True)


def _triple_eq(first_or):
    # TrialityTriple.__eq__ with one of its two `and`s as `or`; closure's
    # (A, -B, -C) control sees the first, its (-A, -B, C) control the second
    def eq(self, other):
        if not isinstance(other, TrialityTriple):
            return NotImplemented
        if first_or:
            return self.A == other.A or self.B == other.B and self.C == other.C
        return self.A == other.A and self.B == other.B or self.C == other.C

    return lambda monkeypatch: monkeypatch.setattr(TrialityTriple, "__eq__", eq)


# The mutants below replace the body of a function that checks imports by
# name, by swapping its __code__, so checks keeps calling the object it
# holds.  A replacement body names only globals of the function's own
# module, which it keeps.

def _parity_even_by_or(m):
    # classify_parity with `or` in its even test
    if m.n != 16:
        raise DimensionMismatch("expected a 16x16 matrix")
    tl, tr, bl, br = m.blocks()
    if tr == _Z8 or bl == _Z8:
        return EVEN
    if tl == _Z8 and br == _Z8:
        return ODD
    return MIXED


def _parity_odd_by_or(m):
    # classify_parity with `or` in its odd test
    if m.n != 16:
        raise DimensionMismatch("expected a 16x16 matrix")
    tl, tr, bl, br = m.blocks()
    if tr == _Z8 and bl == _Z8:
        return EVEN
    if tl == _Z8 or br == _Z8:
        return ODD
    return MIXED


def _recover_diagonal_by_or(m):
    # recover_vector with `or` in its diagonal-block test
    tl, tr, bl, br = m.blocks()
    if not (tl == _Z8 or br == _Z8):
        raise NotVectorShaped("matrix has nonzero diagonal blocks")
    w = transform(bl, Octonion.one())
    if bl != left_translation(w):
        raise NotVectorShaped("lower-left block is not a left translation")
    if tr != -left_translation(w.conj()):
        raise NotVectorShaped("upper-right block does not match the conjugate")
    return w


def _sphere_point_eq_by_or(self, other):
    # SpherePoint.__eq__ with `or`
    if not isinstance(other, SpherePoint):
        return NotImplemented
    return self.x == other.x or self.y == other.y


def _tau_fixed_by_or(pt):
    # tau_fixed_characterization with `or`
    return pt.y == pt.x.conj() or pt.y == pt.x * pt.x


def _is_g2_by_or(g):
    # is_g2 with its first `and` as `or`
    return g.A == g.B or g.A == g.C and _triality_holds(g.A, g.A, g.A)


def _phi_x_ignores_witness(witness, w):
    # M6: the point symmetry of every point is the one at o
    return SemidirectElement(TrialityTriple.identity(), w)


def _body(fn, replacement):
    return lambda monkeypatch: monkeypatch.setattr(fn, "__code__", replacement.__code__)


def _outer_is_identity(name):
    # the tau or sigma that checks calls returns its triple; the order and
    # homomorphism tests hold for the identity, and only the row's control
    # on spin_from_unit(e2) sees it
    return lambda monkeypatch: monkeypatch.setattr(checks, name, lambda g: g)


def _scan_draws_no_candidates(monkeypatch):
    # M2: the maximality scan keeps its three closed-form rows, which accept
    # o, p and q, and drops every random candidate, in whichever row range
    # of the scan they fall
    def scan(v, trials, rng, start=0, stop=None, real=symspace.maximality_scan):
        return real(v, trials, rng, start, stop)[:max(0, 3 - start)]

    monkeypatch.setattr(symspace, "maximality_scan", scan)
    monkeypatch.setattr(cli, "maximality_scan", scan)


@pytest.mark.parametrize("mutate, rows, backends", [
    (_matmul_off_by_one, _TRIPLE_ROWS, ["exact"]),
    (_left_rows_swapped, _TRIPLE_ROWS, ["exact"]),
    (_sphere_point_takes_any_pair, {"fixed-sets"}, ["exact"]),
    (_identity_always_holds, {"clifford-embedding"}, ["exact", "float"]),
    (_scan_draws_no_candidates, {"antipodal-triple"}, ["exact", "float"]),
    (_triple_takes_any_8x8, {"triality-closure"}, ["exact"]),
    (_triple_eq(True), {"triality-closure"}, ["exact"]),
    (_triple_eq(False), {"triality-closure"}, ["exact"]),
    (_body(clifford.classify_parity, _parity_even_by_or), {"clifford-embedding"},
     ["exact", "float"]),
    (_body(clifford.classify_parity, _parity_odd_by_or), {"clifford-embedding"},
     ["exact", "float"]),
    (_body(clifford.recover_vector, _recover_diagonal_by_or), {"clifford-embedding"},
     ["exact", "float"]),
    (lambda monkeypatch: monkeypatch.setattr(SpherePoint, "__eq__", _sphere_point_eq_by_or),
     {"fixed-sets"}, ["exact", "float"]),
    (_body(symspace.tau_fixed_characterization, _tau_fixed_by_or), {"fixed-sets"},
     ["exact", "float"]),
    (_body(triality.is_g2, _is_g2_by_or), {"g2-fixed-group"}, ["exact", "float"]),
    (_body(symspace.phi_x, _phi_x_ignores_witness), {"kai-property"}, ["exact", "float"]),
    (_outer_is_identity("apply_tau"), {"tau-order-three"}, ["exact", "float"]),
    (_outer_is_identity("apply_sigma"), {"sigma-involution"}, ["exact", "float"]),
], ids=["matmul-off-by-one", "left-rows-swapped", "sphere-point-takes-any-pair",
        "identity-always-holds", "scan-draws-no-candidates", "triple-takes-any-8x8",
        "triple-eq-a-or-bc", "triple-eq-ab-or-c", "parity-even-by-or", "parity-odd-by-or",
        "recover-diagonal-by-or", "sphere-point-eq-by-or", "tau-fixed-by-or", "is-g2-by-or",
        "phi-x-ignores-witness", "tau-is-identity", "sigma-is-identity"])
def test_battery_kills_mutant(tmp_path, capsys, monkeypatch, mutate, rows, backends):
    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # the mutant is in this process
    # an identity triple built under the mutant must not outlive the test
    monkeypatch.setattr(TrialityTriple, "_cached_identity", None)
    mutate(monkeypatch)
    out = tmp_path / "rep.json"
    backend = "both" if len(backends) > 1 else backends[0]
    code = main(["verify-all", "--backend", backend, "--trials", "3", "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    failing = {(r["name"], r["backend"]) for r in json.loads(out.read_text())["checks"]
               if r["status"] != "pass"}
    assert {(name, b) for name in rows for b in backends} <= failing


def test_antipodal_command_kills_a_short_scan(capsys, monkeypatch):
    # the scan split into two row ranges per backend, the later one run by a
    # forked worker, which inherits the mutant
    monkeypatch.setattr(checks, "_cpus", lambda: 2)
    _scan_draws_no_candidates(monkeypatch)
    code = main(["antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--trials", "20"])
    err = capsys.readouterr().err
    assert code == 1
    assert [line.split(" [")[0] for line in err.splitlines()] == ["FAIL antipodal"] * 2

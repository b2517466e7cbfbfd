"""Model mutants that the battery itself must kill.

Each test applies one fault to the model in process, runs
``verify-all --trials 3`` on the exact backend, or on both, with every job in
this process, and asserts exit 1 with the named rows failing on each backend
run.  No mutant touches ``checks``.  The short-scan mutant must also fail the
``antipodal`` command, which reads the same verdict.
"""

import json

import pytest

from spin8 import checks, kernel, octonion, symspace, triality
from spin8.cli import main
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
    # the SO(8) precondition of the triple constructor weakened to
    # `m.n != 8 and not is_special_orthogonal(m)`, which passes every 8x8
    # matrix; closure's (2A, 2B, C) control must see it
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


def _scan_draws_no_candidates(monkeypatch):
    # M2: the maximality scan keeps its three closed-form rows, which accept
    # o, p and q, and drops every random candidate
    real = symspace.maximality_scan
    monkeypatch.setattr(symspace, "maximality_scan", lambda *args: real(*args)[:3])


@pytest.mark.parametrize("mutate, rows, backends", [
    (_matmul_off_by_one, _TRIPLE_ROWS, ["exact"]),
    (_left_rows_swapped, _TRIPLE_ROWS, ["exact"]),
    (_sphere_point_takes_any_pair, {"fixed-sets"}, ["exact"]),
    (_identity_always_holds, {"clifford-embedding"}, ["exact", "float"]),
    (_scan_draws_no_candidates, {"antipodal-triple"}, ["exact", "float"]),
    (_triple_takes_any_8x8, {"triality-closure"}, ["exact"]),
    (_triple_eq(True), {"triality-closure"}, ["exact"]),
    (_triple_eq(False), {"triality-closure"}, ["exact"]),
], ids=["matmul-off-by-one", "left-rows-swapped", "sphere-point-takes-any-pair",
        "identity-always-holds", "scan-draws-no-candidates", "triple-takes-any-8x8",
        "triple-eq-a-or-bc", "triple-eq-ab-or-c"])
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
    monkeypatch.setattr(checks, "_cpus", lambda: 1)
    _scan_draws_no_candidates(monkeypatch)
    code = main(["antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--trials", "20"])
    err = capsys.readouterr().err
    assert code == 1
    assert [line.split(" [")[0] for line in err.splitlines()] == ["FAIL antipodal"] * 2

"""Output check for the reports the workloads produce.

Independent of the package: it re-derives from checks.py's documented
formulas what every row must say (sample counts, derived seeds) and from the
geometry what the antipodal report must contain (the cube root s of the input
v, the three points, the closed-form scan candidates).  A report also passes
only if, on the default seed, it is byte-identical to the golden report
whose digests are stored in golden/.

Each checker returns (rows_attempted, rows_failed, problems).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import zlib
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CHECK_ORDER = [
    "octonion-axioms",
    "left-translation-sandwich",
    "clifford-embedding",
    "triality-closure",
    "tau-order-three",
    "sigma-involution",
    "s3-relations",
    "g2-fixed-group",
    "isotropy-at-base",
    "sphere-descent",
    "fixed-sets",
    "kai-property",
    "antipodal-triple",
]
ROW_KEYS = {"name", "claim", "backend", "status", "max_residual", "trials", "seed"}


def expected_samples(name: str, exact: bool, trials: int) -> int:
    """Per-check sample counts as checks.py derives them from --trials."""
    half = max(1, trials // 2)
    return {
        "octonion-axioms": 2 * trials if exact else 10 * trials,
        "left-translation-sandwich": half,
        "clifford-embedding": half,
        "triality-closure": trials,
        "tau-order-three": trials,
        "sigma-involution": trials,
        "s3-relations": trials,
        "g2-fixed-group": half,
        "isotropy-at-base": half,
        "sphere-descent": trials,
        "fixed-sets": half,
        "kai-property": trials,
        "antipodal-triple": 1 + max(1, trials // 5),
    }[name]


def derived_seed(base: int, name: str, backend: str) -> int:
    return (base * 1_000_003 + zlib.crc32(f"{name}:{backend}".encode())) % (2**31)


def _config_problems(cfg, command, seed, trials, eps, backend) -> list[str]:
    want = {"seed": seed, "trials": trials, "eps": eps, "backend": backend, "command": command}
    return [] if cfg == want else [f"config {cfg!r} != {want!r}"]


# --- verify-all ------------------------------------------------------------

def check_battery(report: dict, *, seed: int, trials: int, backend: str, eps: float):
    problems = _config_problems(report.get("config"), "verify-all", seed, trials, eps, backend)
    rows = report.get("checks") or []
    names = [r.get("name") for r in rows]
    if report.get("schema") != 1 or names != CHECK_ORDER:
        problems.append(f"schema or check list wrong: {names}")
    failed = 0
    for row in rows:
        bad = []
        name = row.get("name")
        if set(row) != ROW_KEYS or name not in CHECK_ORDER:
            bad.append("keys")
        else:
            if row["backend"] != backend:
                bad.append("backend")
            if row["status"] != "pass":
                bad.append("status")
            res = row["max_residual"]
            if not isinstance(res, float) or not (
                res == 0.0 if backend == "exact" else 0.0 <= res <= eps
            ):
                bad.append(f"residual {res!r}")
            if row["trials"] != expected_samples(name, backend == "exact", trials):
                bad.append(f"trials {row['trials']}")
            if row["seed"] != derived_seed(seed, name, backend):
                bad.append("seed")
            if not isinstance(row["claim"], str) or not row["claim"]:
                bad.append("claim")
        if bad:
            failed += 1
            problems.append(f"{name}: {', '.join(bad)}")
    attempted = max(len(rows), len(CHECK_ORDER))
    if problems and not failed:
        failed = 1
    return attempted, failed, problems


def battery_samples(report: dict) -> int:
    return sum(r["trials"] for r in report["checks"])


# --- antipodal ----------------------------------------------------------------

ONE = "[1, 0, 0, 0, 0, 0, 0, 0]"


def _literal(coeffs) -> str:
    return "[" + ", ".join(coeffs) + "]"


def _r3(b: Fraction) -> str:
    if not b:
        return "0"
    return f"{b}*r3" if b > 0 else f"-{-b}*r3"


def _floats(literal) -> list[float]:
    return [float(x) for x in literal.strip("[]").split(",")]


def _close(a: list[float], b: list[float], eps: float) -> bool:
    return len(a) == len(b) == 8 and all(abs(x - y) <= eps for x, y in zip(a, b))


def expected_points(v: list[Fraction], exact: bool, eps: float):
    """o = (1, 1), p = (s, conj s), q = (conj s, s) for s = (-1 + sqrt(3) v)/2,
    with a predicate matching a report's {"x", "y"} point against one of them."""
    if exact:
        s = _literal(["-1/2"] + [_r3(c / 2) for c in v[1:]])
        sb = _literal(["-1/2"] + [_r3(-c / 2) for c in v[1:]])
        one = ONE

        def same(got, want):
            return got == want
    else:
        h = math.sqrt(3.0) / 2
        s = [-0.5] + [h * float(c) for c in v[1:]]
        sb = [-0.5] + [-h * float(c) for c in v[1:]]
        one = _floats(ONE)

        def same(got, want):
            try:
                return all(_close(_floats(got[k]), want[k], eps) for k in ("x", "y"))
            except (AttributeError, KeyError, TypeError, ValueError):
                return False
    return ({"x": one, "y": one}, {"x": s, "y": sb}, {"x": sb, "y": s}), same


def _v_matches(got, v: list[Fraction], exact: bool, eps: float) -> bool:
    if exact:
        return got == _literal(str(c) for c in v)
    try:
        return _close(_floats(got), [float(c) for c in v], eps)
    except (AttributeError, ValueError):
        return False


def check_antipodal(report: dict, *, seed: int, trials: int, eps: float, v: list[Fraction]):
    problems = _config_problems(report.get("config"), "antipodal", seed, trials, eps, "both")
    sections = report.get("antipodal") or []
    if report.get("schema") != 1 or [s.get("backend") for s in sections] != ["exact", "float"]:
        problems.append("schema or backend sections wrong")
    attempted = failed = 0
    for sec in sections:
        exact = sec.get("backend") == "exact"
        three, same = expected_points(v, exact, eps)
        attempted += 1
        bad = []
        if not _v_matches(sec.get("v"), v, exact, eps):
            bad.append("v")
        points = sec.get("points") or []
        if len(points) != 3 or not all(same(a, b) for a, b in zip(points, three)):
            bad.append("points")
        if sec.get("sigma_swaps_pair") is not True or sec.get("polar_intersections") is not True:
            bad.append("certificates")
        scan = sec.get("maximality") or {}
        cands = scan.get("candidates") or []
        n_acc = sum(1 for c in cands if c.get("accepted") is True)
        if (scan.get("trials") != trials or len(cands) != trials + 3
                or scan.get("accepted") != n_acc or scan.get("extra_acceptances") != 0):
            bad.append("scan summary")
        if bad:
            failed += 1
            problems.append(f"{sec.get('backend')}: {', '.join(bad)}")
        o, p, q = three
        for i, row in enumerate(cands):
            attempted += 1
            res = row.get("residual")
            accepted = row.get("accepted")
            ok = isinstance(res, float) and res >= 0.0 and accepted in (True, False)
            if i < 3:
                # the closed-form candidates t = 1, s, conj(s) give p, q, o
                ok = ok and accepted and same(row.get("candidate"), (p, q, o)[i])
            if accepted:
                ok = ok and (res == 0.0 if exact else res <= eps)
                ok = ok and any(same(row.get("candidate"), x) for x in three)
            elif not exact:
                ok = ok and res > eps
            if exact and i >= 1:
                # every t after the first is a nontrivial cube root of unity
                ok = ok and str(row.get("t", "")).startswith("[-1/2,")
            if not ok:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"{sec.get('backend')} candidate {i}: {row!r}"[:300])
    attempted = max(attempted, 2 * (trials + 4))
    if problems and not failed:
        failed = 1
    return attempted, failed, problems


def antipodal_samples(report: dict) -> int:
    return sum(len(s["maximality"]["candidates"]) for s in report["antipodal"])


# --- golden reports and the tamper self-test ---------------------------------

def row_digests(rows) -> list[str]:
    return [hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()[:8]
            for r in rows]


def golden_digest(data: bytes, rows) -> dict:
    """What is stored as a golden: the report's SHA-256 plus one digest per row."""
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "row_digests": row_digests(rows)}


def golden_failures(workload: str, data: bytes, rows) -> tuple[int, list[str]]:
    """0 if data equals the golden report byte for byte, else the rows that differ."""
    path = GOLDEN_DIR / f"{workload}.digest.json"
    if not path.exists():
        return 1, [f"no golden report for {workload} in {GOLDEN_DIR.name}/"]
    golden = json.loads(path.read_text())
    if hashlib.sha256(data).hexdigest() == golden["sha256"]:
        return 0, []
    got_rows = row_digests(rows(json.loads(data)))
    want_rows = golden["row_digests"]
    diff = sum(1 for a, b in zip(got_rows, want_rows) if a != b)
    diff += abs(len(got_rows) - len(want_rows))
    return max(1, diff), [f"{workload} report differs from its golden in {diff} rows"]


def tampered(report: dict, kind: str) -> list[dict]:
    """Copies of a passing report, each with one defect the check must catch."""
    out = []
    if kind == "battery":
        exact = report["config"]["backend"] == "exact"
        t = copy.deepcopy(report)
        t["checks"][0]["status"] = "fail"
        out.append(t)
        t = copy.deepcopy(report)
        t["checks"][-1]["max_residual"] = 1e-12 if exact else 10 * report["config"]["eps"]
        out.append(t)
        t = copy.deepcopy(report)
        t["checks"][3]["trials"] += 1
        out.append(t)
    else:
        t = copy.deepcopy(report)
        t["antipodal"][0]["maximality"]["candidates"][0]["residual"] = 1e-12
        out.append(t)
        t = copy.deepcopy(report)
        row = t["antipodal"][1]["maximality"]["candidates"][-1]
        row["accepted"] = not row["accepted"]
        out.append(t)
        t = copy.deepcopy(report)
        t["antipodal"][0]["points"][1]["x"] = t["antipodal"][0]["points"][2]["x"]
        out.append(t)
    return out

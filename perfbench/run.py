"""spin8 benchmark: closed-loop runs of the public CLI, with an output check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Every repetition starts a fresh interpreter (child.py), one at a time: one
client, one process, no worker threads.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.

Workloads.  Repetition i of a run uses the inputs of seed N * 1000 + i, so a
run measures several inputs of its kind and reports their median; the program
only sees the generated arguments.  A run makes at least MIN_REPS
repetitions, then more while --seconds allow.

  exact-battery   verify-all --backend exact --trials 6.  The exact backend is
                  303 of the 317 s of the default run, and most of it is
                  constructing verified triples over Fraction (rational words)
                  and Q(sqrt 3) (cube-root translations).  At --trials 6 the
                  per-check shares and the rational : Q(sqrt 3) split of that
                  work are near the default run's (README); at --trials 1 the
                  work that does not scale with --trials (36 s3-relations
                  compositions, two antipodal-triple certificates) is two
                  thirds of the command.  A repetition is ~20 s on a 2-core host.
  float-battery   verify-all --backend float at the default --trials 100: the
                  same check code over the raw-float fast paths.  A change to
                  the exact kernel should leave it unmoved.
  antipodal-scan  spin8 antipodal V --trials 3000 on both backends, V a
                  rational unit imaginary drawn from the seed (seed_v).
                  Mostly the maximality scan (Q(sqrt 3) octonion products, a
                  unit-norm check per SpherePoint) and a 4 MB report.

--trace 0 reports the end-to-end metrics (medians over the repetitions of a
run); --trace 1 makes one traced and one untraced repetition plus the layer
microbenchmarks and reports the per-layer metrics.  Spans are written to
.perfbench_out/.  Exit status is 2, with no result line, when the checkout
holds no spin8 source.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import check

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
SEED_STRIDE = 1000
EPS = 1e-9
CHILD_TIMEOUT_S = 170
MIN_REPS = 2
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_PER_REP = 3


# --- workloads ----------------------------------------------------------------

def seed_v(seed: int) -> list[Fraction]:
    """A rational unit imaginary octonion with two nonzero coordinates.

    A Pythagorean pair (a/c, b/c) from Euclid's formula, with seed-chosen
    signs, in two seed-chosen imaginary slots, like [0,3/5,4/5,0,0,0,0,0].
    A dense v would make the fixed Q(sqrt 3) triple verifications, not the
    scan, the bulk of the command.
    """
    rng = random.Random(f"antipodal-v:{seed}")
    m = rng.randint(2, 5)
    n = rng.randint(1, m - 1)
    c = m * m + n * n
    i, j = rng.sample(range(1, 8), 2)
    v = [Fraction(0)] * 8
    v[i] = Fraction(rng.choice((-1, 1)) * (m * m - n * n), c)
    v[j] = Fraction(rng.choice((-1, 1)) * 2 * m * n, c)
    return v


class Battery:
    kind = "battery"

    def __init__(self, backend: str, trials: int):
        self.backend = backend
        self.trials = trials

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["verify-all", "--backend", self.backend, "--trials", str(self.trials),
                "--seed", str(seed), "--out", str(out)]

    def check(self, report: dict, seed: int):
        return check.check_battery(report, seed=seed, trials=self.trials,
                                   backend=self.backend, eps=EPS)

    def samples(self, report: dict) -> int:
        return check.battery_samples(report)

    @staticmethod
    def rows(report: dict) -> list:
        return report.get("checks", [])


class Antipodal:
    kind = "antipodal"

    def __init__(self, trials: int):
        self.trials = trials

    def argv(self, seed: int, out: Path) -> list[str]:
        literal = "[" + ", ".join(str(c) for c in seed_v(seed)) + "]"
        return ["antipodal", literal, "--trials", str(self.trials),
                "--seed", str(seed), "--out", str(out)]

    def check(self, report: dict, seed: int):
        return check.check_antipodal(report, seed=seed, trials=self.trials, eps=EPS,
                                     v=seed_v(seed))

    def samples(self, report: dict) -> int:
        return check.antipodal_samples(report)

    @staticmethod
    def rows(report: dict) -> list:
        out = []
        for sec in report.get("antipodal", []):
            scan = sec.get("maximality", {})
            out.append({k: v for k, v in sec.items() if k != "maximality"})
            out.extend(scan.get("candidates", []))
        return out


WORKLOADS = {
    "exact-battery": Battery("exact", 6),
    "float-battery": Battery("float", 100),
    "antipodal-scan": Antipodal(3000),
}


# --- child processes ----------------------------------------------------------

def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_child(mode: str, args: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run child.py in a fresh interpreter and return its JSON line."""
    cmd = [sys.executable, "-s", str(BENCH_DIR / "child.py"), str(ROOT), mode, json.dumps(args)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample() -> float:
    """Host-scaled time for a fresh interpreter to import spin8 and build
    TABLE and TrialityTriple.identity()."""
    return run_child("setup", {})["scaled_s"]


class Tally:
    """Rows attempted/failed by the output check, and why."""

    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: tuple[dict, int] | None = None

    def report(self, code: int, path: Path, seed: int) -> tuple[bytes, dict | None]:
        """Check the report a repetition with inputs from `seed` wrote to path."""
        data = path.read_bytes() if path.exists() else b""
        try:
            report = json.loads(data)
        except ValueError:
            report = None
        if code != 0 or report is None:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"exit code {code}, report parsed: {report is not None}")
            return data, None
        attempted, failed, problems = self.workload.check(report, seed)
        if seed == DEFAULT_SEED:
            gfail, gproblems = check.golden_failures(self.name, data, self.workload.rows)
            failed = min(attempted, failed + gfail)
            problems += gproblems
        self.attempted += attempted
        self.failed += failed
        self.problems += problems[:10]
        if self.first is None:
            self.first = (report, seed)
        return data, report

    def self_test(self) -> bool:
        """The check must reject every tampered copy of a passing report."""
        if self.first is None:
            return False
        report, seed = self.first
        for bad in check.tampered(report, self.workload.kind):
            _, failed, _ = self.workload.check(bad, seed)
            if failed == 0:
                self.problems.append("self-test: a tampered report passed the check")
                return False
        return True


# --- the two kinds of run -----------------------------------------------------

def end_to_end(name: str, seed: int, seconds: float) -> dict:
    """Repeat the workload until the time is up; medians of host-scaled times.

    Times are scaled to a fixed host speed by reference.py; the raw ones go
    to stderr with the run's details.
    """
    wl = WORKLOADS[name]
    tally = Tally(name, seed)
    out = OUT_DIR / f"{name}-{seed}.json"
    deadline = perf_counter() + seconds
    setups = [setup_sample() for _ in range(SETUP_SAMPLES_FIRST)]
    walls, raw_walls, rss = [], [], []
    samples = 0
    while True:
        inputs = seed * SEED_STRIDE + len(walls)
        out.unlink(missing_ok=True)
        t0 = perf_counter()
        res = run_child("run", {"argv": wl.argv(inputs, out)})
        rep_s = perf_counter() - t0
        _, report = tally.report(res["code"], out, inputs)
        walls.append(res["scaled_s"])
        raw_walls.append(res["wall_s"])
        rss.append(res["peak_rss_mib"])
        if report is not None:
            samples = wl.samples(report)
        setups += [setup_sample() for _ in range(SETUP_SAMPLES_PER_REP)]
        if len(walls) >= MIN_REPS and perf_counter() + rep_s > deadline:
            break
    wall = statistics.median(walls)
    selftest = tally.self_test()
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "samples_per_s": (samples / wall, "1/s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
        "pass_frac": (1.0 - tally.failed / tally.attempted, "frac"),
    }
    detail = {"reps": len(walls), "raw_walls_s": raw_walls, "scaled_walls_s": walls,
              "setup_samples": len(setups)}
    return finish(tally, selftest, metrics, detail)


def per_layer(name: str, seed: int, seconds: float) -> dict:
    wl = WORKLOADS[name]
    tally = Tally(name, seed)
    out = OUT_DIR / f"{name}-{seed}.json"
    inputs = seed * SEED_STRIDE
    out.unlink(missing_ok=True)
    plain = run_child("run", {"argv": wl.argv(inputs, out)})
    plain_bytes, _ = tally.report(plain["code"], out, inputs)
    out.unlink(missing_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-{seed}.bin"
    traced = run_child("trace", {"argv": wl.argv(inputs, out), "spans": str(spans_path)})
    traced_bytes, _ = tally.report(traced["code"], out, inputs)
    if traced_bytes != plain_bytes:
        tally.failed += 1
        tally.problems.append("the traced run changed the report")
    micro = run_child("micro", {"seed": seed, "budget_s": max(2.0, seconds / 5)})["micro"]
    selftest = tally.self_test()

    sp = traced["spans"]
    counts = traced["counts"]

    def calls(span):
        return sp.get(span, {}).get("calls", 0)

    def self_s(span):
        return sp.get(span, {}).get("self_s", 0.0)

    m = {
        "scalars.rational_mul_us": (micro["scalars.rational_mul_us"], "us"),
        "scalars.quadext_mul_us": (micro["scalars.quadext_mul_us"], "us"),
        "scalars.approx_mul_us": (micro["scalars.approx_mul_us"], "us"),
        "scalars.max_den_bits": (traced["max_den_bits"], "bits"),
        "octonion.mul_coeffs.calls": (calls("octonion.mul_coeffs"), "count"),
        "octonion.mul_coeffs.self_s": (self_s("octonion.mul_coeffs"), "s"),
    }
    for k in ("exact", "quadext", "float"):
        m[f"octonion.mul_us.{k}"] = (micro[f"octonion.mul_us.{k}"], "us")
    for span in ("linalg.matmul", "linalg.so8"):
        m[f"{span}.calls"] = (calls(span), "count")
        m[f"{span}.self_s"] = (self_s(span), "s")
    for k in ("exact", "float"):
        m[f"linalg.matmul_us.{k}"] = (micro[f"linalg.matmul_us.{k}"], "us")
        m[f"linalg.so8_ms.{k}"] = (micro[f"linalg.so8_ms.{k}"], "ms")
    verify_total = 0.0
    verify_self = 0.0
    for k in ("rational", "quadext", "float"):
        s = sp.get(f"triality.verify.{k}", {})
        m[f"triality.verify.calls.{k}"] = (s.get("calls", 0), "count")
        m[f"triality.verify_ms.{k}.p50"] = (1e3 * s.get("p50_s", 0.0), "ms")
        m[f"triality.verify_ms.{k}.p90"] = (1e3 * s.get("p90_s", 0.0), "ms")
        m[f"triality.construct_ms.{k}"] = (micro[f"triality.construct_ms.{k}"], "ms")
        verify_total += s.get("total_s", 0.0)
        verify_self += s.get("self_s", 0.0)
    m["triality.verify.self_s"] = (verify_self, "s")
    m["triality.verify.wall_share"] = (verify_total / traced["wall_s"], "frac")
    memo_calls = counts.get("memo_calls", 0)
    m["triality.memo_hit_ratio"] = (counts.get("memo_hits", 0) / memo_calls if memo_calls else 0.0,
                                    "ratio")
    m["clifford.ad_conjugate.calls"] = (calls("clifford.ad_conjugate"), "count")
    m["clifford.ad_conjugate.self_s"] = (self_s("clifford.ad_conjugate"), "s")
    m["symspace.act.calls"] = (calls("symspace.act"), "count")
    m["symspace.act.self_s"] = (self_s("symspace.act"), "s")
    m["symspace.sphere_point.calls"] = (counts.get("sphere_point", 0), "count")
    m["symspace.maximality_scan.self_s"] = (self_s("symspace.maximality_scan"), "s")
    m["symspace.antipodal_set.self_s"] = (self_s("symspace.antipodal_set"), "s")
    for k in ("exact", "float"):
        m[f"symspace.act_us.{k}"] = (micro[f"symspace.act_us.{k}"], "us")
    m["sampling.random_triple.calls"] = (calls("sampling.random_triple"), "count")
    m["sampling.random_triple.self_s"] = (self_s("sampling.random_triple"), "s")
    for c in check.CHECK_ORDER:
        for b in ("exact", "float"):
            m[f"checks.{c}.{b}_s"] = (sp.get(f"checks.{c}.{b}", {}).get("total_s", 0.0), "s")
    m["checks.judge_eq.self_s"] = (self_s("checks.judge_eq"), "s")
    for k in ("exact", "float"):
        m[f"checks.whole_check_ms.{k}"] = (micro[f"checks.whole_check_ms.{k}"], "ms")
    m["cli.emit_s"] = (sp.get("cli.emit", {}).get("total_s", 0.0), "s")
    m["cli.report_bytes"] = (len(traced_bytes), "bytes")
    m["trace_overhead_frac"] = (traced["scaled_s"] / plain["scaled_s"] - 1.0, "frac")
    if traced["missing"]:
        # a renamed or moved target would read as a layer that got faster
        tally.failed += 1
        tally.problems.append(f"trace targets missing: {traced['missing']}")
    detail = {"plain_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "spans_file": str(spans_path.relative_to(ROOT))}
    return finish(tally, selftest, m, detail)


def finish(tally: Tally, selftest: bool, metrics: dict, detail: dict) -> dict:
    for p in tally.problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    print(json.dumps({"workload": tally.name, "seed": tally.seed, **detail}), file=sys.stderr)
    return {
        "correct": tally.failed == 0 and selftest and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spin8" / "__init__.py").is_file():
        print(f"error: no spin8 source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    run = per_layer if args.trace else end_to_end
    try:
        result = run(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

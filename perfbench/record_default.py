"""Record the default configuration once, beside the machine facts.

    python3 perfbench/record_default.py

Runs `spin8 verify-all` with its defaults (both backends, --trials 100,
seed 0) in a fresh interpreter under the tracer of the traced runs (which
adds a few percent at most), and writes perfbench/default-run.json: the
per-check wall times, the triple verifications by kind, the report digest,
the Python version, nproc, whether gmpy2 is present and which type backs
Rational.  It takes several minutes without gmpy2, which is why it is a
record and not a workload.
"""

import hashlib
import json
import os
import platform
import sys
import time

from run import BENCH_DIR, OUT_DIR, run_child

ARGV = ["verify-all"]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "default-run.json"
    facts = run_child("facts", {})
    traced = run_child("trace", {"argv": ARGV + ["--out", str(out)]}, timeout=3600)
    data = out.read_bytes()
    report = json.loads(data)
    per_check = {}
    for row in report["checks"]:
        span = traced["spans"][f"checks.{row['name']}.{row['backend']}"]
        per_check.setdefault(row["name"], {})[row["backend"]] = round(span["total_s"], 3)
    verify = {}
    for kind in ("rational", "quadext", "float"):
        span = traced["spans"].get(f"triality.verify.{kind}", {})
        verify[kind] = {"calls": span.get("calls", 0), "total_s": round(span.get("total_s", 0.0), 3)}
    record = {
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": ["spin8"] + ARGV,
        "config": report["config"],
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(), **facts},
        "exit_code": traced["code"],
        "wall_s": round(traced["wall_s"], 2),
        "per_check_s": per_check,
        "backend_total_s": {
            b: round(sum(v.get(b, 0.0) for v in per_check.values()), 2)
            for b in ("exact", "float")
        },
        "triality_verify": verify,
        "triality_verify_wall_share": round(
            sum(v["total_s"] for v in verify.values()) / traced["wall_s"], 3),
        "report_sha256": hashlib.sha256(data).hexdigest(),
        "report_bytes": len(data),
        "all_pass": all(r["status"] == "pass" for r in report["checks"]),
    }
    path = BENCH_DIR / "default-run.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

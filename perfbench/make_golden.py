"""Regenerate the golden reports the output check compares against.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Runs each workload once on the default seed and stores the digests of its
report (SHA-256 of the bytes, one digest per row) under perfbench/golden/.
Only needed when a change is meant to alter report bytes; the reports of an
unchanged program must match the stored ones.
"""

import json
import sys

import check
from run import DEFAULT_SEED, OUT_DIR, WORKLOADS, run_child


def main(names) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    check.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        out = OUT_DIR / f"golden-{name}.json"
        res = run_child("run", {"argv": wl.argv(DEFAULT_SEED, out)})
        data = out.read_bytes()

        attempted, failed, problems = wl.check(json.loads(data), DEFAULT_SEED)
        if res["code"] != 0 or failed:
            print(f"{name}: not stored, the report fails the check: {problems}", file=sys.stderr)
            return 1
        digest = check.golden_digest(data, wl.rows(json.loads(data)))
        (check.GOLDEN_DIR / f"{name}.digest.json").write_text(json.dumps(digest) + "\n")
        print(f"{name}: {len(data)} bytes, {attempted} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

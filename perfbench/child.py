"""One measurement in a fresh interpreter; prints one JSON line on stdout.

    python3 -s perfbench/child.py ROOT MODE ARGS_JSON

run.py starts this with PYTHONPATH=ROOT/src for every repetition, so the
class-level identity cache and the per-triple memos of one repetition never
carry work into the next.  Modes:

    setup   time import spin8 and TrialityTriple.identity()
    run     time spin8.cli.main(argv) after set-up, tracing off, under the
            host-speed clock of reference.py
    trace   the same call with every layer boundary wrapped (tracer.py)
    micro   the layer microbenchmarks (micro.py)
    facts   interpreter facts for the default-run record
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

from reference import REFERENCE_S, HostClock, reference_s


def _import_spin8(root: str):
    import spin8
    import spin8.cli

    want = os.path.realpath(os.path.join(root, "src", "spin8"))
    got = os.path.realpath(os.path.dirname(spin8.__file__))
    if got != want:
        raise SystemExit(f"spin8 imported from {got}, expected {want}")
    spin8.TrialityTriple.identity()
    return spin8


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(main, argv) -> tuple[dict, HostClock]:
    with HostClock() as clock:
        code = main(argv)
    return {"code": code, "wall_s": clock.raw_s, "scaled_s": clock.scaled_s}, clock


def mode_setup(root, args):
    """import spin8 (which builds TABLE) and TrialityTriple.identity(), timed
    between two reference timings in this same fresh interpreter."""
    before = reference_s()
    t0 = perf_counter()
    _import_spin8(root)
    wall = perf_counter() - t0
    scaled = wall * REFERENCE_S / ((before + reference_s()) / 2)
    return {"wall_s": wall, "scaled_s": scaled}


def mode_run(root, args):
    spin8 = _import_spin8(root)
    timed, _ = _timed(spin8.cli.main, args["argv"])
    return {**timed, "peak_rss_mib": _peak_rss_mib()}


def mode_trace(root, args):
    spin8 = _import_spin8(root)
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    timed, clock = _timed(tracer.spanned("cli.main", spin8.cli.main), args["argv"])
    if args.get("spans"):
        tracer.write(args["spans"], clock.intervals)
    summary = tracer.summary(exclude=clock.intervals)
    for s in summary.values():
        durs = sorted(s.pop("durations"))
        s["p50_s"] = durs[len(durs) // 2]
        s["p90_s"] = durs[min(len(durs) - 1, (9 * len(durs)) // 10)]
    return {
        **timed,
        "peak_rss_mib": _peak_rss_mib(),
        "spans": summary,
        "counts": dict(tracer.counts),
        "max_den_bits": tracer.max_den_bits,
        "missing": tracer.missing,
    }


def mode_micro(root, args):
    _import_spin8(root)
    from micro import run_micro

    return {"micro": run_micro(args["seed"], args["budget_s"])}


def mode_facts(root, args):
    import importlib.util
    import platform

    _import_spin8(root)
    from spin8.scalars import Rational

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "rational_type": f"{Rational.__module__}.{Rational.__qualname__}",
    }


MODES = {"setup": mode_setup, "run": mode_run, "trace": mode_trace, "micro": mode_micro,
         "facts": mode_facts}


def main() -> int:
    root, mode, raw = sys.argv[1], sys.argv[2], sys.argv[3]
    result = MODES[mode](root, json.loads(raw))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

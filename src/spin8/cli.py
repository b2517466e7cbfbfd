"""Command-line driver.

Subcommands:

    verify-all   run the whole verification battery, emit a JSON report
    fixset       the tau-fixed point for a given unit imaginary v
    antipodal    the three-point antipodal set for v, with certificates
    kai          the point-symmetry conjugation identity on random data
    table        the 8x8 basis product table

Reports are JSON objects {"schema": 1, "config": {...}, ...} written to
--out or stdout; a human summary goes to stderr.  Identical configurations
(including --seed) produce byte-identical reports.  Exit codes: 0 all checks
pass, 1 a check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .checks import _CHECK_FAILURES, RunConfig, derive_seed, run_checks
from .octonion import (
    NotImaginaryUnit,
    ensure_imaginary_unit,
    format_octonion,
    parse_octonion,
    table_rows,
)
from .scalars import ParseError
from .symspace import (
    antipodal_set,
    base_point,
    fix_tau_point,
    is_fixed_by_tau,
    maximality_scan,
    sigma_sphere,
    tau_fixed_characterization,
    tau_sphere,
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    common.add_argument("--trials", type=int, default=100,
                        help="sample-count knob; checks scale off it (default 100)")
    common.add_argument("--eps", type=float, default=1e-9,
                        help="float-backend comparison tolerance (default 1e-9)")
    common.add_argument("--backend", choices=["exact", "float", "both"],
                        default="both", help="scalar backend(s) to run (default both)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSON report here instead of stdout")

    p = argparse.ArgumentParser(
        prog="spin8",
        description="Octonion triality: exact verification of the triple "
        "group, its outer S3, and the antipodal geometry of S7 x S7.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("verify-all", parents=[common],
                   help="run every check on the selected backends")
    fp = sub.add_parser("fixset", parents=[common],
                        help="tau-fixed point for a unit imaginary v")
    fp.add_argument("v", help='octonion literal, e.g. "[0,1,0,0,0,0,0,0]"')
    ap = sub.add_parser("antipodal", parents=[common],
                        help="three-point antipodal set for v with certificates")
    ap.add_argument("v", help='octonion literal, e.g. "[0,3/5,4/5,0,0,0,0,0]"')
    sub.add_parser("kai", parents=[common],
                   help="check the point-symmetry conjugation identity")
    sub.add_parser("table", parents=[common],
                   help="print the 8x8 basis multiplication table")
    return p


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _probe(out: str | None) -> None:
    """Raise OSError now, before any work, if the report cannot be written
    to `out`.  A missing file is created and removed again, an existing one
    opened for appending, so the probe leaves no trace."""
    if not out:
        return
    try:
        open(out, "x").close()
    except FileExistsError:
        open(out, "a").close()
    else:
        os.remove(out)


def _summarize(results) -> None:
    for r in results:
        print(
            f"{r.status.upper():4s} {r.name} [{r.backend}] "
            f"residual={r.max_residual:g} trials={r.trials}",
            file=sys.stderr,
        )


def _config_dict(cfg: RunConfig, command: str) -> dict:
    d = cfg.to_dict()
    d["command"] = command
    return d


def cmd_checks(cfg: RunConfig, command: str, names=None) -> int:
    """Run the battery, or the named checks, and report them under `command`."""
    results = run_checks(cfg, names)
    _summarize(results)
    report = {
        "schema": 1,
        "config": _config_dict(cfg, command),
        "checks": [r.to_dict() for r in results],
    }
    _emit(report, cfg.out)
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} checks passed",
        file=sys.stderr,
    )
    return 1 if failed else 0


def _read_v(literal: str, backend):
    """The user's v on one backend, parsed and checked to be a unit imaginary
    octonion.  This is the usage-error boundary: a literal that is not one
    raises ParseError here, while a NotUnit or NotImaginaryUnit raised later,
    by what is built from a valid v, is a failed check."""
    v = parse_octonion(literal, backend)
    try:
        return ensure_imaginary_unit(v)
    except NotImaginaryUnit as exc:
        raise ParseError(str(exc)) from None


def cmd_fixset(cfg: RunConfig, literal: str) -> int:
    sections = []
    ok = True
    for backend in cfg.backends():
        v = _read_v(literal, backend)
        pt = fix_tau_point(v)
        fixed = is_fixed_by_tau(pt) and tau_fixed_characterization(pt)
        orbit_closed = tau_sphere(tau_sphere(tau_sphere(pt))) == pt
        ok = ok and fixed and orbit_closed
        sections.append({
            "backend": backend.name,
            "v": format_octonion(v),
            "base_point": base_point().to_json(),
            "fixed_point": pt.to_json(),
            "tau_fixed": fixed,
            "tau_orbit_trivial": orbit_closed,
            "sigma_image": sigma_sphere(pt).to_json(),
        })
        print(
            f"{'PASS' if fixed else 'FAIL'} fixset [{backend.name}] "
            f"point={pt.to_json()}",
            file=sys.stderr,
        )
    report = {"schema": 1, "config": _config_dict(cfg, "fixset"), "fixset": sections}
    _emit(report, cfg.out)
    return 0 if ok else 1


def cmd_antipodal(cfg: RunConfig, literal: str) -> int:
    sections = []
    ok = True
    for backend in cfg.backends():
        v = _read_v(literal, backend)
        aset = antipodal_set(v)          # raises if a certificate fails
        o, p, q = aset.points
        swap = sigma_sphere(p) == q and sigma_sphere(q) == p
        polar = aset.polar_intersections
        rng = random.Random(derive_seed(cfg.seed, "antipodal-cmd", backend.name))
        report_scan = maximality_scan(v, cfg.trials, rng)
        accepted = report_scan.accepted_candidates()
        scan_ok = report_scan.closes_on(aset.points)
        ok = ok and swap and polar and scan_ok
        sections.append({
            "backend": backend.name,
            "v": format_octonion(v),
            "points": [x.to_json() for x in aset.points],
            "sigma_swaps_pair": swap,
            "polar_intersections": polar,
            "maximality": {
                "trials": cfg.trials,
                "accepted": len(accepted),
                "extra_acceptances": 0 if scan_ok else len(accepted),
                "candidates": [
                    {
                        "t": format_octonion(row.t),
                        "candidate": row.candidate.to_json(),
                        "accepted": row.accepted,
                        "residual": row.residual,
                    }
                    for row in report_scan.rows
                ],
            },
        })
        print(
            f"{'PASS' if (swap and polar and scan_ok) else 'FAIL'} antipodal "
            f"[{backend.name}] accepted={len(accepted)} of "
            f"{len(report_scan.rows)} candidates",
            file=sys.stderr,
        )
    report = {
        "schema": 1,
        "config": _config_dict(cfg, "antipodal"),
        "antipodal": sections,
    }
    _emit(report, cfg.out)
    return 0 if ok else 1


def cmd_table(cfg: RunConfig) -> int:
    rows = table_rows()
    header = [f"e{i}" for i in range(1, 9)]
    width = 4
    lines = ["     " + " ".join(f"{h:>{width}}" for h in header)]
    for name, row in zip(header, rows):
        lines.append(f"{name:>4} " + " ".join(f"{c:>{width}}" for c in row))
    print("\n".join(lines))
    if cfg.out:
        _emit({"schema": 1, "config": _config_dict(cfg, "table"), "table": rows},
              cfg.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = RunConfig(
            seed=args.seed,
            trials=args.trials,
            eps=args.eps,
            backend=args.backend,
            out=args.out,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _probe(cfg.out)
        if args.command == "verify-all":
            return cmd_checks(cfg, "verify-all")
        if args.command == "fixset":
            return cmd_fixset(cfg, args.v)
        if args.command == "antipodal":
            return cmd_antipodal(cfg, args.v)
        if args.command == "kai":
            return cmd_checks(cfg, "kai", names=["kai-property"])
        return cmd_table(cfg)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the report could not be written (--out names a missing directory,
        # a directory, an unwritable file): a usage error
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    except _CHECK_FAILURES as exc:
        # a verified construction failed outside run_check, e.g. under a
        # hostile tolerance: a failed check, not a crash
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

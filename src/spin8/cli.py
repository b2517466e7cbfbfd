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
import os
import random
import stat
import sys
from functools import partial
from json.encoder import encode_basestring_ascii as _string

from .checks import RunConfig, _run_jobs, derive_seed, run_checks
from .octonion import (
    NotImaginaryUnit,
    ensure_imaginary_unit,
    format_octonion,
    parse_octonion,
    table_rows,
)
from .scalars import CheckFailed, ParseError
from .symspace import (
    antipodal_set,
    base_point,
    fix_tau_point,
    is_fixed_by_tau,
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


class _Rendered(str):
    """Report text already rendered at its depth, spliced in verbatim."""

    __slots__ = ()


# the depth of a section in a report {..., command: [section, ...]}
_SECTION = "\n    "


def _render(obj, ind="\n") -> str:
    """`obj` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it, byte
    for byte; `ind` is a newline and the indent of obj's own line, so its
    members go two spaces deeper.  Dicts need str keys, a _Rendered string
    is spliced as it is, and a type the report never holds raises TypeError.
    (Given an indent, json falls back to its pure-Python encoder.)"""
    parts = []
    _put(obj, ind, parts)
    return "".join(parts)


def _put(obj, ind, parts) -> None:
    """Append the text of `obj` at depth `ind` to `parts`, piece by piece,
    so that no text is copied until the one join."""
    if isinstance(obj, dict):  # _string raises TypeError on a key that is no str
        brackets, items = "{}", [(_string(k) + ": ", obj[k]) for k in sorted(obj)]
    elif isinstance(obj, list):
        brackets, items = "[]", [("", x) for x in obj]
    else:
        parts.append(_scalar(obj))
        return
    lead, inner = brackets[0], ind + "  "
    for key, x in items:
        parts.append(lead + inner + key)
        lead = ","
        _put(x, inner, parts)
    parts.append(ind + brackets[1] if items else brackets)


def _scalar(obj) -> str:
    if isinstance(obj, str):
        return obj if type(obj) is _Rendered else _string(obj)
    if obj is None or type(obj) is bool:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    raise TypeError(f"{type(obj).__name__} is not a report value")


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them


def _emit(cfg: RunConfig, command: str, key: str, body, out) -> None:
    """Write the report {"schema": 1, "config": cfg and command, key: body}
    to `out`: a path, the FIFO file that ``_probe`` kept open (closed once
    written), or stdout when None."""
    config = dict(cfg._asdict(), command=command)
    text = _render({"schema": 1, "config": config, key: body}) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    if isinstance(out, str):
        out = open(out, "w", encoding="utf-8")
    with out:
        out.write(text)


def _probe(out: str | None):
    """Raise OSError now, before any work, if the report cannot be written
    to `out`.  A missing file is created and removed again, an existing one
    opened for appending, so the probe leaves no trace.  That open does not
    block: a FIFO with no reader raises ENXIO instead of waiting for one.
    A symlink is probed at its target, as "x" refuses every link, even one
    that names no file yet.

    A FIFO's write end is kept, blocking again, and returned as a text file
    for the report: closed here, it would give the reader an end of file
    before any work.  Anything else returns None.  Only None means stdout:
    an empty path names no file and raises, as a missing directory does."""
    if out is None:
        return None
    if os.path.islink(out):
        out = os.path.realpath(out)
    try:
        open(out, "x").close()
    except FileExistsError:
        fd = os.open(out, os.O_WRONLY | os.O_APPEND | getattr(os, "O_NONBLOCK", 0))
        if stat.S_ISFIFO(os.fstat(fd).st_mode):
            os.set_blocking(fd, True)
            return open(fd, "w", encoding="utf-8")
        os.close(fd)
    else:
        os.remove(out)
    return None


def _summarize(results) -> None:
    for r in results:
        print(
            f"{r.status.upper():4s} {r.name} [{r.backend}] "
            f"residual={r.max_residual:g} trials={r.trials}",
            file=sys.stderr,
        )


def cmd_checks(cfg: RunConfig, command: str, out, names=None) -> int:
    """Run the battery, or the named checks, and report them under `command`."""
    results = run_checks(cfg, names)
    _summarize(results)
    _emit(cfg, command, "checks", [r._asdict() for r in results], out)
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


def _fixset_section(cfg: RunConfig, v, backend):
    pt = fix_tau_point(v)
    fixed = is_fixed_by_tau(pt) and tau_fixed_characterization(pt)
    orbit_closed = tau_sphere(tau_sphere(tau_sphere(pt))) == pt
    section = {
        "backend": backend.name,
        "v": format_octonion(v),
        "base_point": base_point().to_json(),
        "fixed_point": pt.to_json(),
        "tau_fixed": fixed,
        "tau_orbit_trivial": orbit_closed,
        "sigma_image": sigma_sphere(pt).to_json(),
    }
    ok = fixed and orbit_closed
    line = f"{'PASS' if ok else 'FAIL'} fixset [{backend.name}] point={pt.to_json()}"
    return section, line, ok


def _candidates(rows, ind) -> list:
    """The scan's rows, each as _render writes its dict {"t", "candidate":
    {"x", "y"}, "accepted", "residual"} in a list at depth `ind`: one
    template that _render made, filled per row, so no row dict is built."""
    slot = _Rendered("%s")  # filled in key order
    row = _render({"accepted": slot, "candidate": {"x": slot, "y": slot},
                   "residual": slot, "t": slot}, ind + "  ")
    return [_Rendered(row % (_scalar(r.accepted), _string(format_octonion(r.candidate.x)),
                             _string(format_octonion(r.candidate.y)), _scalar(r.residual),
                             _string(format_octonion(r.t))))
            for r in rows]


def _antipodal_section(cfg: RunConfig, v, backend):
    rng = random.Random(derive_seed(cfg.seed, "antipodal-cmd", backend.name))
    aset = antipodal_set(v, cfg.trials, rng)  # raises if a certificate fails
    accepted = sum(r.accepted for r in aset.rows)
    section = {
        "backend": backend.name,
        "v": format_octonion(v),
        "points": [x.to_json() for x in aset.points],
        "sigma_swaps_pair": aset.sigma_swaps,
        "polar_intersections": aset.polar_intersections,
        "maximality": {
            "trials": cfg.trials,
            "accepted": accepted,
            "extra_acceptances": aset.extra,
            "candidates": _candidates(aset.rows, _SECTION + "    "),
        },
    }
    ok = aset.sigma_swaps and aset.polar_intersections and aset.maximal
    line = (f"{'PASS' if ok else 'FAIL'} antipodal [{backend.name}] "
            f"accepted={accepted} of {len(aset.rows)} candidates")
    return section, line, ok


def _sections(cfg: RunConfig, literal: str, command: str, section, out,
              workers=None) -> int:
    """Report `section(cfg, v, backend)` for each backend under `command`.

    v is read and checked on every backend before any work.  The sections
    then run as one job per backend on the shared runner (with `workers`
    forked workers, by default one per further CPU), and the summary
    lines, the failure raised and the report are those of running them one
    after another: lines in backend order, and the first section's failure
    (a CheckFailed) raised after the lines of the sections before it.
    """
    backends = cfg.backends()
    vs = [_read_v(literal, backend) for backend in backends]

    def job(v, backend):
        try:
            body, line, passed = section(cfg, v, backend)
        except CheckFailed as exc:  # raised below, in backend order
            return exc
        # rendered here, so a worker sends back one string
        return _Rendered(_render(body, _SECTION)), line, passed

    sections, ok = [], True
    jobs = [partial(job, v, b) for v, b in zip(vs, backends)]
    for outcome in _run_jobs(jobs, workers=workers):
        if isinstance(outcome, Exception):
            raise outcome
        body, line, passed = outcome
        print(line, file=sys.stderr)
        sections.append(body)
        ok = ok and passed
    _emit(cfg, command, command, sections, out)
    return 0 if ok else 1


def cmd_table(cfg: RunConfig, out) -> int:
    rows = table_rows()
    header = [f"e{i}" for i in range(1, 9)]
    width = 4
    lines = ["     " + " ".join(f"{h:>{width}}" for h in header)]
    for name, row in zip(header, rows):
        lines.append(f"{name:>4} " + " ".join(f"{c:>{width}}" for c in row))
    print("\n".join(lines))
    if out is not None:
        _emit(cfg, "table", "table", rows, out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = RunConfig(args.seed, args.trials, args.eps, args.backend)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fifo = None
    try:
        fifo = _probe(args.out)
        out = fifo or args.out  # a FIFO's report goes through the probed write end
        if args.command == "verify-all":
            return cmd_checks(cfg, "verify-all", out)
        if args.command == "fixset":
            # a fixset section takes 1-3 ms, less than forking a worker and
            # sending its result back (about 6 ms on a 2-core host): both run
            # in this process
            return _sections(cfg, args.v, "fixset", _fixset_section, out, workers=0)
        if args.command == "antipodal":
            return _sections(cfg, args.v, "antipodal", _antipodal_section, out)
        if args.command == "kai":
            return cmd_checks(cfg, "kai", out, names=["kai-property"])
        return cmd_table(cfg, out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the report could not be written (--out names a missing directory,
        # a directory, an unwritable file): a usage error
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        # a verified construction failed outside run_check, e.g. under a
        # hostile tolerance: a failed check, not a crash
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if fifo is not None:  # unwritten if the run stopped early
            fifo.close()


if __name__ == "__main__":
    sys.exit(main())

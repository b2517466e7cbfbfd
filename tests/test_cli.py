import ast
import builtins
import glob
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import spin8.checks as checks
import spin8.cli as cli
import spin8.symspace as symspace
from spin8.checks import RunConfig
from spin8.cli import main
from spin8.octonion import NotImaginaryUnit, ensure_imaginary_unit, parse_octonion
from spin8.scalars import ParseError


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "e4" in out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 9  # header + 8 rows


def test_table_json(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    code, _, _ = run(capsys, "table", "--out", str(out_path))
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["schema"] == 1
    assert rep["table"][1][2] == "e4"
    # the report's body is TABLE itself; not a REPORT_DIGESTS pin, since
    # `table` also prints the table on stdout, where those pins read JSON
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "b550078fb8d85d369575e7bb2fb0a720d6d619ec431d0954ff8d981bed471cf2")


def test_only_emit_builds_a_report():
    # every report is {"schema": 1, "config": ..., key: body}, built in one
    # place: the literal "schema" occurs once in the package, in cli._emit
    hits = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so inner ones win
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((n, fn.name) for n in ast.walk(fn))
        hits += [(path.name, owner.get(n)) for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and n.value == "schema"]
    assert hits == [("cli.py", "_emit")]


def test_fixset_canonical(capsys):
    code, out, err = run(capsys, "fixset", "[0,1,0,0,0,0,0,0]", "--backend", "exact")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    section = rep["fixset"][0]
    assert section["tau_fixed"] is True
    assert section["fixed_point"]["x"].startswith("[-1/2, 1/2*r3")
    assert "PASS" in err


def test_fixset_rational_point(capsys):
    code, out, _ = run(capsys, "fixset", "[0,3/5,4/5,0,0,0,0,0]")
    assert code == 0
    rep = json.loads(out)
    assert all(s["tau_fixed"] for s in rep["fixset"])


def test_fixset_rejects_non_imaginary(capsys):
    code, _, err = run(capsys, "fixset", "[1,0,0,0,0,0,0,0]")
    assert code == 2
    assert "error" in err


def test_valid_literal_under_a_tight_eps_is_a_failed_check(capsys):
    # e2 is a unit imaginary at eps 1e-16, but the float cube root built from
    # it is not a unit there: a failed check (exit 1), not a usage error
    for command in ("fixset", "antipodal"):
        code, out, err = run(capsys, command, "[0,1,0,0,0,0,0,0]", "--backend", "float",
                             "--eps", "1e-16", "--trials", "1")
        assert code == 1, command
        assert out == ""
        assert err == ("error: NotUnit: expected a unit octonion, "
                       "got |x|^2 = 0.9999999999999999\n")
    # a literal that is not a unit imaginary stays a usage error
    for command in ("fixset", "antipodal"):
        for literal in ("[1,0,0,0,0,0,0,0]", "[0,1,1,0,0,0,0,0]"):
            for backend in ("exact", "float"):
                code, out, err = run(capsys, command, literal, "--backend", backend,
                                     "--trials", "1")
                assert code == 2, (command, literal, backend)
                assert out == ""
                assert err == "error: expected a unit octonion with zero e1 component\n"


def test_fixset_rejects_bad_literal(capsys):
    for literal in ("[1,2]", "[1/0,0,0,0,0,0,0,0]", f"[0,{'9' * 5000},0,0,0,0,0,0]"):
        code, _, err = run(capsys, "fixset", literal)
        assert code == 2
        assert "error" in err


def test_underscored_literal_is_rejected_on_every_backend(capsys):
    # float() alone reads "1_0e-1" as 1.0 and "1E5_0" as 1e50; a space
    # inside a number ("0.6 0") makes no number either
    for entry in ("1_0e-1", "1E5_0", "0.6 0"):
        for backend in ("exact", "float", "both"):
            code, out, err = run(capsys, "fixset", f"[0,{entry},0,0,0,0,0,0]",
                                 "--backend", backend)
            assert code == 2, (entry, backend)
            assert out == ""
            assert err == f"error: bad scalar literal {entry!r}\n"


def test_non_ascii_digits_are_rejected_on_every_backend(capsys):
    # \d and float() read any Unicode digit: an Arabic-Indic 3/5 and 4/5, and
    # fullwidth 3/5 and 4/5, once made a unit v that passed
    for v in ("[0,\u0663/5,\u0664/5,0,0,0,0,0]", "[0,\uff13/\uff15,\uff14/\uff15,0,0,0,0,0]",
              "[0,1e\u0660,0,0,0,0,0,0]"):
        for backend in ("exact", "float", "both"):
            code, out, err = run(capsys, "fixset", v, "--backend", backend)
            assert code == 2, (v, backend)
            assert out == ""
            assert err.startswith("error: bad scalar literal"), err


def test_fixset_rejects_non_finite_float_literal(capsys):
    for entry in ("nan", "inf", "-1e400"):
        code, out, err = run(capsys, "fixset", f"[0,{entry},0,0,0,0,0,0]",
                             "--backend", "float")
        assert code == 2, entry
        assert out == ""
        assert err.startswith("error:") and "non-finite" in err
    # scientific notation, as float reports print it, still parses
    code, _, _ = run(capsys, "fixset", "[0,1e0,0e0,0,0,0,0,0]", "--backend", "float")
    assert code == 0


@pytest.mark.parametrize("args", [
    ["table"],
    ["fixset", "[0,1,0,0,0,0,0,0]"],
    ["kai", "--trials", "1", "--backend", "float"],
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, args):
    for out in (tmp_path / "missing" / "rep.json", tmp_path, ""):
        code, _, err = run(capsys, *args, "--out", str(out))
        assert code == 2, out
        assert "error: cannot write report" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["verify-all", "--trials", "1"],
    ["kai", "--trials", "1"],
    ["antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--trials", "1"],
    ["fixset", "[0,1,0,0,0,0,0,0]"],
])
def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, args):
    calls = []

    def refuse(*a, **kw):
        calls.append(a)
        raise AssertionError("work started before the output path was checked")

    for name in ("run_checks", "antipodal_set", "fix_tau_point"):
        monkeypatch.setattr(cli, name, refuse)
    for out in (tmp_path / "missing" / "rep.json", tmp_path, ""):
        code, stdout, err = run(capsys, *args, "--out", str(out))
        assert code == 2, out
        assert stdout == ""
        assert err.startswith("error: cannot write report")
    assert calls == []


def test_out_probe_leaves_no_trace(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code, _, _ = run(capsys, "fixset", "[1,2]", "--out", str(out))
    assert code == 2
    assert not out.exists()  # a probe-created file is removed again
    out.write_text("old")
    code, _, _ = run(capsys, "fixset", "[1,2]", "--out", str(out))
    assert code == 2
    assert out.read_text() == "old"  # and an existing one is not truncated


@pytest.mark.parametrize("args", [["table"], ["verify-all", "--trials", "1"]])
def test_out_fifo_without_reader_is_a_usage_error(tmp_path, args):
    # opening a FIFO for writing waits for a reader; the probe must not, so
    # a reader-less FIFO is an unwritable --out: exit 2, at once
    import subprocess

    import spin8

    fifo = tmp_path / "rep.fifo"
    os.mkfifo(fifo)
    src = os.path.dirname(os.path.dirname(spin8.__file__))
    done = subprocess.run([sys.executable, "-m", "spin8.cli", *args, "--out", str(fifo)],
                          capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: cannot write report")


# Holds a read end of the FIFO open without waiting, says so, then opens it
# again to block until a writer comes and copies what it writes to stdout.
_FIFO_READER = """
import os, sys
held = os.open(sys.argv[1], os.O_RDONLY | os.O_NONBLOCK)
print("ready", file=sys.stderr, flush=True)
with open(sys.argv[1], "rb") as fh:
    sys.stdout.buffer.write(fh.read())
"""


def _report_through_fifo(fifo, out):
    """The report of a one-trial verify-all run with --out `out`, as a
    reader holding `fifo` open gets it.  Both sides are subprocesses with a
    timeout, so a hang fails the test instead of stalling the suite."""
    import spin8

    src = os.path.dirname(os.path.dirname(spin8.__file__))
    reader = subprocess.Popen([sys.executable, "-c", _FIFO_READER, str(fifo)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert reader.stderr.readline() == b"ready\n"
        done = subprocess.run(
            [sys.executable, "-m", "spin8.cli", "verify-all", "--trials", "1",
             "--out", str(out)],
            capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
        got, _ = reader.communicate(timeout=30)
    finally:
        reader.kill()
        reader.wait()
    assert done.returncode == 0, done.stderr
    assert reader.returncode == 0
    report = json.loads(got)
    assert report["config"]["command"] == "verify-all"
    assert len(report["checks"]) == 2 * len(checks.CHECKS)


def test_out_fifo_reader_gets_the_report(tmp_path):
    # the probe keeps the FIFO's write end and the report goes through it,
    # so the reader sees one writer from the probe to the end of the report
    # and no end of file before it
    fifo = tmp_path / "rep.fifo"
    os.mkfifo(fifo)
    _report_through_fifo(fifo, fifo)


def test_out_symlink_to_a_fifo_reaches_its_reader(tmp_path):
    fifo, link = tmp_path / "rep.fifo", tmp_path / "link"
    os.mkfifo(fifo)
    link.symlink_to(fifo)
    _report_through_fifo(fifo, link)


def test_out_through_a_dangling_symlink_writes_its_target(tmp_path, capsys):
    # open(link, "w") creates a link's missing target, so the probe checks
    # the target, and leaves no trace there either
    target, link = tmp_path / "target.json", tmp_path / "link"
    link.symlink_to(target)
    code, _, _ = run(capsys, "fixset", "[1,2]", "--out", str(link))
    assert code == 2
    assert link.is_symlink() and not target.exists()
    plain = tmp_path / "plain.json"
    for out in (link, plain):
        code, stdout, _ = run(capsys, "fixset", "[0,1,0,0,0,0,0,0]", "--out", str(out))
        assert code == 0 and stdout == ""
    assert link.is_symlink() and target.read_bytes() == plain.read_bytes()


def test_unwritable_symlink_out_fails_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*a):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(cli, "fix_tau_point", refuse)
    into_missing, loop = tmp_path / "into-missing", tmp_path / "loop"
    into_missing.symlink_to(tmp_path / "missing" / "rep.json")
    loop.symlink_to(loop)
    for link in (into_missing, loop):
        code, stdout, err = run(capsys, "fixset", "[0,1,0,0,0,0,0,0]", "--out", str(link))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: cannot write report")
    assert sorted(os.listdir(tmp_path)) == ["into-missing", "loop"]


# SHA-256 of reports taken before the octonions computed on kernel forms.
# The float cases pin the exact 0 that cube_root_of_unity (and conj) leave
# in a zero coordinate, printed "0", against the "0.0" and "-0.0" of parsed
# float coordinates.
REPORT_DIGESTS = [
    (["antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--backend", "both", "--trials", "20"],
     "31b6cda902d8b6ac0f103a769b30430cba423c193b9f1399da06fb1cc4ab1d47", 0),
    (["antipodal", "[0,0.6,-0.0,-0.8,0,0,0,0]", "--backend", "both", "--trials", "5"],
     "22384a0a28aeb4fbbfecbd8e7796b5e3499f4c9581523f9feaa6369e68731b52", 0),
    (["fixset", "[0,1,0,0,0,0,0,0]", "--backend", "both"],
     "e6571f2c99fcdedf6ab8cde80f0a790e4fe230370f44276b5f2ad6f51eac7d3c", 0),
    (["fixset", "[0,0.6,-0.0,-0.8,0,0,0,0]", "--backend", "both"],
     "4a6c2184ef7dd3d29c6d5cb16b6e1e93bc031b2b055e759a47c09eae96f8bbe3", 0),
    # the float residual bits of the whole battery, passing and failing
    (["verify-all", "--trials", "2"],
     "bbf7d5397e785b6499bd91b80e1f6de53ea8c38c7f393316485e51558ad1cddd", 0),
    # at eps 5 every 1 + t^2 of random_rotation is within the tolerance of
    # zero, so clifford-embedding [float] fails with trials=0, and o, p and q
    # compare equal, so antipodal-triple [float] fails with trials=0
    (["verify-all", "--trials", "3", "--seed", "3", "--eps", "5"],
     "7b70676fc8b77be495e9ebf2accdc42e24f463615b6adc8ac285e758eedb4911", 1),
    (["verify-all", "--trials", "3", "--eps", "0.5"],
     "d2cba2adbb1f584d5445605bc7d64f4b061ae2adb7da0c1842775dd9ed651bda", 0),
    (["verify-all", "--trials", "3", "--eps", "1e-300"],
     "c3cd5175ae1cdf415bbfdc417949654d49bd8e6100df16175d7ece2e12fa37ea", 1),
]


@pytest.mark.parametrize("args,digest,exit_code", REPORT_DIGESTS)
def test_report_bytes(tmp_path, capsys, args, digest, exit_code):
    out = tmp_path / "rep.json"
    code, _, _ = run(capsys, *args, "--out", str(out))
    assert code == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_SUM = builtins.sum

# the default `spin8 verify-all` report
DEFAULT_REPORT_DIGEST = "495710261a6ec95520e3d3b12aaca2c40428b6dda2964fd135a32811c0c43dd7"


def compensated_sum(iterable, /, start=0):
    """builtins.sum adding floats as CPython 3.12 does: once the running
    total is a float, float items add with Neumaier's compensation, and the
    compensation joins the total (unless it is 0 or not finite) at the end
    or before a non-float item, from which on items add plainly.  Leading
    ints add exactly, as on every version; a sum with no float in it is the
    real sum."""
    items = list(iterable)
    if type(start) is not float and float not in map(type, items):
        return _SUM(items, start)
    total, rest = start, iter(items)
    if type(total) is int:
        for item in rest:
            total = total + item
            if type(item) is not int:
                break
    if type(total) is float:
        c = 0.0
        for item in rest:
            if type(item) is not float:
                if c and math.isfinite(c):
                    total += c
                total, c = total + item, 0.0
                break
            t = total + item
            c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
            total = t
        if c and math.isfinite(c):
            total += c
    for item in rest:
        total = total + item
    return total


def test_report_bytes_under_compensated_sum(tmp_path, capsys, monkeypatch):
    # CPython 3.12 made sum() of floats compensated.  The float kernel adds
    # in index order itself, so under 3.12's sum() every pinned report (each
    # carries a float section) and the default report keep their bytes, and
    # the package needs no upper bound on the Python version.
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0 and sum([0.1] * 10, 0) == 1.0
    assert sum([1, 2], 3) == 6 and sum([[1], [2]], []) == [1, 2]
    for args, digest, exit_code in REPORT_DIGESTS + [(["verify-all"], DEFAULT_REPORT_DIGEST, 0)]:
        out = tmp_path / "rep.json"
        code, _, _ = run(capsys, *args, "--out", str(out))
        assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == (exit_code, digest), args


# Runs each pin given as JSON in argv[3] with spin8 from argv[1] and reports
# into directory argv[2]; prints [exit code, report SHA-256] per pin.
_PIN_SCRIPT = """
import hashlib, json, os, sys
sys.path.insert(0, sys.argv[1])
from spin8.cli import main
got = []
for i, args in enumerate(json.loads(sys.argv[3])):
    out = os.path.join(sys.argv[2], f"rep{i}.json")
    with open(os.devnull, "w") as null:
        sys.stderr = null
        code = main(args + ["--out", out])
        sys.stderr = sys.__stderr__
    with open(out, "rb") as f:
        got.append([code, hashlib.sha256(f.read()).hexdigest()])
print(json.dumps(got))
"""


def other_cpythons() -> list:
    """Every other CPython >= 3.10 that starts: python3.N on PATH and each
    version under `pyenv root`, one interpreter per distinct sys.version."""
    paths = [shutil.which(f"python3.{n}") for n in range(10, 30)]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        paths += sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python3")))
    probe = ("import platform, sys; print(platform.python_implementation() == 'CPython'"
             " and sys.version_info >= (3, 10)); print(sys.version)")
    found = {sys.version: None}  # the running interpreter is no other one
    for path in filter(None, paths):
        try:
            r = subprocess.run([path, "-I", "-c", probe], capture_output=True, text=True,
                               timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            continue
        supported, _, version = r.stdout.partition("\n")
        if r.returncode == 0 and supported == "True":
            found.setdefault(version, path)
    return [path for path in found.values() if path]


def test_report_bytes_on_other_pythons(tmp_path):
    # the pins hold on every CPython this package supports, not only under
    # the emulated compensated sum(): each interpreter found runs all of
    # them in a fresh, isolated process, the interpreters side by side
    pythons = other_cpythons()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 found")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    pins = json.dumps([args for args, _, _ in REPORT_DIGESTS])
    procs = []
    for i, python in enumerate(pythons):
        (tmp_path / str(i)).mkdir()
        procs.append(subprocess.Popen(
            [python, "-I", "-B", "-c", _PIN_SCRIPT, src, str(tmp_path / str(i)), pins],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    want = [[code, digest] for _, digest, code in REPORT_DIGESTS]
    for python, proc in zip(pythons, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (python, err)
        assert json.loads(out) == want, python


def test_fixset_line_reads_the_exit_verdict(tmp_path, capsys):
    # tau fixes this float point at eps 1e-16, but tau^3 does not return it
    # within that tolerance: the run fails, and its summary line says so
    literal = ("[0, 0.763917764645415, 0.30347905445147294, -0.27466015661858745, "
               "-0.17550650070929996, -0.35530424663703664, -0.2768657098307493, "
               "-0.12326252465784164]")
    out = tmp_path / "rep.json"
    code, _, err = run(capsys, "fixset", literal, "--backend", "float", "--eps", "1e-16",
                       "--out", str(out))
    assert code == 1
    assert err.startswith("FAIL fixset [float] ")
    section = json.loads(out.read_text())["fixset"][0]
    assert section["tau_fixed"] is True and section["tau_orbit_trivial"] is False
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "bede30f3853f5a1799f7805b4b31814d3403597dccf9906dfafcffb208862d5a")


def test_antipodal_points_must_stay_distinct(capsys):
    # at eps 1.5, o, p = (s, conj s) and q = (conj s, s) for v = (3/5, 4/5)
    # compare equal (3/2 apart in e1, sqrt 3 * 4/5 ~ 1.39 in e3), so the
    # three-point set collapses: a failed check, not a vacuous pass
    v = "[0,3/5,4/5,0,0,0,0,0]"
    code, out, err = run(capsys, "antipodal", v, "--backend", "float", "--eps", "1.5")
    assert code == 1 and out == ""
    assert err.startswith("error: AntipodalityViolated: ")
    assert run(capsys, "antipodal", v, "--backend", "float", "--eps", "1")[0] == 0


def test_forms_are_not_rebuilt_from_scalar_rows(tmp_path, capsys, monkeypatch):
    # Matrices and octonions hold their forms alone.  In a whole run, exact
    # scalars become a form only in a constructor called by Matrix.identity,
    # Matrix.scale or parse_octonion, and an ApproxReal is built only by
    # parsing, so no sampler (random_octonion, random_quaternion, ...) builds
    # a value from scalars.  Scalars are made from a form only where a scalar
    # is the result (Octonion.norm_sq, trace_inner_product) or a scalar view
    # is read (Octonion.coeffs, Matrix.rows).
    from collections import Counter

    from spin8 import kernel
    from spin8.scalars import ApproxReal

    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    scaled, approx, unscaled = Counter(), Counter(), Counter()

    def caller(depth):
        return sys._getframe(depth + 1).f_code.co_name  # a program function

    def scale(values, real=kernel.scale):
        scaled[caller(2)] += 1  # the constructor's caller
        return real(values)

    def init(self, *args, real=ApproxReal.__init__):
        approx[caller(1)] += 1
        real(self, *args)

    def unscale(*args, real=kernel.unscale):
        unscaled[caller(1)] += 1
        return real(*args)

    monkeypatch.setattr(kernel, "scale", scale)
    monkeypatch.setattr(ApproxReal, "__init__", init)
    monkeypatch.setattr(kernel, "unscale", unscale)
    out = str(tmp_path / "rep.json")
    for args in (["verify-all", "--trials", "2", "--backend", "both"],
                 ["antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--trials", "20"],
                 ["fixset", "[0,1,0,0,0,0,0,0]"],
                 ["kai", "--trials", "2"],
                 ["table"]):
        assert run(capsys, *args, "--out", out)[0] == 0
    assert scaled and set(scaled) <= {"identity", "scale", "parse_octonion"}, scaled
    assert approx and set(approx) <= {"parse"}, approx
    assert unscaled and set(unscaled) <= {"norm_sq", "trace_inner_product", "coeffs",
                                          "rows"}, unscaled


def test_exact_triples_arrive_decided(tmp_path, capsys, monkeypatch):
    # Every triple runs one sequence: SO(8) of A, B and C, then the 64-pair
    # identity.  An exact triple of the battery or of an antipodal section
    # is built from translations by products, transposes and kmk, which
    # carry their SO(8) verdicts, so the only verdicts computed inside an
    # exact constructor are the identity triple's (Matrix.identity(8) is
    # built from rows, and A, B and C are that one matrix) and that of 2A in
    # the triality-closure row's (2A, 2B, C) control, which the SO(8) test of
    # A refuses.  The 64-pair identity runs once in every exact constructor
    # that passes its SO(8) tests, failures included (the clifford control's
    # rotation pairs are refused by it).
    from spin8 import linalg, triality
    from spin8.linalg import Matrix, NotOrthogonal
    from spin8.triality import TrialityTriple, TrialityViolated

    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    monkeypatch.setattr(TrialityTriple, "_cached_identity", None)
    exact, verdicts, built, refused, holds = [], [], [0], [0], [0]
    unorthogonal = [0]

    def verdict(m, real=linalg._so8_verdict):
        if exact and exact[-1]:
            verdicts.append(m)
        return real(m)

    def identity(*args, real=triality._triality_holds):
        holds[0] += bool(exact and exact[-1])
        return real(*args)

    def init(self, a, b, c, real=TrialityTriple.__init__):
        exact.append(a._fl is None and b._fl is None and c._fl is None)
        built[0] += exact[-1]
        try:
            real(self, a, b, c)
        except TrialityViolated:
            refused[0] += exact[-1]
            raise
        except NotOrthogonal:
            unorthogonal[0] += exact[-1]
            raise
        finally:
            exact.pop()

    monkeypatch.setattr(linalg, "_so8_verdict", verdict)
    monkeypatch.setattr(triality, "_triality_holds", identity)
    monkeypatch.setattr(TrialityTriple, "__init__", init)
    out = str(tmp_path / "rep.json")
    for args in (["verify-all", "--backend", "exact", "--trials", "2"],
                 ["antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--backend", "exact",
                  "--trials", "20"]):
        assert run(capsys, *args, "--out", out)[0] == 0
    assert built[0] and refused[0] and unorthogonal == [1]
    assert [m for m in verdicts if linalg.is_orthogonal(m)] == [Matrix.identity(8)]
    assert len(verdicts) == 2
    assert holds[0] == built[0] - unorthogonal[0]


def test_antipodal(capsys):
    code, out, _ = run(capsys, "antipodal", "[0,1,0,0,0,0,0,0]",
                       "--trials", "10", "--backend", "exact")
    assert code == 0
    rep = json.loads(out)
    section = rep["antipodal"][0]
    assert len(section["points"]) == 3
    assert section["sigma_swaps_pair"] is True
    assert section["polar_intersections"] is True
    assert section["maximality"]["extra_acceptances"] == 0
    assert len(section["maximality"]["candidates"]) == 13  # 3 closed-form + 10


def test_a_sigma_that_does_not_swap_fails(tmp_path, capsys, monkeypatch):
    # antipodal_set decides the swap for both callers: reported False, the
    # antipodal-triple rows and the antipodal command fail
    def aset(*args, real=cli.antipodal_set):
        return real(*args)._replace(sigma_swaps=False)

    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    monkeypatch.setattr(checks, "antipodal_set", aset)
    monkeypatch.setattr(cli, "antipodal_set", aset)
    out = tmp_path / "rep.json"
    code, _, _ = run(capsys, "verify-all", "--trials", "1", "--out", str(out))
    assert code == 1
    failing = {(r["name"], r["backend"]) for r in json.loads(out.read_text())["checks"]
               if r["status"] != "pass"}
    assert failing == {("antipodal-triple", "exact"), ("antipodal-triple", "float")}
    code, _, err = run(capsys, "antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--out", str(out))
    assert code == 1 and err.startswith("FAIL antipodal [exact]")
    assert [s["sigma_swaps_pair"] for s in json.loads(out.read_text())["antipodal"]] \
        == [False, False]


def test_antipodal_negated_v_swaps(capsys):
    code, out, _ = run(capsys, "antipodal", "[0,-1,0,0,0,0,0,0]",
                       "--trials", "5", "--backend", "exact")
    assert code == 0
    rep = json.loads(out)
    pts = rep["antipodal"][0]["points"]
    code2, out2, _ = run(capsys, "antipodal", "[0,1,0,0,0,0,0,0]",
                         "--trials", "5", "--backend", "exact")
    pts2 = json.loads(out2)["antipodal"][0]["points"]
    assert pts[0] == pts2[0]
    assert pts[1] == pts2[2] and pts[2] == pts2[1]


def test_kai_subcommand(capsys):
    code, out, err = run(capsys, "kai", "--trials", "3", "--backend", "float")
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["command"] == "kai"
    assert [c["name"] for c in rep["checks"]] == ["kai-property"]
    assert rep["checks"][0]["status"] == "pass"
    assert "1/1 checks passed" in err


def test_verify_all_small(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, _, err = run(capsys, "verify-all", "--trials", "2", "--seed", "5",
                       "--out", str(out_path))
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["schema"] == 1
    assert rep["config"]["seed"] == 5
    assert len(rep["checks"]) == 26
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert "checks passed" in err


@pytest.mark.parametrize("fixture", ["capsys", "capfd"])
def test_verify_all_prints_each_line_once(request, monkeypatch, fixture):
    # forked workers end through os._exit: they never flush the stdio
    # buffers they inherited, so nothing written before the run repeats
    capture = request.getfixturevalue(fixture)
    monkeypatch.setattr(checks, "_cpus", lambda: 4)
    sys.stdout.write("unflushed")
    code = main(["verify-all", "--trials", "1", "--seed", "4"])
    out, err = capture.readouterr()
    assert code == 0
    assert out.count("unflushed") == 1
    assert len(json.loads(out[len("unflushed"):])["checks"]) == 26
    passes = [line for line in err.splitlines() if line.startswith("PASS")]
    assert len(passes) == len(set(passes)) == 26
    assert err.count("26/26 checks passed") == 1


def test_verify_all_exact_residuals_are_zero(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, _, _ = run(capsys, "verify-all", "--trials", "2",
                     "--backend", "exact", "--out", str(out_path))
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert all(c["max_residual"] == 0 for c in rep["checks"])


def test_verify_all_hostile_eps_fails(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, _, _ = run(capsys, "verify-all", "--trials", "2", "--eps", "1e-30",
                     "--backend", "float", "--out", str(out_path))
    assert code == 1
    rep = json.loads(out_path.read_text())  # report still written
    assert any(c["status"] == "fail" for c in rep["checks"])


def test_verify_all_rejects_non_finite_eps(capsys):
    # nan used to reach the exact kernel with float entries, inf made every
    # comparison pass; "=" keeps argparse from reading "-inf" as an option
    for eps in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "verify-all", "--trials", "1",
                             "--backend", "float", f"--eps={eps}")
        assert code == 2, eps
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_antipodal_hostile_eps_fails_cleanly(capsys):
    # at eps 1e-20 the float L(s) triple fails its own SO(8) test; that is a
    # failed check (exit 1), reported on one error line, not a traceback
    code, out, err = run(capsys, "antipodal", "[0,3/5,4/5,0,0,0,0,0]",
                         "--backend", "float", "--eps", "1e-20", "--trials", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "NotOrthogonal" in err
    assert "Traceback" not in err


def test_float_verdicts_run_the_lu_only_where_nothing_proves_the_sign(tmp_path, capsys,
                                                                     monkeypatch):
    # A float translation, sandwich, product of two SO(8) factors, transpose
    # of one or kmk carries the proved sign of its determinant, so at the
    # default eps its verdict is the Gram test alone.  The LU runs on the
    # exact identity and on the float matrices nothing vouches for: the
    # random rotations of clifford-embedding and the C of triple_from_pair
    # (README, "SO(8) verdicts").
    from spin8 import linalg
    from spin8.triality import TrialityTriple

    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    monkeypatch.setattr(TrialityTriple, "_cached_identity", None)
    counts = {"verdicts": 0, "lus": 0}
    verdict, det = linalg._so8_verdict, linalg._det_float

    def counted_verdict(m):
        counts["verdicts"] += 1
        return verdict(m)

    def counted_det(rows):
        counts["lus"] += 1
        return det(rows)

    monkeypatch.setattr(linalg, "_so8_verdict", counted_verdict)
    monkeypatch.setattr(linalg, "_det_float", counted_det)
    out = str(tmp_path / "rep.json")
    assert run(capsys, "verify-all", "--backend", "float", "--trials", "2", "--out", out)[0] == 0
    assert counts == {"verdicts": 429, "lus": 5}


def test_float_triples_sweep_their_64_pairs_once(tmp_path, capsys, monkeypatch):
    # A float triple keeps the (pair, worst) of its constructor's sweep:
    # TrialityViolated raises with it and triality_residual() reads it.  So
    # the sweep runs once per float triple that reaches the identity, built
    # or refused, and once per is_g2 test of a diagonal triple.
    from spin8 import triality
    from spin8.triality import TrialityTriple, TrialityViolated

    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    monkeypatch.setattr(TrialityTriple, "_cached_identity", None)
    counts = {"built": 0, "refused": 0, "g2": 0, "sweeps": 0}
    init, holds, defect = (TrialityTriple.__init__, triality._triality_holds,
                           triality._triality_defect)

    def floats(*mats):
        return any(m._fl is not None for m in mats)

    def counted_init(self, a, b, c):
        try:
            init(self, a, b, c)
        except TrialityViolated:
            counts["refused"] += floats(a, b, c)
            raise
        counts["built"] += floats(a, b, c)

    def counted_holds(a, b, c):
        counts["g2"] += floats(a, b, c)  # the constructor's test is exact only
        return holds(a, b, c)

    def counted_defect(*cols):
        counts["sweeps"] += 1
        return defect(*cols)

    monkeypatch.setattr(TrialityTriple, "__init__", counted_init)
    monkeypatch.setattr(triality, "_triality_holds", counted_holds)
    monkeypatch.setattr(triality, "_triality_defect", counted_defect)
    out = str(tmp_path / "rep.json")
    assert run(capsys, "verify-all", "--backend", "float", "--trials", "2", "--out", out)[0] == 0
    assert counts["sweeps"] == counts["built"] + counts["refused"] + counts["g2"]
    assert counts == {"built": 381, "refused": 1, "g2": 2, "sweeps": 384}


def test_float_matrices_hold_floats_only(tmp_path, capsys, monkeypatch):
    # triality._triality_defect drops the 0.0 start of its lines on the
    # precondition that every operand is a float, never the int 0 that float
    # octonion forms may hold: every float matrix a float run builds holds
    # floats only, and so does every column set the sweep reads
    from spin8 import triality
    from spin8.linalg import Matrix

    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    made, swept = [], []
    of_floats, defect = Matrix._of_floats, triality._triality_defect

    def checked_of_floats(cls, eps, rows, **kw):
        made.append(all(type(x) is float for r in rows for x in r))
        return of_floats(eps, rows, **kw)

    def checked_defect(*cols):
        swept.append(all(type(x) is float for m in cols for c in m for x in c))
        return defect(*cols)

    monkeypatch.setattr(Matrix, "_of_floats", classmethod(checked_of_floats))
    monkeypatch.setattr(triality, "_triality_defect", checked_defect)
    out = str(tmp_path / "rep.json")
    for args in (["verify-all", "--backend", "float", "--trials", "2"],
                 ["antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--backend", "float",
                  "--trials", "2"]):
        del made[:], swept[:]
        assert run(capsys, *args, "--out", out)[0] == 0
        assert made and all(made), args
        assert swept and all(swept), args


def test_proved_sign_threshold_keeps_every_verdict(tmp_path, capsys, monkeypatch):
    # linalg._SIGN_EPS at 0 runs the LU on every float verdict.  The reports
    # read the same with and without it: the seed-0 float battery, and
    # --trials 3 at eps 1/64 and at the next float above.  Above 1/64 the LU
    # runs wherever the Gram test passes, as it does at _SIGN_EPS 0.
    from spin8 import linalg
    from spin8.triality import TrialityTriple

    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    counts = {"gram": 0, "lus": 0}
    verdict, det = linalg._so8_verdict, linalg._det_float

    def counted_verdict(m):
        counts["gram"] += linalg.is_orthogonal(m)
        return verdict(m)

    def counted_det(rows):
        counts["lus"] += 1
        return det(rows)

    monkeypatch.setattr(linalg, "_so8_verdict", counted_verdict)
    monkeypatch.setattr(linalg, "_det_float", counted_det)
    out = tmp_path / "rep.json"
    proved, edge, above = linalg._SIGN_EPS, 1 / 64, math.nextafter(1 / 64, 1)
    for args, eps in [(["--trials", "100", "--seed", "0"], 1e-9),
                      (["--trials", "3", "--eps", repr(edge)], edge),
                      (["--trials", "3", "--eps", repr(above)], above)]:
        runs = []
        for sign_eps in (proved, 0.0):
            monkeypatch.setattr(linalg, "_SIGN_EPS", sign_eps)
            monkeypatch.setattr(TrialityTriple, "_cached_identity", None)
            counts.update(gram=0, lus=0)
            code, _, _ = run(capsys, "verify-all", "--backend", "float", *args,
                             "--out", str(out))
            runs.append((code, out.read_bytes(), dict(counts)))
        (code, report, mine), (code0, report0, lu_everywhere) = runs
        assert (code, report) == (code0, report0), args
        assert lu_everywhere["lus"] == lu_everywhere["gram"] == mine["gram"] > 0
        assert (mine["lus"] == mine["gram"]) is (eps > 1 / 64), args


_HOSTILE_EPS = ["1e-17", "1e-16", "2e-16", "3e-16", "5e-16", "1e-15", "1e-14", "1e-12",
                "0.3", "0.5", "0.65", "1", "1.5", "2", "5", "1e308"]
_SWEEP = [["antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--trials", "5"],
          ["antipodal", "[0,1,0,0,0,0,0,0]", "--trials", "5"],
          ["verify-all", "--trials", "2"]]


def test_hostile_eps_sweep(tmp_path, capsys, monkeypatch):
    # every float run from below an ulp to 1e308 keeps the exit-code
    # contract; the exit codes, report bytes and last stderr lines are pinned
    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    out = tmp_path / "rep.json"
    h, codes = hashlib.sha256(), []
    for args in _SWEEP:
        codes.append("")
        for eps in _HOSTILE_EPS:
            code, _, err = run(capsys, *args, "--backend", "float", "--eps", eps,
                               "--out", str(out))
            assert "Traceback" not in err
            codes[-1] += str(code)
            # a failure raised outside run_check writes no report
            h.update(out.read_bytes() if out.exists() else b"")
            h.update(err.splitlines()[-1].encode() + b"\n")
            out.unlink(missing_ok=True)
    # one digit per eps, in _HOSTILE_EPS order
    assert codes == ["1111000000001111", "1111100000001111", "1111110000011111"]
    assert h.hexdigest() == \
        "1cc8862c096f65faa1184c5f70a6c6ee9cc9350151cd69b425c7fd131f9507a6"


@pytest.mark.parametrize("row, accepted, total, extra", [(5, True, 4, 1), (0, False, 2, 0)],
                         ids=["random-row-accepted", "closed-form-row-rejected"])
def test_failing_scan_counts_only_extra_acceptances(tmp_path, capsys, monkeypatch,
                                                   row, accepted, total, extra):
    # a failing scan counts the accepted candidates that are none of o, p
    # and q: a random row forced to accepted is one extra, and a closed-form
    # row forced to rejected leaves two accepted points and no extra
    def scan(*args, real=symspace.maximality_scan):
        rows = real(*args)
        rows[row] = rows[row]._replace(accepted=accepted)
        return rows

    monkeypatch.setattr(symspace, "maximality_scan", scan)
    out = tmp_path / "rep.json"
    for backend in ("exact", "float"):
        code, _, err = run(capsys, "antipodal", "[0,3/5,4/5,0,0,0,0,0]",
                           "--backend", backend, "--trials", "5", "--out", str(out))
        assert code == 1 and err.startswith(f"FAIL antipodal [{backend}] ")
        scan_report = json.loads(out.read_text())["antipodal"][0]["maximality"]
        assert scan_report["accepted"] == total
        assert scan_report["extra_acceptances"] == extra


@pytest.mark.parametrize("command", ["fixset", "antipodal"])
@pytest.mark.parametrize("literal", ["[0,0,0,0,0,0,0,0]", "[0,-0.0,0,0,0,0,0,0]"])
@pytest.mark.parametrize("eps", ["0.5", "2", "1e308"])
def test_the_zero_vector_is_no_unit_at_any_eps(capsys, command, literal, eps):
    # |0|^2 = 0 is within eps of 1 once eps >= 1, yet the zero vector is no
    # unit imaginary octonion: a usage error, not a vacuous pass
    code, out, err = run(capsys, command, literal, "--backend", "float", "--eps", eps)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_a_float_run_has_one_tolerance(tmp_path, capsys, monkeypatch):
    # every float form and float scalar a run builds carries the run's --eps:
    # the tolerance a float octonion's norms and translations read off its
    # form is the only one there is
    from spin8.linalg import Matrix
    from spin8.octonion import Octonion
    from spin8.scalars import ApproxReal

    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    seen = []

    def record(cls, name, at):  # eps is argument `at` of cls.name
        real = getattr(cls, name).__func__

        def build(cls, *args, **kwargs):
            seen.append(args[at])
            return real(cls, *args, **kwargs)
        monkeypatch.setattr(cls, name, classmethod(build))

    def init(self, value, eps=1e-9, real=ApproxReal.__init__):
        seen.append(eps)
        real(self, value, eps)

    record(Octonion, "_of_floats", 0)
    record(Matrix, "_of_floats", 0)
    record(ApproxReal, "_fast", 1)
    monkeypatch.setattr(ApproxReal, "__init__", init)
    out = str(tmp_path / "rep.json")
    for args in (["verify-all", "--trials", "5"],
                 ["antipodal", "[0,3/5,4/5,0,0,0,0,0]"],
                 ["fixset", "[0,0.6,0,0.8,0,0,0,0]"]):
        seen.clear()
        assert run(capsys, *args, "--backend", "float", "--eps", "1e-7", "--out", out)[0] == 0
        assert seen and set(seen) == {1e-7}, args


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command", ["antipodal", "fixset"])
def test_sections_do_not_depend_on_workers(tmp_path, capsys, monkeypatch, command):
    # one job per backend: with 1 CPU both sections run here, one after the
    # other; with 2 or 4 a worker runs one antipodal section.  Passing sections,
    # failed checks (exit 1) and literals that are no unit at that eps
    # (exit 2) alike give the same report bytes, stderr and exit code.
    for literal in ("[0,3/5,4/5,0,0,0,0,0]", "[0,1/2,1/2*r3,0,0,0,0,0]",
                    "[0,0.6,-0.0,-0.8,0,0,0,0]"):
        for eps in ("1e-9", "1e-16", "1e-20"):
            seen = set()
            for cpus in (1, 2, 4):
                monkeypatch.setattr(checks, "_cpus", lambda: cpus)
                out = tmp_path / f"{cpus}.json"
                code = main([command, literal, "--backend", "both", "--eps", eps,
                             "--trials", "4", "--out", str(out)])
                report = out.read_bytes() if out.exists() else None
                seen.add((code, report, capsys.readouterr().err))
                assert_no_children()
            assert len(seen) == 1, (literal, eps)


def test_fixset_forks_nothing(capsys, monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(checks, "_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", refuse)
    code, _, err = run(capsys, "fixset", "[0,3/5,4/5,0,0,0,0,0]", "--backend", "both")
    assert code == 0
    assert err.count("PASS fixset") == 2


def test_a_failed_section_is_raised_after_the_lines_before_it(capsys):
    # the float section fails its SO(8) test at eps 1e-20, whichever process
    # ran it: the exact section's line comes first, as run one after another
    code, out, err = run(capsys, "antipodal", "[0,3/5,4/5,0,0,0,0,0]",
                         "--backend", "both", "--eps", "1e-20")
    assert code == 1
    assert out == ""
    assert err == ("PASS antipodal [exact] accepted=3 of 103 candidates\n"
                   "error: NotOrthogonal: component C is not in SO(8)\n")
    assert_no_children()


@pytest.mark.parametrize("command", ["antipodal", "fixset"])
def test_v_is_read_on_every_backend_before_any_work(capsys, monkeypatch, command):
    # a unit imaginary in exact arithmetic that is none in floats at eps
    # 1e-20: a usage error before the exact section runs, so no PASS line
    def refuse(*a, **kw):
        raise AssertionError("a section started before v was read on every backend")

    for name in ("antipodal_set", "fix_tau_point"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, command, "[0,2/7,3/7,6/7,0,0,0,0]",
                         "--eps", "1e-20", "--trials", "1000")
    assert code == 2
    assert out == ""
    assert err == "error: expected a unit octonion with zero e1 component\n"
    assert_no_children()


def test_determinism_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify-all", "--trials", "2", "--seed", "9", "--out", str(a)]) == 0
    capsys.readouterr()
    assert main(["verify-all", "--trials", "2", "--seed", "9", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["verify-all", "--trials", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["verify-all"],
    ["fixset", "[0,1,0,0,0,0,0,0]"],
    ["antipodal", "[0,1,0,0,0,0,0,0]"],
    ["kai"],
    ["table"],
])
def test_trials_beyond_the_bound_fail_before_any_work(tmp_path, capsys, monkeypatch, args):
    def refuse(*a, **kw):
        raise AssertionError("work started before --trials was checked")

    for name in ("run_checks", "antipodal_set", "fix_tau_point", "table_rows", "_probe"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "rep.json"
    code, stdout, err = run(capsys, *args, "--trials", "100001", "--out", str(out))
    assert (code, stdout, err) == (2, "", "error: trials must be <= 100000\n")
    assert not out.exists()
    assert RunConfig(trials=100000).trials == 100000


_OUT = {"file": "{tmp}/rep.json", "empty": "", "missing": "{tmp}/missing/rep.json"}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["verify-all", "fixset", "antipodal", "kai", "table"]),
       literal=st.one_of(
           st.text(),
           st.sampled_from(["[0,1,0,0,0,0,0,0]", "[0,3/5,4/5,0,0,0,0,0]",
                            "[0,0.6,-0.0,-0.8,0,0,0,0]", "[0,1/3,2/3,2/3,0,0,0,0]"]),
           st.lists(st.sampled_from(["0", "1", "-1", "3/5", "4/5", "1/0", "r3",
                                     "nan", "inf", "1e-3", "1e400", "x", "",
                                     "_", "1_0", "1E5_0", "\u0663/5", "2.5E-3",
                                     " 1/2 ", "1/2 * r3", "4 /5", "9" * 5000]),
                    min_size=7, max_size=9).map(lambda xs: f"[{','.join(xs)}]"),
       ),
       seed=st.one_of(st.none(), st.integers(-2**70, -1), st.integers(2**64, 2**80)),
       # runnable trials stay at 1 or 2, so that an example takes at most 0.1 s
       trials=st.one_of(st.integers(-2**70, 0), st.integers(1, 2),
                        st.integers(checks.MAX_TRIALS + 1, 2**70)),
       eps=st.sampled_from([None, "1e-9", "1e-16", "1e-20", "nan", "inf", "-0.0",
                            "5e-324", "1e308"]),
       backend=st.sampled_from(["exact", "float", "both"]),
       out=st.sampled_from([None, *_OUT]))
def test_any_literal_keeps_the_exit_code_contract(tmp_path, capsys, command, literal, seed,
                                                  trials, eps, backend, out):
    # exit 0 pass, 1 check failed, 2 usage or parse error with an error line;
    # never a traceback; and every command line finishes in at most 5 s (the
    # slowest drawn, verify-all --backend both --trials 2, takes under 0.2 s
    # on 2 cores)
    argv = [command] + ([literal] if command in ("fixset", "antipodal") else [])
    argv += ["--trials", str(trials), "--backend", backend]
    argv += [] if seed is None else ["--seed", str(seed)]
    argv += [] if eps is None else ["--eps", eps]
    argv += [] if out is None else ["--out", _OUT[out].format(tmp=tmp_path)]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    _, err = capsys.readouterr()
    assert elapsed <= 5.0, (argv, elapsed)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert code != 2 or "error:" in err
    if not (1 <= trials <= 2 and out in (None, "file") and eps not in ("nan", "inf", "-0.0")):
        assert code == 2
        return
    if command not in ("fixset", "antipodal"):
        assert code != 2
        return
    # 2 exactly when the literal is not a unit imaginary octonion at that eps
    # on every backend (argparse reads a leading "-" as an option)
    try:
        for parsing in RunConfig(backend=backend, eps=float(eps or "1e-9")).backends():
            ensure_imaginary_unit(parse_octonion(literal, parsing))
        valid = True
    except (ParseError, NotImaginaryUnit):
        valid = False
    assert (code == 2) == (not valid) or literal.startswith("-")


# JSON trees as reports could hold them, and as json.dumps writes them
_report_text = st.one_of(
    st.text(),
    # lone surrogates, control characters, non-ASCII letters, quotes, backslashes
    st.text(st.characters(categories=["Cs", "Cc", "Lo", "Po"])),
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "é \U0001f600", "\ud800"]),
)
_report_values = st.recursive(
    st.none() | st.booleans() | _report_text
    | st.integers() | st.integers(-2**200, 2**200)
    | st.floats() | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308,
                                      float("nan"), float("inf"), float("-inf")]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_report_text, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(tree=_report_values, depth=st.integers(0, 6))
def test_the_writer_is_json_dumps(tree, depth):
    text = json.dumps(tree, indent=2, sort_keys=True)
    assert cli._render(tree) == text
    # at a depth, every line moves in by the indent (json escapes newlines
    # inside strings)
    ind = "\n" + " " * depth
    assert cli._render(tree, ind) == text.replace("\n", ind)
    assert cli._render([cli._Rendered(cli._render(tree, "\n  "))]) == json.dumps(
        [tree], indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [(1, 2), {1: "a"}, {"a": [{(): 0}]}, object(),
                                   [b"bytes"], {"a": {1.5}}])
def test_the_writer_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        cli._render(value)


@pytest.mark.parametrize("literal,backend,eps,accepted", [
    ("[0,3/5,4/5,0,0,0,0,0]", "exact", 1e-9, 3),
    ("[0,3/5,4/5,0,0,0,0,0]", "float", 1e-9, 3),
    ("[0,0.6,-0.0,-0.8,0,0,0,0]", "float", 1e-9, 3),  # int 0 and -0.0 entries
    ("[0,3/5,4/5,0,0,0,0,0]", "float", 1.0, 70),  # rows carry true and false
])
def test_the_row_template_is_the_writer(literal, backend, eps, accepted):
    import random

    from spin8.checks import derive_seed
    from spin8.octonion import format_octonion
    from spin8.symspace import maximality_scan

    (parsing,) = RunConfig(backend=backend, eps=eps).backends()
    v = parse_octonion(literal, parsing)
    rng = random.Random(derive_seed(0, "antipodal-cmd", parsing.name))
    rows = maximality_scan(v, 100, rng)
    assert sum(r.accepted for r in rows) == accepted
    dicts = [{"t": format_octonion(r.t), "candidate": r.candidate.to_json(),
              "accepted": r.accepted, "residual": r.residual} for r in rows]
    for ind in ("\n", cli._SECTION + "    "):
        assert cli._render(cli._candidates(rows, ind), ind) == cli._render(dicts, ind)


def test_no_run_reaches_the_stdlib_encoder(tmp_path, capsys, monkeypatch):
    # every report goes through cli._render; json.dumps with an indent would
    # walk the report in json's pure-Python encoder
    import json.encoder

    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(json, "dumps", refuse("json.dumps"))
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse("_make_iterencode"))
    monkeypatch.setattr(json.JSONEncoder, "encode", refuse("JSONEncoder.encode"))
    out = str(tmp_path / "rep.json")
    for args in (["verify-all", "--trials", "2", "--backend", "both"],
                 ["antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--trials", "20"],
                 ["fixset", "[0,1,0,0,0,0,0,0]"],
                 ["table"]):
        assert run(capsys, *args, "--out", out)[0] == 0
    assert not calls


# What perfbench reads of the package: child.py's set-up sample imports spin8
# and calls spin8.TrialityTriple.identity(), micro.py imports its operands'
# names, and tracer.install wraps every layer boundary by name.  A missing
# wrap target makes a traced run report correct: false.
_PERFBENCH_CONTRACT = """
import sys
import spin8
spin8.TrialityTriple.identity()
sys.path.insert(0, sys.argv[1])
import micro
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
print(tracer.missing)
"""


def test_perfbench_finds_every_name_it_reads():
    # a subprocess, since install patches the spin8 modules for good
    import subprocess

    import spin8

    src = os.path.dirname(os.path.dirname(spin8.__file__))
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    done = subprocess.run([sys.executable, "-c", _PERFBENCH_CONTRACT, perfbench],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("name", ["exact-battery", "float-battery", "antipodal-scan"])
def test_perfbench_seed_0_reports_match_their_goldens(tmp_path, capsys, monkeypatch, name):
    # perfbench holds each workload's seed-0 report to the SHA-256 in
    # perfbench/golden/; a byte drift fails here, not first as a benchmark
    # pass_frac below 1.  run.py is loaded for its WORKLOADS, never run.
    import importlib.util

    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
    monkeypatch.syspath_prepend(bench)  # run.py imports its sibling check.py
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(bench, "run.py"))
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    sys.modules.pop("check", None)
    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    out = tmp_path / "rep.json"
    assert run(capsys, *run_py.WORKLOADS[name].argv(0, out))[0] == 0
    with open(os.path.join(bench, "golden", f"{name}.digest.json")) as f:
        golden = json.load(f)["sha256"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden


def test_readme_cli_block_matches_the_parser():
    # README's "## CLI" block names exactly the parser's subcommands; each
    # example without bracketed options parses, and each bracketed option is
    # one its subcommand takes.  Nothing runs.
    import argparse
    import re
    import shlex

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        block = f.read().split("\n## CLI\n", 1)[1].split("```")[1]
    parser = cli.build_parser()
    subs = next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    lines = [line for line in block.splitlines() if line.strip()]
    argvs = [shlex.split(line, comments=True) for line in lines]
    assert all(argv[0] == "spin8" for argv in argvs)
    assert {argv[1] for argv in argvs} == set(subs)
    for line, argv in zip(lines, argvs):
        if "[--" in line:
            taken = {o for a in subs[argv[1]]._actions for o in a.option_strings}
            assert set(re.findall(r"\[(--[\w-]+)", line)) <= taken, line
        else:
            assert parser.parse_args(argv[1:]).command == argv[1], line

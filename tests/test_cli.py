import hashlib
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import spin8.checks as checks
import spin8.cli as cli
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
    # float() alone reads "1_0e-1" as 1.0 and "1E5_0" as 1e50
    for entry in ("1_0e-1", "1E5_0"):
        for backend in ("exact", "float", "both"):
            code, out, err = run(capsys, "fixset", f"[0,{entry},0,0,0,0,0,0]",
                                 "--backend", backend)
            assert code == 2, (entry, backend)
            assert out == ""
            assert err == f"error: bad scalar literal {entry!r}\n"


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
    for out in (tmp_path / "missing" / "rep.json", tmp_path):
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

    for name in ("run_checks", "maximality_scan", "fix_tau_point"):
        monkeypatch.setattr(cli, name, refuse)
    for out in (tmp_path / "missing" / "rep.json", tmp_path):
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


# SHA-256 of reports taken before the octonions computed on kernel forms.
# The float cases pin the exact 0 that cube_root_of_unity (and conj) leave
# in a zero coordinate, printed "0", against the "0.0" and "-0.0" of parsed
# float coordinates.
REPORT_DIGESTS = [
    (["antipodal", "[0,3/5,4/5,0,0,0,0,0]", "--backend", "both", "--trials", "20"],
     "31b6cda902d8b6ac0f103a769b30430cba423c193b9f1399da06fb1cc4ab1d47"),
    (["antipodal", "[0,0.6,-0.0,-0.8,0,0,0,0]", "--backend", "both", "--trials", "5"],
     "22384a0a28aeb4fbbfecbd8e7796b5e3499f4c9581523f9feaa6369e68731b52"),
    (["fixset", "[0,1,0,0,0,0,0,0]", "--backend", "both"],
     "e6571f2c99fcdedf6ab8cde80f0a790e4fe230370f44276b5f2ad6f51eac7d3c"),
    (["fixset", "[0,0.6,-0.0,-0.8,0,0,0,0]", "--backend", "both"],
     "4a6c2184ef7dd3d29c6d5cb16b6e1e93bc031b2b055e759a47c09eae96f8bbe3"),
]


@pytest.mark.parametrize("args,digest", REPORT_DIGESTS)
def test_report_bytes(tmp_path, capsys, args, digest):
    out = tmp_path / "rep.json"
    code, _, _ = run(capsys, *args, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["fixset", "antipodal"]),
       backend=st.sampled_from(["exact", "float"]),
       eps=st.sampled_from(["1e-9", "1e-16", "1e-20"]),
       literal=st.one_of(
           st.text(),
           st.sampled_from(["[0,1,0,0,0,0,0,0]", "[0,3/5,4/5,0,0,0,0,0]",
                            "[0,0.6,-0.0,-0.8,0,0,0,0]", "[0,1/3,2/3,2/3,0,0,0,0]"]),
           st.lists(st.sampled_from(["0", "1", "-1", "3/5", "4/5", "1/0", "r3",
                                     "nan", "inf", "1e-3", "1e400", "x", "",
                                     "_", "1_0", "1E5_0"]),
                    min_size=7, max_size=9).map(lambda xs: f"[{','.join(xs)}]"),
       ))
def test_any_literal_keeps_the_exit_code_contract(capsys, command, backend, eps, literal):
    # exit 0 pass, 1 check failed, 2 usage or parse error; never a traceback
    code = main([command, literal, "--trials", "1", "--backend", backend, "--eps", eps])
    _, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # 2 exactly when the literal is not a unit imaginary octonion at that eps
    # (argparse reads a leading "-" as an option)
    (parsing,) = RunConfig(backend=backend, eps=float(eps)).backends()
    try:
        ensure_imaginary_unit(parse_octonion(literal, parsing))
        valid = True
    except (ParseError, NotImaginaryUnit):
        valid = False
    assert (code == 2) == (not valid) or literal.startswith("-")

import ast
import inspect
import math
import os
import pickle
import select
import subprocess
import sys
import time
from functools import partial

import spin8.checks as checks
from spin8.checks import (
    CHECKS,
    CheckResult,
    Judge,
    RunConfig,
    _dispatch_order,
    _run_jobs,
    derive_seed,
    residual,
    run_check,
    run_checks,
)
from spin8.cli import main
from spin8.linalg import Matrix
from spin8.octonion import Octonion
from spin8.scalars import EXACT, ApproxReal, CheckFailed, Rational
from spin8.triality import TrialityViolated

import pytest


def test_check_names_unique():
    names = [c.name for c in CHECKS]
    assert len(names) == len(set(names)) == 13


def test_battery_passes_at_small_trials():
    cfg = RunConfig(seed=7, trials=4)
    results = run_checks(cfg)
    assert len(results) == 26
    assert all(r.passed for r in results)
    # exact rows report exactly zero residual
    for r in results:
        if r.backend == "exact":
            assert r.max_residual == 0.0
        else:
            assert r.max_residual <= 1e-9


def test_derive_seed_is_stable_and_distinct():
    s1 = derive_seed(0, "kai-property", "exact")
    assert s1 == derive_seed(0, "kai-property", "exact")
    assert s1 != derive_seed(0, "kai-property", "float")
    assert s1 != derive_seed(1, "kai-property", "exact")


def test_run_check_determinism():
    cfg = RunConfig(seed=3, trials=3)
    a = run_check(CHECKS[0], cfg, EXACT)
    b = run_check(CHECKS[0], cfg, EXACT)
    assert a == b


def test_residual_dispatch():
    assert residual(Rational(1, 2), Rational(1, 2)) == 0.0
    assert residual(ApproxReal(1.0, 1e-9), ApproxReal(1.5, 1e-9)) == 0.5
    assert residual(Octonion.basis(1), Octonion.basis(2)) == 1.0
    assert residual(Matrix.identity(2), Matrix([[0, 0], [0, 0]])) == 1.0


def test_judge():
    j = Judge()
    assert j.eq(1, 1)
    assert j.ok and j.max_residual == 0.0
    assert not j.eq(ApproxReal(0.0, 1e-9), ApproxReal(0.5, 1e-9))
    assert not j.ok
    assert j.max_residual == 0.5


def test_judge_differ():
    j = Judge()
    assert j.differ(ApproxReal(0.0, 1e-9), ApproxReal(0.5, 1e-9))
    assert j.ok and j.max_residual == 0.0
    # values equal at the backend's tolerance do not differ
    assert not j.differ(ApproxReal(0.0, 1e-3), ApproxReal(1e-4, 1e-3))
    assert not j.ok
    assert j.max_residual == 0.0  # a control records no residual


def test_judge_refuses():
    def raises(exc, *args):
        raise exc(*args)

    j = Judge()
    assert j.refuses(TrialityViolated, raises, TrialityViolated, (0, 1), 0.5)
    assert j.ok and j.max_residual == 0.0
    # a call that returns is not refused, and the residual stays unset
    assert not j.refuses(TrialityViolated, lambda: None)
    assert not j.ok
    assert j.max_residual == 0.0
    # an error of another type is no refusal: it propagates to run_check
    j = Judge()
    with pytest.raises(ZeroDivisionError):
        j.refuses(TrialityViolated, raises, ZeroDivisionError)
    assert j.ok


# The (check, backend) rows that state at least one control, a
# Judge.differ or Judge.refuses call, at --trials 1.  This set may only
# grow: a check that gains a control is added here, and none is removed
# (ROADMAP item 1, "Guard").
CONTROL_ROWS = {
    (name, backend)
    for name in ("octonion-axioms", "left-translation-sandwich", "clifford-embedding",
                 "tau-order-three", "sigma-involution", "s3-relations", "g2-fixed-group",
                 "isotropy-at-base", "sphere-descent", "fixed-sets", "kai-property")
    for backend in ("exact", "float")
} | {("triality-closure", "exact")}


def test_controls_only_grow(monkeypatch):
    monkeypatch.setattr(checks, "_cpus", lambda: 1)  # every job in this process
    row, rows = [None], set()

    def running(check, cfg, backend, real=checks.run_check):
        row[0] = (check.name, backend.name)
        return real(check, cfg, backend)

    def stated(verb):
        real = getattr(Judge, verb)
        return lambda self, *args: rows.add(row[0]) or real(self, *args)

    monkeypatch.setattr(checks, "run_check", running)
    for verb in ("differ", "refuses"):
        monkeypatch.setattr(Judge, verb, stated(verb))
    results = run_checks(RunConfig(trials=1))
    assert len(results) == 26 and all(r.passed for r in results)
    assert rows == CONTROL_ROWS


def test_checks_state_controls_only_through_the_verbs():
    # no control is written by hand: no expect(False), no expect(not ...),
    # and no handler that passes over what it catches
    tree = ast.parse(inspect.getsource(checks))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "expect":
            arg = node.args[0]
            assert not (isinstance(arg, ast.Constant) and arg.value is False), node.lineno
            assert not (isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.Not)), \
                node.lineno
        if isinstance(node, ast.ExceptHandler):
            assert not all(isinstance(b, ast.Pass) for b in node.body), node.lineno


def test_antipodal_verdicts_are_decided_in_symspace():
    # the sigma swap is decided once, in certify_antipodal, and maximality
    # once, in maximality_verdict: the check reaches both through
    # antipodal_set, and the command calls them itself.  The callers use
    # nothing else that symspace defines (no sigma_sphere, no SpherePoint)
    # and compare no two computed values, only a value with a literal
    import spin8.cli as cli
    import spin8.symspace as symspace

    defined = {name for name, obj in vars(symspace).items()
               if getattr(obj, "__module__", None) == symspace.__name__}
    verdicts = {"certify_antipodal", "maximality_scan", "maximality_verdict"}
    assert verdicts | {"antipodal_set", "sigma_sphere"} <= defined
    callers = {(symspace, "antipodal_set"): verdicts | {"AntipodalSet"},
               (checks, "_check_antipodal"): {"antipodal_set"},
               (cli, "_antipodal_part"): {"certify_antipodal", "maximality_scan"},
               (cli, "_antipodal_sections"): {"maximality_verdict"}}
    for (module, name), want in callers.items():
        tree = ast.parse(inspect.getsource(getattr(module, name)))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert used & defined == want, name
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                assert any(isinstance(x, ast.Constant) for x in operands), \
                    (name, ast.unparse(node))


def test_hostile_tolerance_fails_cleanly():
    cfg = RunConfig(seed=0, trials=2, eps=1e-30, backend="float")
    results = run_checks(cfg, names=["tau-order-three"])
    assert len(results) == 1
    assert results[0].status == "fail"


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    for eps in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            RunConfig(eps=eps)
    with pytest.raises(ValueError):
        RunConfig(backend="quantum")
    assert [b.name for b in RunConfig(backend="both").backends()] == ["exact", "float"]


def test_config_is_a_validated_value():
    cfg = RunConfig(seed=3, trials=2, eps=1e-6, backend="float")
    assert cfg == RunConfig(3, 2, 1e-6, "float") and cfg != RunConfig(seed=3, trials=2)
    assert hash(cfg) == hash(RunConfig(3, 2, 1e-6, "float"))
    assert cfg._asdict() == {"seed": 3, "trials": 2, "eps": 1e-6, "backend": "float"}
    again = pickle.loads(pickle.dumps(cfg))
    assert again == cfg and type(again) is RunConfig
    # loading calls __new__, so a config that skipped the validation
    # cannot come back through pickle
    unchecked = tuple.__new__(RunConfig, (3, 0, 1e-6, "float"))
    with pytest.raises(ValueError, match="trials"):
        pickle.loads(pickle.dumps(unchecked))


def test_subset_selection():
    cfg = RunConfig(seed=1, trials=2, backend="exact")
    results = run_checks(cfg, names=["octonion-axioms", "fixed-sets"])
    assert [r.name for r in results] == ["octonion-axioms", "fixed-sets"]


def test_result_dict_shape():
    cfg = RunConfig(seed=1, trials=2, backend="exact")
    r = run_checks(cfg, names=["fixed-sets"])[0]
    d = r._asdict()
    assert set(d) == {"name", "claim", "backend", "status", "max_residual",
                      "trials", "seed"}
    assert isinstance(r, CheckResult)


# --- the runner: jobs shared between this process and forked workers ---------

def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_and_report_bytes_do_not_depend_on_workers_or_order(
        tmp_path, capsys, monkeypatch):
    cfg = RunConfig(seed=11, trials=1)
    pairs = [(c, b) for c in CHECKS for b in cfg.backends()]
    serial = [run_check(c, cfg, b) for c, b in pairs]
    jobs = [partial(run_check, c, cfg, b) for c, b in pairs]
    order = _dispatch_order(pairs)
    # every check in the measured order, longest first, each on both
    # backends in report order
    heaviest = ["kai-property", "triality-closure", "s3-relations", "antipodal-triple",
                "tau-order-three", "sigma-involution", "clifford-embedding",
                "g2-fixed-group", "octonion-axioms", "sphere-descent", "isotropy-at-base",
                "left-translation-sandwich", "fixed-sets"]
    assert sorted(heaviest) == sorted(c.name for c in CHECKS)
    assert [(pairs[i][0].name, pairs[i][1].name) for i in order] == [
        (name, b) for name in heaviest for b in ("exact", "float")]
    assert sorted(order) == list(range(len(jobs)))
    for workers in (0, 1, 3):
        for o in (order, order[::-1]):
            assert _run_jobs(jobs, o, workers=workers) == serial
    # any zero-argument callable is a job; None is a result like any other
    assert _run_jobs([lambda: None, os.getpid], workers=1)[0] is None
    reports = set()
    for cpus in (1, 2, 4):  # 0, 1 and 3 workers
        for reverse in (False, True):
            monkeypatch.setattr(checks, "_cpus", lambda: cpus)
            monkeypatch.setattr(checks, "_dispatch_order",
                                lambda js: _dispatch_order(js)[::-1 if reverse else 1])
            out = tmp_path / "rep.json"
            assert main(["verify-all", "--trials", "1", "--seed", "11",
                         "--out", str(out)]) == 0
            reports.add(out.read_bytes())
    capsys.readouterr()
    assert len(reports) == 1
    assert_no_children()


def in_a_worker(parent, worker_job):
    """A job that runs `worker_job` in a worker; in the parent it waits
    (at most 30 s) until a worker has taken a job, so a worker surely does."""
    r, w = os.pipe()

    def run():
        if os.getpid() != parent:
            os.write(w, b"x")
            worker_job()
        else:
            select.select([r], [], [], 30)
        return "done"

    return run, (r, w)


class PicklableError(Exception):  # module level, so it pickles
    pass


class TwoArgs(Exception):  # pickles, but its args do not fit __init__
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def unpicklable_error():
    class Unpicklable(Exception):  # a local class does not pickle
        pass
    return Unpicklable("text")


def _raise(exc):
    def job():
        raise exc
    return job


@pytest.mark.parametrize("job,kind,message", [
    (_raise(RuntimeError("boom in a worker")), RuntimeError, "^boom in a worker$"),
    (_raise(PicklableError("picklable")), PicklableError, "^picklable$"),
    (_raise(KeyboardInterrupt()), KeyboardInterrupt, None),
    # the type's name and the text survive where the error does not pickle
    (_raise(unpicklable_error()), RuntimeError, "^Unpicklable: text$"),
    # ... and where it pickles but does not load again
    (_raise(TwoArgs(1, 2)), RuntimeError, "^TwoArgs: 1 and 2$"),
    (lambda: os._exit(3), RuntimeError, "ended without a result.*exit code 3"),
])
def test_worker_errors_are_raised_in_the_parent(job, kind, message):
    run, fds = in_a_worker(os.getpid(), job)
    try:
        with pytest.raises(kind, match=message):
            _run_jobs([run] * 2, [0, 1], workers=1)
    finally:
        for fd in fds:
            os.close(fd)
    assert_no_children()


def test_interrupt_in_the_parent_kills_and_reaps_workers():
    parent = os.getpid()

    def run():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # each worker holds one job, so the parent gets one
        return "done"

    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run_jobs([run] * 3, [0, 1, 2], workers=2)
    assert time.monotonic() - t0 < 30
    assert_no_children()


def test_forks_only_when_jobs_can_share(monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(checks, "_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", refuse)
    cfg = RunConfig(seed=1, trials=1, backend="float")
    (single,) = run_checks(cfg, names=["fixed-sets"])
    assert single.passed
    # where the system refuses a fork, or has none, the jobs run here
    def out_of_processes():
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(os, "fork", out_of_processes)
    both = run_checks(RunConfig(seed=1, trials=1), names=["fixed-sets"])
    assert [r.backend for r in both] == ["exact", "float"]
    assert both[1] == single
    monkeypatch.delattr(os, "fork")
    assert run_checks(RunConfig(seed=1, trials=1), names=["fixed-sets"]) == both


def test_check_failures_survive_a_worker():
    # a section run by a worker returns the failure it caught, pickled
    kinds, pending = [], [CheckFailed]
    while pending:
        kinds.append(pending.pop())
        pending.extend(kinds[-1].__subclasses__())
    assert len(kinds) == 7  # CheckFailed and the six failures built on it
    failures = [kind("text") for kind in kinds if kind is not TrialityViolated]
    for exc in [TrialityViolated((1, 2), 0.5), *failures]:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert back.residual == exc.residual


def test_every_failure_is_a_check_failed():
    # exit 1 has one root type, CheckFailed, and exit 2 one, ParseError: every
    # exception class spin8 defines is one of them or DimensionMismatch (a
    # shape error in the code itself); no handler names a tuple of failure
    # classes, and ZeroDivisionError is named once, where _parse_exact turns
    # a zero denominator into a ParseError
    import builtins
    import importlib
    import pkgutil

    import spin8

    zero_division, mentions = [], 0
    for info in pkgutil.iter_modules(spin8.__path__):
        module = importlib.import_module(f"spin8.{info.name}")
        source = inspect.getsource(module)
        mentions += source.count("ZeroDivisionError")
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException):
                    assert issubclass(cls, CheckFailed) or node.name in (
                        "ParseError", "DimensionMismatch"), node.name
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = (node.type.elts if isinstance(node.type, ast.Tuple)
                         else [node.type])
                # a local name, such as the exc of Judge.refuses, reads None
                caught = [getattr(module, n.id, getattr(builtins, n.id, None))
                          for n in named]
                assert not any(isinstance(c, tuple) for c in caught), ast.unparse(node.type)
                assert len(caught) == 1 or not any(
                    isinstance(c, type) and issubclass(c, (CheckFailed, ZeroDivisionError))
                    for c in caught), ast.unparse(node.type)
            if isinstance(node, ast.FunctionDef):
                zero_division += [
                    (info.name, node.name) for h in ast.walk(node)
                    if isinstance(h, ast.ExceptHandler)
                    and getattr(h.type, "id", None) == "ZeroDivisionError"]
    assert zero_division == [("scalars", "_parse_exact")]
    assert mentions == 1


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 10 ms of
    # every command's start-up
    code = ("import sys, spin8.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(checks.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out == "[]\n"

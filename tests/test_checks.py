import math
import os
import select
import time

import spin8.checks as checks
from spin8.checks import (
    CHECKS,
    CheckDef,
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
from spin8.scalars import EXACT, ApproxReal, Rational

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


def test_subset_selection():
    cfg = RunConfig(seed=1, trials=2, backend="exact")
    results = run_checks(cfg, names=["octonion-axioms", "fixed-sets"])
    assert [r.name for r in results] == ["octonion-axioms", "fixed-sets"]


def test_result_dict_shape():
    cfg = RunConfig(seed=1, trials=2, backend="exact")
    r = run_checks(cfg, names=["fixed-sets"])[0]
    d = r.to_dict()
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
    jobs = [(c, b) for c in CHECKS for b in cfg.backends()]
    serial = [run_check(c, cfg, b) for c, b in jobs]
    order = _dispatch_order(jobs)
    assert [jobs[i][0].name for i in order[:4]] == (
        ["kai-property"] * 2 + ["triality-closure"] * 2)
    assert sorted(order) == list(range(len(jobs)))
    for workers in (0, 1, 3):
        for o in (order, order[::-1]):
            assert _run_jobs(cfg, jobs, o, _workers=workers) == serial
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
    """A check that runs `worker_job` in a worker; in the parent it waits
    (at most 30 s) until a worker has taken a job, so a worker surely does."""
    r, w = os.pipe()

    def run(backend, rng, trials):
        if os.getpid() != parent:
            os.write(w, b"x")
            worker_job()
        else:
            select.select([r], [], [], 30)
        return Judge(backend.exact), 1

    return CheckDef("worker-job", "runs in a worker", run), (r, w)


class PicklableError(Exception):  # module level, so it pickles
    pass


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
    (lambda: os._exit(3), RuntimeError, "ended without a result.*exit code 3"),
])
def test_worker_errors_are_raised_in_the_parent(job, kind, message):
    check, fds = in_a_worker(os.getpid(), job)
    try:
        with pytest.raises(kind, match=message):
            _run_jobs(RunConfig(), [(check, EXACT)] * 2, [0, 1], _workers=1)
    finally:
        for fd in fds:
            os.close(fd)
    assert_no_children()


def test_interrupt_in_the_parent_kills_and_reaps_workers():
    parent = os.getpid()

    def run(backend, rng, trials):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # each worker holds one job, so the parent gets one
        return Judge(backend.exact), 1

    check = CheckDef("interrupted", "interrupted in the parent", run)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run_jobs(RunConfig(), [(check, EXACT)] * 3, [0, 1, 2], _workers=2)
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

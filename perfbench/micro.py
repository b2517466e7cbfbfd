"""Layer microbenchmarks on operands drawn from the workload seed.

Operands come from the package's own samplers, so their sizes are the ones
the workloads meet: length-3 words of rational triples, triples of the
cube-root translations L(s) with entries in Q(sqrt 3), and float triples.
Each operation is timed in batches until its share of the budget is spent;
the reported figure is the median per-operation time over the batches.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from spin8.checks import RunConfig, run_checks
from spin8.linalg import is_special_orthogonal
from spin8.octonion import Octonion, cube_root_of_unity, random_imaginary_unit
from spin8.sampling import random_sphere_point, random_triple
from spin8.scalars import EXACT, ApproxReal, FloatBackend, QuadExt
from spin8.symspace import act
from spin8.triality import TrialityTriple, spin_from_unit

WHOLE_CHECK = "triality-closure"


def _operands(seed: int) -> dict:
    rng = random.Random(seed)
    fb = FloatBackend(1e-9)
    return {
        "rational": [random_triple(rng, EXACT, max_len=3, min_len=3) for _ in range(2)],
        "quadext": [spin_from_unit(cube_root_of_unity(random_imaginary_unit(rng, EXACT)))
                    for _ in range(2)],
        "float": [random_triple(rng, fb, max_len=3, min_len=3) for _ in range(2)],
        "points_exact": [random_sphere_point(rng, EXACT) for _ in range(4)],
        "points_float": [random_sphere_point(rng, fb) for _ in range(4)],
    }


def _entries(triples, want):
    return [e for g in triples for m in (g.A, g.B, g.C) for row in m.rows
            for e in row if want(e)]


def _scalar_pairs(triples, want, n=64):
    xs = _entries(triples, want)
    return list(zip(xs[:n], reversed(xs[-n:])))


def _column_pairs(triples):
    cols = [Octonion(col) for g in triples for col in zip(*g.C.rows)]
    acols = [Octonion(col) for g in triples for col in zip(*g.A.rows)]
    return list(zip(cols, acols))


def _time_batches(batch, size: int, budget: float) -> float:
    """Median seconds per operation over repeated batches of `size` ops."""
    times = []
    deadline = perf_counter() + budget
    while len(times) < 5 or (perf_counter() < deadline and len(times) < 1000):
        t0 = perf_counter()
        batch()
        times.append((perf_counter() - t0) / size)
    return statistics.median(times)


def _mul_pairs(pairs):
    def batch():
        for x, y in pairs:
            x * y
    return batch


def _each(fn, items):
    def batch():
        for it in items:
            fn(*it)
    return batch


def run_micro(seed: int, budget_s: float) -> dict:
    ops = _operands(seed)
    rat, quad, flt = ops["rational"], ops["quadext"], ops["float"]
    jobs = {
        "scalars.rational_mul_us": (
            1e6, _scalar_pairs(rat, lambda e: bool(e) and not isinstance(e, int)), _mul_pairs),
        "scalars.quadext_mul_us": (
            1e6, _scalar_pairs(quad, lambda e: isinstance(e, QuadExt) and e.b != 0), _mul_pairs),
        "scalars.approx_mul_us": (
            1e6, _scalar_pairs(flt, lambda e: isinstance(e, ApproxReal)), _mul_pairs),
        "octonion.mul_us.exact": (1e6, _column_pairs(rat), _mul_pairs),
        "octonion.mul_us.quadext": (1e6, _column_pairs(quad), _mul_pairs),
        "octonion.mul_us.float": (1e6, _column_pairs(flt), _mul_pairs),
        "linalg.matmul_us.exact": (
            1e6, [(g.A, g.B) for g in rat] + [(g.C, g.A) for g in rat], _mul_pairs),
        "linalg.matmul_us.float": (
            1e6, [(g.A, g.B) for g in flt] + [(g.C, g.A) for g in flt], _mul_pairs),
        "linalg.so8_ms.exact": (
            1e3, [(m,) for g in rat for m in (g.A, g.B, g.C)],
            lambda items: _each(is_special_orthogonal, items)),
        "linalg.so8_ms.float": (
            1e3, [(m,) for g in flt for m in (g.A, g.B, g.C)],
            lambda items: _each(is_special_orthogonal, items)),
        "triality.construct_ms.rational": (
            1e3, [(g.A, g.B, g.C) for g in rat], lambda items: _each(TrialityTriple, items)),
        "triality.construct_ms.quadext": (
            1e3, [(g.A, g.B, g.C) for g in quad], lambda items: _each(TrialityTriple, items)),
        "triality.construct_ms.float": (
            1e3, [(g.A, g.B, g.C) for g in flt], lambda items: _each(TrialityTriple, items)),
        "symspace.act_us.exact": (
            1e6, [(g, p) for g in rat for p in ops["points_exact"]],
            lambda items: _each(act, items)),
        "symspace.act_us.float": (
            1e6, [(g, p) for g in flt for p in ops["points_float"]],
            lambda items: _each(act, items)),
    }
    share = budget_s / (len(jobs) + 2)
    out = {}
    for name, (scale, items, make) in jobs.items():
        if not items:
            raise RuntimeError(f"{name}: the sampled operands hold no suitable entries")
        out[name] = scale * _time_batches(make(items), len(items), share)
    for backend in ("exact", "float"):
        cfg = RunConfig(seed=seed, trials=1, backend=backend)

        def whole_check():
            (result,) = run_checks(cfg, names=[WHOLE_CHECK])
            if not result.passed:
                raise RuntimeError(f"{WHOLE_CHECK} failed on {backend}")

        out[f"checks.whole_check_ms.{backend}"] = 1e3 * _time_batches(whole_check, 1, share)
    return out

"""In-memory span recorder that wraps spin8's public entry points from outside.

Nothing in the package is edited.  Module-level functions are replaced in
every spin8 module namespace that holds them (``mul_coeffs`` is bound by name
in ``octonion``, ``triality`` and ``sampling``, for instance), and methods are
replaced on their class, so calls reach the wrappers whichever way the
package makes them.  A span is (name, start, end, parent); self time is a
span's duration minus the durations of its direct children, which in this
single-threaded program tile disjoint parts of the parent's interval.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_den_bits = 0
        self.missing: list[str] = []

    def name_index(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        """Run fn inside a span; bookkeeping stays outside the timed interval."""
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def spanned(self, name: str, fn):
        nid = self.name_index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)

        return wrapper

    # --- reading the record ---------------------------------------------

    def summary(self, exclude=()) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, durations.

        `exclude` holds sorted, disjoint (start, end) intervals of foreign work
        that ran inside spans, such as the HostClock probes; each lies wholly
        inside every span that was open when it ran and is taken out of them.
        """
        starts = [a for a, _ in exclude]
        ends = [b for _, b in exclude]
        prefix = [0.0]
        for a, b in exclude:
            prefix.append(prefix[-1] + (b - a))
        n = len(self.start)
        dur = []
        for i in range(n):
            s, e = self.start[i], self.end[i]
            lo, hi = bisect.bisect_left(starts, s), bisect.bisect_right(ends, e)
            dur.append(e - s - (prefix[hi] - prefix[lo] if hi > lo else 0.0))
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            s = out.get(name)
            if s is None:
                s = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            s["calls"] += 1
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            s["durations"].append(dur[i])
        return out

    def write(self, path: str, exclude=()) -> None:
        """Spans as a JSON header line followed by the four raw arrays; the
        header also lists the excluded intervals summary() takes out."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name_id", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
            "exclude": [list(iv) for iv in exclude],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def _spin8_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "spin8" or name.startswith("spin8."))]


def patch_function(tracer: Tracer, module, attr: str, make_wrapper) -> None:
    """Replace module.attr in every spin8 namespace that binds the same object."""
    orig = getattr(module, attr, None)
    if orig is None:
        tracer.missing.append(f"{module.__name__}.{attr}")
        return
    wrapper = make_wrapper(orig)
    for mod in _spin8_modules():
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)


def patch_method(tracer: Tracer, cls, attr: str, make_wrapper) -> None:
    orig = cls.__dict__.get(attr)
    if orig is None:
        tracer.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
        return
    setattr(cls, attr, make_wrapper(orig))


# --- the layer boundaries -------------------------------------------------

def _classify(mats, approx_type, quad_type):
    """rational / quadext / float from a triple's entries, plus denominator bits."""
    kind = "rational"
    bits = 0
    for m in mats:
        for row in m.rows:
            for e in row:
                t = type(e)
                if t is approx_type:
                    return "float", 0
                if t is quad_type:
                    kind = "quadext"
                    b = max(e.a.denominator.bit_length(), e.b.denominator.bit_length())
                else:
                    den = getattr(e, "denominator", 1)
                    b = int(den).bit_length()
                if b > bits:
                    bits = b
    return kind, bits


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported spin8 with spans/counters."""
    import spin8.checks as checks
    import spin8.cli as cli
    import spin8.clifford as clifford
    import spin8.linalg as linalg
    import spin8.octonion as octonion
    import spin8.sampling as sampling
    import spin8.scalars as scalars
    import spin8.symspace as symspace
    import spin8.triality as triality

    def wrap_run_check(fn):
        ids: dict = {}

        @functools.wraps(fn)
        def wrapper(check, cfg, backend):
            key = (check.name, backend.name)
            nid = ids.get(key)
            if nid is None:
                nid = ids[key] = tracer.name_index(f"checks.{check.name}.{backend.name}")
            return tracer.call(nid, fn, (check, cfg, backend), {})
        return wrapper

    patch_function(tracer, checks, "run_check", wrap_run_check)

    def span(name):
        return lambda fn: tracer.spanned(name, fn)

    patch_function(tracer, octonion, "mul_coeffs", span("octonion.mul_coeffs"))
    patch_function(tracer, linalg, "is_special_orthogonal", span("linalg.so8"))
    patch_method(tracer, linalg.Matrix, "__mul__", span("linalg.matmul"))
    patch_function(tracer, clifford, "ad_conjugate", span("clifford.ad_conjugate"))
    patch_function(tracer, symspace, "act", span("symspace.act"))
    patch_function(tracer, symspace, "maximality_scan", span("symspace.maximality_scan"))
    patch_function(tracer, symspace, "antipodal_set", span("symspace.antipodal_set"))
    patch_function(tracer, sampling, "random_triple", span("sampling.random_triple"))
    patch_method(tracer, checks.Judge, "eq", span("checks.judge_eq"))
    patch_function(tracer, cli, "_emit", span("cli.emit"))

    verify_ids = {k: tracer.name_index(f"triality.verify.{k}")
                  for k in ("rational", "quadext", "float")}
    approx_type, quad_type = scalars.ApproxReal, scalars.QuadExt

    def wrap_init(fn):
        @functools.wraps(fn)
        def wrapper(self, a, b, c):
            kind, bits = _classify((a, b, c), approx_type, quad_type)
            if bits > tracer.max_den_bits:
                tracer.max_den_bits = bits
            return tracer.call(verify_ids[kind], fn, (self, a, b, c), {})
        return wrapper

    patch_method(tracer, triality.TrialityTriple, "__init__", wrap_init)

    def memo(slot):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(g, *args):
                tracer.counts["memo_calls"] += 1
                if getattr(g, slot, None) is not None:
                    tracer.counts["memo_hits"] += 1
                return fn(g, *args)
            return wrapper
        return make

    patch_function(tracer, triality, "apply_tau", memo("_tau"))
    patch_function(tracer, triality, "apply_sigma", memo("_sigma"))
    patch_method(tracer, triality.TrialityTriple, "inverse", memo("_inv"))

    def count_points(fn):
        @functools.wraps(fn)
        def wrapper(self, x, y):
            tracer.counts["sphere_point"] += 1
            return fn(self, x, y)
        return wrapper

    patch_method(tracer, symspace.SpherePoint, "__init__", count_points)

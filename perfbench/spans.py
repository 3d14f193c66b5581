"""Spans around calls into lllsim's public functions, recorded from outside.

The package imports most helpers with ``from .module import name``, so a
function is reachable under several module attributes (``lllsim.learner.
sample_batch`` is the same object as ``lllsim.synthetic.sample_batch``).
`Tracer` replaces every attribute of every loaded ``lllsim`` module that
holds a traced function with one wrapper, and puts the originals back on
exit. Spans stay in memory; the caller writes them out when it is done.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "lllsim"


def _batch_counts(batch) -> dict:
    rows, d = batch.x.shape
    # float64 inputs the call produced; computed from the shape, not measured
    return {"rows": rows, "mb_computed": rows * d * 8 / 1e6}


def _check_counts(passed) -> dict:
    return {"passed": int(bool(passed))}


def _sdp_counts(sol) -> dict:
    return {"iters": sol.iterations, "converged": int(sol.converged)}


# Traced functions, named `<module>.<function>` after their defining module,
# with the counters read off each call's result.
LAYERS = {
    "driver.run_one": None,
    "driver.run_trials": None,
    "driver.evaluate_report": None,
    "synthetic.generate_problem": None,
    "synthetic.sample_batch": _batch_counts,
    "synthetic.task_error_exact": None,
    "geometry.orthonormalize": None,
    "geometry.principal_angles": None,
    "learner.estimate_direction": None,
    "learner.learn_halfspace": None,
    "learner.learn_in_feature_space": None,
    "learner.check_hypothesis": _check_counts,
    "refinement.refine": None,
    "refinement.solve_refinement_sdp": _sdp_counts,
    "refinement.round_sdp": None,
    "cli.main": None,
    "lowerbound.build_instance": None,
    "lowerbound.new_task_angle_stats": None,
}
# Spans that also record the CPU time of child processes reaped during them.
CHILD_CPU = frozenset({"driver.run_trials"})


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Span:
    id: int
    parent: int | None
    op: str | None
    name: str
    t0: float
    t1: float = 0.0
    counts: dict = field(default_factory=dict)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for c in sorted(children[s.id], key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s.id] = (s.t1 - s.t0) - covered
    return out


def summarize(spans) -> dict:
    """Flat `<span name>.<stat>` totals: calls, self_s and every counter."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += own[s.id]
        for key, val in s.counts.items():
            out[f"{s.name}.{key}"] += val
    return dict(out)


class Tracer:
    """Context manager that wraps the functions in `LAYERS` while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        originals = {}
        for name in LAYERS:
            module, attr = name.rsplit(".", 1)
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            originals[name] = getattr(mod, attr)
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        observe = LAYERS[name]
        track_children = name in CHILD_CPU

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._span(name) as span:
                c0 = children_cpu_s() if track_children else 0.0
                result = fn(*args, **kwargs)
                if track_children:
                    span.counts["child_cpu_s"] = children_cpu_s() - c0
            if observe is not None:
                span.counts.update(observe(result))
            return result

        return wrapper

    @contextmanager
    def _span(self, name):
        span = Span(
            id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            op=self._op,
            name=name,
            t0=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def root(self, name, op):
        """A span of the benchmark itself; calls made inside carry `op`."""
        saved, self._op = self._op, op
        try:
            with self._span(name) as span:
                yield span
        finally:
            self._op = saved

"""Timing helpers: percentiles, peak RSS and the per-layer ledger.

The ledger records spans from the benchmark's own files: it times the
calls the benchmark makes into each layer, and it wraps a layer's public
functions (in every ``repro`` module that imported them) so calls made
from inside the program are timed too.  Spans live in memory, per op;
nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import sys
import time
from collections import defaultdict

#: Samples a percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float | None:
    """The ``q``-th percentile (0 < q < 1), or ``None`` when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0 or n - math.ceil(q * n) < TAIL_SAMPLES:
        return None
    return float(ordered[math.ceil(q * n) - 1])


def proc_peak_rss_bytes(pid: int | str = "self") -> int:
    """Peak resident set (``VmHWM``) of a process, 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class Ledger:
    """Inclusive seconds and counts per layer, collected one op at a time.

    A layer nested inside itself (a recursive call, or two wrapped
    methods of one layer calling each other) is counted once, at its
    outermost call.
    """

    def __init__(self) -> None:
        self.op: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        self._depth[name] += 1
        started = time.perf_counter()
        try:
            yield
        finally:
            self._depth[name] -= 1
            if self._depth[name] == 0:
                self.op[name] += time.perf_counter() - started

    def add(self, name: str, value: float) -> None:
        self.op[name] += value

    def take(self) -> dict[str, float]:
        """This op's layers; the ledger starts the next op empty."""
        taken, self.op = dict(self.op), defaultdict(float)
        return taken

    def _timed(self, function, name: str, count=None):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if count is not None:
                self.add(count[0], count[1](*args, **kwargs))
            with self.span(name):
                return function(*args, **kwargs)
        return wrapper

    def wrap_function(self, function, name: str, count=None) -> None:
        """Time ``function`` wherever a ``repro`` module refers to it.

        ``count`` is ``(metric, fn)``: ``fn(*args)`` is added to
        ``metric`` on every call.
        """
        wrapper = self._timed(function, name, count)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def wrap_method(self, owner: type, attr: str, name: str) -> None:
        """Time a method (plain or classmethod) of a class."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._timed(original.__func__, name))
        else:
            replacement = self._timed(original, name)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's public calls for the duration of the block."""
        from repro.cachesim.hierarchy import SpMVCacheSim
        from repro.core import trace
        from repro.core.advisor import SectorAdvisor
        from repro.core.method_a import MethodA
        from repro.core.method_b import MethodB
        from repro.delta import engine
        from repro.delta.delta import MatrixDelta
        from repro.delta.state import ReuseState
        from repro.matrices.collection import MatrixSpec
        from repro.parallel.interleave import interleave
        from repro.reuse import periodic
        from repro.reuse.histogram import ReuseProfile
        from repro.service import protocol

        try:
            self.wrap_function(protocol.matrix_from_task,
                               "service.protocol.materialize_s")
            self.wrap_function(trace.x_only_trace, "core.trace.build_s")
            self.wrap_function(trace.spmv_trace, "core.trace.build_s")
            self.wrap_function(interleave, "parallel.interleave_s")
            self.wrap_function(
                periodic.steady_state_reuse_distances, "reuse.stack_pass_s",
                count=("reuse.references", lambda lines, *a, **k: len(lines)),
            )
            self.wrap_method(ReuseProfile, "from_distances",
                             "reuse.profile_build_s")
            self.wrap_method(SectorAdvisor, "recommend",
                             "core.advisor.recommend_s")
            for attr in ("__init__", "predict", "predict_l1"):
                self.wrap_method(MethodA, attr, "core.method_a_s")
                self.wrap_method(MethodB, attr, "core.method_b_s")
            self.wrap_method(MethodB, "x_misses", "core.method_b_s")
            for attr in ("__init__", "events"):
                self.wrap_method(SpMVCacheSim, attr, "cachesim.simulate_s")
            self.wrap_method(MatrixSpec, "materialize", "matrices.build_s")
            self.wrap_method(MatrixDelta, "apply", "delta.apply_s")
            self.wrap_method(ReuseState, "apply", "delta.apply_s")
            self.wrap_function(engine.evaluate_delta_task, "delta.evaluate_s")
            yield self
        finally:
            self.restore()

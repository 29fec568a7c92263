"""Metrics of one run, and the human-readable report that prints them.

The metric names and units come from ``BENCHMARK.json`` at the root of
the checkout, the one place they are declared.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from .measure import median, percentile

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@lru_cache(maxsize=None)
def declared(section: str) -> tuple[tuple[str, str], ...]:
    """(name, unit) of every metric of a ``BENCHMARK.json`` section."""
    return tuple((metric["name"], metric["unit"])
                 for metric in json.loads(BENCHMARK.read_text())[section])


def _ok(ops):
    return [op for op in ops if op.error is None]


def _primary_latencies(ops):
    """Latencies that ``latency_p50_s`` reads: every op but the reads."""
    return [op.latency for op in _ok(ops) if op.request.kind != "read"]


def end_to_end(run) -> dict[str, float]:
    ops = run.phases[0]
    return {
        "latency_p50_s": median(_primary_latencies(ops)),
        "throughput_per_s": len(_ok(ops)) / sum(op.latency for op in ops),
        "peak_rss_mb": run.peak_rss_bytes / 1e6,
        "setup_s": median(run.setup_seconds),
    }


def per_layer(run) -> dict[str, float]:
    """Median per op over the traced ops that reach each layer (0 if none)."""
    ops = _ok(run.phases[-1])
    values = {name: median(op.layers[name] for op in ops if name in op.layers)
              for name, _unit in declared("per_layer")}
    envelopes = [op.answer for op in ops if isinstance(op.answer, dict)]
    values["service.cache.hit_ratio"] = (
        sum(env["cached"] is not None for env in envelopes) / len(envelopes)
        if envelopes else 0.0)
    values["service.residual_s"] = median(
        op.latency - sum(op.layers.get(name, 0.0) for name in run.top_layers)
        for op in ops) if envelopes else 0.0
    writes = [op.answer for op in ops if op.request.kind == "write"]
    values["delta.incremental_ratio"] = (
        sum(env["delta"]["path"] == "incremental" for env in writes) / len(writes)
        if writes else 0.0)
    values["read_p50_s"] = median(
        op.latency for op in _ok(run.phases[0]) if op.request.repeat)
    return values


def _line(name: str, value: float, unit: str) -> str:
    return f"  {name:<34} {value:14.6f} {unit}"


def report(run, trace: bool) -> tuple[dict, int, int]:
    """Print the human-readable report of a run.

    Returns ``(metrics, attempted, failed)``; ``metrics`` maps every
    end-to-end metric (every per-layer metric when ``trace``) to
    ``(value, unit)``.
    """
    ops = run.primed + [op for phase in run.phases for op in phase]
    errors = [op for op in ops if op.error is not None]
    attempted, failed = len(ops), len(errors) + run.mismatches
    print(f"== {run.workload}: {len(run.phases[0])} timed ops, "
          f"{len(run.primed)} primed")
    print("inputs: " + json.dumps(run.inputs, sort_keys=True))
    for op in errors[:5]:
        print(f"failed op ({op.request.kind}): {op.error}")
    e2e = end_to_end(run)
    for name, unit in declared("end_to_end"):
        print(_line(name, e2e[name], unit))
    latencies = _primary_latencies(run.phases[0])
    p90 = percentile(latencies, 0.9)
    print(_line("latency_p90_s", p90, "s") if p90 is not None else
          f"  {'latency_p90_s':<34} {'n/a':>14} ({len(latencies)} samples; "
          "needs 10 beyond it)")
    if run.workload == "edit-stream":
        reads = [op.latency for op in _ok(run.phases[0]) if op.request.repeat]
        print(_line("read_p50_s", median(reads), "s"))
    print(_line("error_rate", failed / attempted, "")
          + f"({failed} of {attempted}; {run.mismatches} wrong answers)")
    if not trace:
        return ({name: (e2e[name], unit) for name, unit in declared("end_to_end")},
                attempted, failed)

    layers = per_layer(run)
    print("per layer (median per op over the ops that reach the layer):")
    for name, unit in declared("per_layer"):
        print(_line(name, layers[name], unit))
    traced = _ok(run.phases[-1])
    covered = sum(op.layers.get(name, 0.0) for op in traced
                  for name in run.top_layers)
    total = sum(op.latency for op in traced)
    print(f"layer coverage: {covered / total:.1%} of op latency "
          f"({' + '.join(run.top_layers)})")
    untraced = median(_primary_latencies(run.phases[0]))
    with_trace = median(_primary_latencies(run.phases[-1]))
    print(f"tracing overhead: latency_p50_s {with_trace:.6f} s traced vs "
          f"{untraced:.6f} s untraced ({with_trace - untraced:+.6f} s)")
    return ({name: (layers[name], unit) for name, unit in declared("per_layer")},
            attempted, failed)

"""Reuse-distance engine throughput (the machinery behind Section 4.5.1).

Compares the vectorized CDQ stack processing (the production path) against
the Fenwick-tree sweep on identical traces, reporting references per
second.  ``bench_model_sweep`` covers the layer above: matrices/second of
a 16-configuration model sweep, serial vs. ``--jobs 4``, plus the warm
per-policy query vs. the full-mask reference.
``bench_periodic`` measures the single-period steady-state engine against
the doubled-trace oracle (equality is asserted; timings and peak memory go
to ``extra_info``).  ``bench_sim_pass`` times the simulator's way-capped
set-associative passes against uncapped ones on the tiny collection's
largest matrix (hit-mask equality is asserted, in ``--check`` mode too).
``bench_dominance`` times the merge dominance count under every exact
pass; ``--check`` compares a grouped 50k-access pass with the Fenwick
sweep.

Run as a script for the JSON emitter / CI smoke mode::

    PYTHONPATH=src python benchmarks/bench_reuse_engine.py --json BENCH_reuse.json
    PYTHONPATH=src python benchmarks/bench_reuse_engine.py --check --jobs 2
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np
import pytest

from repro.cachesim.hierarchy import SimConfig, SpMVCacheSim
from repro.core import MethodA, MethodB
from repro.obs import Tracer
from repro.experiments import ExperimentSetup, run_collection, run_collection_parallel
from repro.experiments.common import peak_rss_bytes, record_fingerprint
from repro.machine import scaled_machine
from repro.matrices import banded, random_uniform
from repro.matrices.collection import collection
from repro.reuse import (
    compute_prev,
    reuse_distances,
    reuse_distances_fenwick,
    steady_state_reuse_distances,
)
from repro.reuse.cdq import _dominance_counts
from repro.spmv import listing1_policy
from repro.spmv.sector_policy import no_sector_cache


def _trace(n=200_000, lines=20_000, groups=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, lines, n), rng.integers(0, groups, n)


def test_cdq_throughput(benchmark):
    trace, groups = _trace()
    rd = benchmark(lambda: reuse_distances(trace, groups))
    assert rd.shape == trace.shape


def test_fenwick_throughput(benchmark):
    trace, groups = _trace(n=30_000)
    rd = benchmark.pedantic(
        lambda: reuse_distances_fenwick(trace, groups),
        rounds=2, iterations=1, warmup_rounds=0,
    )
    assert rd.shape == trace.shape


@pytest.mark.parametrize("n", [50_000, 400_000])
def test_cdq_scales_near_linearithmic(benchmark, n):
    trace, groups = _trace(n=n)
    benchmark.pedantic(
        lambda: reuse_distances(trace, groups),
        rounds=2, iterations=1, warmup_rounds=0,
    )


# -- bench_model_sweep: the 16-configuration model evaluation ------------

#: 16 sector configurations: 6 L2 way splits alone + 5 of them crossed
#: with 2 L1 splits (the Figure 2/3 sweep shape).
SWEEP_SETUP = ExperimentSetup(
    scale=16,
    num_threads=48,
    l2_way_options=(0, 2, 3, 4, 5, 6),
    l1_way_options=(0, 1, 2),
)
SWEEP_MATRICES = 6


def _sweep_specs():
    return collection("tiny", machine=SWEEP_SETUP.machine())[:SWEEP_MATRICES]


@pytest.mark.parametrize("jobs", [1, 4])
def test_bench_model_sweep(benchmark, jobs):
    """Matrices/second of the 16-policy sweep, serial vs. ``--jobs 4``.

    The pool-speedup comparison is core-count-aware: on a container with
    fewer than 4 cores a 4-worker pool measures scheduler contention, not
    the sweep engine, so the parallel variant is skipped there and the
    speedup is only asserted when the cores to earn it exist.
    """
    cores = os.cpu_count() or 1
    if jobs > 1 and cores < 4:
        pytest.skip(f"pool speedup needs >= 4 cores, this host has {cores}")
    specs = _sweep_specs()

    def run():
        if jobs == 1:
            return run_collection(specs, SWEEP_SETUP, cache_dir=None)
        result = run_collection_parallel(
            specs, SWEEP_SETUP, cache_dir=None, jobs=jobs
        )
        assert not result.failures
        return result.records

    records = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert len(records) == len(specs)
    elapsed = benchmark.stats.stats.mean
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["configurations"] = 16
    benchmark.extra_info["matrices_per_second"] = len(specs) / elapsed
    if jobs > 1:
        t0 = time.perf_counter()
        run_collection(specs, SWEEP_SETUP, cache_dir=None)
        serial_seconds = time.perf_counter() - t0
        speedup = serial_seconds / elapsed
        benchmark.extra_info["pool_speedup"] = speedup
        assert speedup > 1.1, (
            f"{jobs}-worker pool gained only {speedup:.2f}x over serial "
            f"on a {cores}-core host"
        )


# -- bench_periodic: single-period steady state vs. the doubled trace ----

#: stack-pass workloads: (name, matrix factory, method class, threads)
PERIODIC_WORKLOADS = [
    ("methodA_random20k", lambda: random_uniform(20_000, 8, seed=1), MethodA, 48),
    ("methodA_banded40k", lambda: banded(40_000, 64, 6, seed=2), MethodA, 48),
    ("methodB_random20k", lambda: random_uniform(20_000, 8, seed=3), MethodB, 48),
]

#: policies driving both the partitioned and the shared stack passes
PERIODIC_POLICIES = (listing1_policy(5), no_sector_cache())


def _run_stack_passes(method_cls, matrix, num_threads, periodic):
    """One full model evaluation: construction + L2/L1 passes + cold misses."""
    model = method_cls(
        matrix, scaled_machine(16), num_threads=num_threads, periodic=periodic
    )
    out = []
    for policy in PERIODIC_POLICIES:
        out.append(model.predict(policy))
        out.append(model.predict_l1(policy))
    if method_cls is MethodA:
        out.append(model.cold_misses())
    return out


def _prediction_key(result):
    out = []
    for entry in result:
        if isinstance(entry, int):
            out.append(entry)
        else:
            out.append((entry.l2_misses, tuple(sorted(entry.per_array.items()))))
    return out


def _measure_workload(name, factory, method_cls, num_threads, repeats=3):
    """Wall time (best of ``repeats``) and tracemalloc peak of both engines.

    Both measurements ride on :class:`repro.obs.Tracer` spans — the same
    clock and memory accounting the ``--trace`` reports use — so benchmark
    numbers and trace reports stay comparable.
    """
    matrix = factory()
    stats = {}
    for label, periodic in (("oracle", False), ("periodic", True)):
        best = float("inf")
        timer = Tracer()
        for _ in range(repeats):
            with timer.span(label) as sp:
                result = _run_stack_passes(method_cls, matrix, num_threads, periodic)
            best = min(best, sp.seconds)
        with Tracer(memory="tracemalloc") as mem_tracer:
            with mem_tracer.span(label) as mem_span:
                _run_stack_passes(method_cls, matrix, num_threads, periodic)
        stats[label] = {
            "seconds": best,
            "peak_traced_bytes": int(mem_span.mem_peak_bytes),
            "result_key": _prediction_key(result),
        }
    assert stats["periodic"]["result_key"] == stats["oracle"]["result_key"], (
        f"{name}: periodic engine diverged from the doubled-trace oracle"
    )
    for s in stats.values():
        del s["result_key"]
    stats["speedup"] = stats["oracle"]["seconds"] / stats["periodic"]["seconds"]
    stats["memory_ratio"] = (
        stats["oracle"]["peak_traced_bytes"] / stats["periodic"]["peak_traced_bytes"]
    )
    return stats


@pytest.mark.parametrize(
    "name,factory,method_cls,num_threads",
    PERIODIC_WORKLOADS,
    ids=[w[0] for w in PERIODIC_WORKLOADS],
)
def test_bench_periodic_vs_oracle(benchmark, name, factory, method_cls, num_threads):
    """Steady-state engine vs. doubled trace: equal results, lower cost."""
    matrix = factory()
    oracle = _run_stack_passes(method_cls, matrix, num_threads, periodic=False)
    result = benchmark.pedantic(
        lambda: _run_stack_passes(method_cls, matrix, num_threads, periodic=True),
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )
    assert _prediction_key(result) == _prediction_key(oracle)
    t0 = time.perf_counter()
    _run_stack_passes(method_cls, matrix, num_threads, periodic=False)
    oracle_seconds = time.perf_counter() - t0
    benchmark.extra_info["oracle_seconds"] = oracle_seconds
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["speedup"] = oracle_seconds / benchmark.stats.stats.mean


def test_bench_predict_query_vs_full_mask(benchmark):
    """Warm per-policy ``predict()`` vs. the pre-change full-mask sweep."""
    matrix = random_uniform(20_000, 8, seed=1)
    model = MethodA(matrix, scaled_machine(16), num_threads=48)
    policy = listing1_policy(5)
    model.predict(policy)  # pay the stack pass + profile build once
    reps = 20
    t0 = time.perf_counter()
    for _ in range(reps):
        reference = model._predict_masked(policy)
    mask_seconds = (time.perf_counter() - t0) / reps
    result = benchmark(lambda: model.predict(policy))
    assert result.l2_misses == reference.l2_misses
    query_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["mask_path_seconds"] = mask_seconds
    benchmark.extra_info["query_speedup"] = mask_seconds / query_seconds


# -- bench_sim_pass: way-capped vs. uncapped set-associative passes ----

#: the simulator setup of the collection sweep at 48 threads
SIM_SETUP = ExperimentSetup(num_threads=48)


def _largest_tiny_matrix():
    specs = collection("tiny", machine=SIM_SETUP.machine())
    matrices = [spec.materialize() for spec in specs]
    return max(matrices, key=lambda m: m.nnz)


def _sim_levels(sim):
    """Every set-associative level of a periodic simulation, L2 per L1 split."""
    levels = [sim._l1_warm_rd, sim._l1_rd]
    levels += [sim._l2_level(w)[1] for w in range(sim.machine.l1.ways)]
    return levels


def _uncapped_distances(level, partitioned):
    """The level's in-set distances from an uncapped pass."""
    groups = level._groups(level.trace.lines, level.cache_ids, level.sectors, partitioned)
    if level.first_trace is None:
        return reuse_distances(level.trace.lines, groups)
    return steady_state_reuse_distances(
        level.trace.lines,
        groups,
        first_lines=level.first_trace.lines,
        first_groups=level._groups(
            level.first_trace.lines,
            level.first_cache_ids,
            level.first_sectors,
            partitioned,
        ),
    )


def _sim_pass_row(repeats=1):
    """Capped vs. uncapped passes of every level: equal hit masks, timings.

    Each level is copied fresh (empty distance cache) so both sides run
    both groupings; the capped side is the simulator's own ``_rd``.
    """
    matrix = _largest_tiny_matrix()
    sim = SpMVCacheSim(
        matrix, SIM_SETUP.machine(), SimConfig(num_threads=SIM_SETUP.num_threads)
    )
    levels = _sim_levels(sim)
    capped_best = uncapped_best = float("inf")
    for _ in range(repeats):
        capped = [dataclasses.replace(level) for level in levels]
        t0 = time.perf_counter()
        for level in capped:
            level._rd(True)
            level._rd(False)
        capped_best = min(capped_best, time.perf_counter() - t0)
        uncapped = [dataclasses.replace(level) for level in levels]
        t0 = time.perf_counter()
        for level in uncapped:
            for key, partitioned in (("split", True), ("shared", False)):
                level._cache[key] = _uncapped_distances(level, partitioned)
        uncapped_best = min(uncapped_best, time.perf_counter() - t0)
    for fast, exact in zip(capped, uncapped):
        for ways in range(fast.geometry.ways):
            assert np.array_equal(fast.hit_mask(ways), exact.hit_mask(ways)), (
                f"capped pass diverged at {ways} sector-1 ways"
            )
    return {
        "matrix": matrix.name,
        "nnz": int(matrix.nnz),
        "passes": 2 * len(levels),
        "references": int(sum(2 * len(level.trace) for level in levels)),
        "capped_seconds": capped_best,
        "uncapped_seconds": uncapped_best,
        "speedup": uncapped_best / capped_best,
    }


def test_bench_sim_pass_capped_vs_uncapped(benchmark):
    """Way-capped simulator passes: equal hit masks, less time."""
    row = benchmark.pedantic(_sim_pass_row, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info.update(row)


# -- bench_dominance: the merge count of every exact pass -----------------

#: trace lengths of the dominance-count row: about one inline advise's x
#: trace, and a larger one
DOMINANCE_SIZES = (170_000, 700_000)


def _check_against_fenwick(n=50_000):
    """A grouped, uncapped pass equals the Fenwick sweep access for access."""
    trace, groups = _trace(n=n, lines=5_000, groups=8, seed=1)
    np.testing.assert_array_equal(
        reuse_distances(trace, groups), reuse_distances_fenwick(trace, groups)
    )
    return n


def _dominance_row(repeats=3):
    """Best-of wall time and traced peak of the count on random traces."""
    row = {}
    for n in DOMINANCE_SIZES:
        rng = np.random.default_rng(n)
        prev = compute_prev(rng.integers(0, n // 4, n))
        best = float("inf")
        timer = Tracer()
        for _ in range(repeats):
            with timer.span("dominance") as sp:
                _dominance_counts(prev)
            best = min(best, sp.seconds)
        with Tracer(memory="tracemalloc") as mem_tracer:
            with mem_tracer.span("dominance") as mem_span:
                _dominance_counts(prev)
        row[str(n)] = {
            "seconds": best,
            "peak_traced_bytes": int(mem_span.mem_peak_bytes),
        }
    return row


# -- script mode: JSON emitter + CI smoke check --------------------------


def _check_sweep_equivalence(jobs):
    """Pooled periodic sweep vs. serial oracle sweep: identical records."""
    setup = ExperimentSetup(
        num_threads=8,
        l2_way_options=(0, 2, 5),
        l1_way_options=(0, 1),
    )
    specs = collection("tiny", machine=setup.machine())[:4]
    serial = run_collection(
        specs, dataclasses.replace(setup, periodic=False), cache_dir=None
    )
    if jobs > 1:
        result = run_collection_parallel(specs, setup, cache_dir=None, jobs=jobs)
        assert not result.failures, result.failures
        pooled = result.records
    else:
        pooled = run_collection(specs, setup, cache_dir=None)
    assert len(pooled) == len(serial)
    mismatches = [
        s.name
        for s, p in zip(serial, pooled)
        if record_fingerprint(s) != record_fingerprint(p)
    ]
    assert not mismatches, f"record fingerprints diverged for {mismatches}"
    return len(serial)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write time + peak-memory measurements (periodic vs oracle) here",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="equality-only smoke mode: assert periodic == oracle, skip timing",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sweep check"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repetitions (best-of)"
    )
    args = parser.parse_args(argv)

    if args.check:
        matrices = _check_sweep_equivalence(args.jobs)
        print(
            f"OK: periodic engine matches the doubled-trace oracle on "
            f"{matrices} matrices (jobs={args.jobs})"
        )
        row = _sim_pass_row()
        print(
            f"OK: way-capped simulator passes match the uncapped hit masks "
            f"({row['passes']} passes on {row['matrix']})"
        )
        n = _check_against_fenwick()
        print(f"OK: grouped exact pass matches the Fenwick sweep on {n} accesses")
        if not args.json:
            return 0

    payload = {"workloads": {}, "peak_rss_bytes": 0}
    for name, factory, method_cls, num_threads in PERIODIC_WORKLOADS:
        stats = _measure_workload(
            name, factory, method_cls, num_threads, repeats=args.repeats
        )
        payload["workloads"][name] = stats
        print(
            f"{name}: {stats['speedup']:.2f}x faster, "
            f"{stats['memory_ratio']:.2f}x less peak trace memory "
            f"({stats['oracle']['seconds']:.3f}s -> "
            f"{stats['periodic']['seconds']:.3f}s)"
        )
    row = _sim_pass_row(repeats=args.repeats)
    payload["sim_pass"] = row
    print(
        f"sim_pass ({row['matrix']}): {row['speedup']:.2f}x faster capped "
        f"({row['uncapped_seconds']:.3f}s -> {row['capped_seconds']:.3f}s)"
    )
    payload["dominance_counts"] = _dominance_row(repeats=args.repeats)
    for n, stats in payload["dominance_counts"].items():
        print(
            f"dominance count ({n} accesses): {stats['seconds']:.3f}s, "
            f"{stats['peak_traced_bytes'] / (8 * int(n)):.2f} x 8n traced bytes"
        )
    payload["peak_rss_bytes"] = peak_rss_bytes()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

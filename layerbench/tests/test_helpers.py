"""Tests of the benchmark's own helpers: inputs, statistics, oracles."""

from __future__ import annotations

import dataclasses
import json

import pytest

from layerbench import oracle
from layerbench.inputs import (
    COLD_SLOTS,
    EDIT_BASES,
    build,
    edit_batch,
    slot_input,
)
from layerbench.measure import Ledger, percentile
from repro.delta.delta import MatrixDelta
from repro.experiments.common import ExperimentSetup, measure_matrix
from repro.matrices import generators
from repro.matrices.collection import collection
from repro.reuse import periodic
from repro.service.client import matrix_payload


def _request_bytes(seed: int) -> list[str]:
    return [
        json.dumps({"matrix": matrix_payload(item.matrix),
                    "setup": {"num_threads": item.num_threads}})
        for item in (slot_input(COLD_SLOTS, seed, "cold", i) for i in range(3))
    ]


def test_same_seed_same_request_bytes():
    assert _request_bytes(7) == _request_bytes(7)
    assert _request_bytes(7) != _request_bytes(8)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 100), 0.9) is None
    assert percentile(range(1, 101), 0.9) == 90.0
    assert percentile([], 0.5) is None
    assert percentile(range(1, 21), 0.5) == 10.0


@pytest.mark.parametrize("family,width", [
    ("banded", 8), ("block_diagonal", 24), ("random_uniform", 8),
    ("power_law", 8),
])
def test_edit_batches_stay_valid_along_a_chain(family, width):
    size = 200 if family == "block_diagonal" else 2_000
    for seed in range(40):
        matrix = build(family, size, width, seed)
        for step in range(3):
            batch = edit_batch(matrix, seed * 10 + step)
            delta = MatrixDelta.from_dict(batch)  # no duplicates, no overlap
            assert delta.num_inserts == delta.num_deletes == 16
            matrix = delta.apply(matrix).matrix  # inserts absent, deletes present


def test_edit_bases_are_single_thread():
    # the incremental delta engine patches single-thread traces only
    assert {threads for _family, threads, _n, _w in EDIT_BASES} == {1}


def test_advise_oracle_flags_an_altered_answer():
    matrix = generators.banded(3_000, 16, 6, seed=3)
    expected = oracle.advise_answer(matrix, 48)
    answer = json.loads(expected)
    assert oracle.answer_matches(expected, answer)
    answer["best"]["predicted_l2_misses"] += 1
    assert not oracle.answer_matches(expected, answer)


def test_sweep_oracle_flags_an_altered_record():
    spec = collection("tiny")[0]
    record = measure_matrix(spec.materialize(), ExperimentSetup(num_threads=1))
    assert oracle.record_matches(record, 1)
    altered = dataclasses.replace(record, model_b=dict(record.model_b))
    altered.model_b["5"] += 1
    assert not oracle.record_matches(altered, 1)
    assert not oracle.record_matches(record, 48)  # other thread count


def test_ledger_times_wrapped_calls_and_restores_them():
    original = periodic.steady_state_reuse_distances
    ledger = Ledger()
    with ledger.installed():
        assert periodic.steady_state_reuse_distances is not original
        matrix = generators.banded(500, 4, 4, seed=1)
        oracle.advise_answer(matrix, 1)
        layers = ledger.take()
    assert periodic.steady_state_reuse_distances is original
    assert layers["reuse.stack_pass_s"] > 0
    assert layers["core.advisor.recommend_s"] >= layers["reuse.stack_pass_s"]
    assert layers["reuse.references"] > 0

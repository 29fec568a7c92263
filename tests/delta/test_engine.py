"""Worker-side delta pricing: incremental vs fallback vs ladder paths.

Every test routes a derived delta task through
:func:`repro.delta.engine.evaluate_delta_task` exactly the way the pool
worker does, and checks the one invariant that matters: whatever path
priced it, the *result* is byte-identical to evaluating the edited
matrix from scratch — only the metadata (path/reason/state/drift)
differs.
"""

import numpy as np
import pytest

from repro.delta import engine
from repro.delta.delta import MatrixDelta
from repro.matrices.generators import banded, random_uniform
from repro.service.client import matrix_payload
from repro.service.protocol import (
    derive_delta_task,
    normalize_delta,
    normalize_request,
    request_key,
)
from repro.service.worker import _dispatch

MATRIX = banded(600, 6, 4, seed=7)
SETUP = {"num_threads": 1, "scale": 16}


@pytest.fixture(autouse=True)
def _cold_worker():
    """Each test starts from a cold worker-local reuse-state cache."""
    engine._state_cache.clear()
    yield
    engine._state_cache.clear()


def band_edits(matrix, rows):
    """Band-local edits (short dirty windows: stays inside the budget)."""
    inserts, deletes = [], []
    for r in rows:
        cols = matrix.colidx[matrix.rowptr[r]:matrix.rowptr[r + 1]].tolist()
        colset = set(cols)
        ins = next(c for base in cols for c in (base + 1, base - 1)
                   if 0 <= c < matrix.num_cols and c not in colset)
        inserts.append([r, int(ins), 1.0])
        deletes.append([r, int(cols[0])])
    return {"inserts": inserts, "deletes": deletes}


def delta_task(endpoint, batch, *, matrix=MATRIX, setup=SETUP, budget=None,
               flags=None, request=None):
    """Derive the canonical delta task the daemon would submit."""
    stored = normalize_request(endpoint,
                               {"matrix": matrix_payload(matrix),
                                "setup": setup, **(request or {})})
    body = {"base": request_key(stored), "delta": batch, **(flags or {})}
    return derive_delta_task(stored, normalize_delta(body),
                             engine.DEFAULT_BUDGET if budget is None
                             else budget)


def full_result(endpoint, edited, *, setup=SETUP, request=None):
    """The from-scratch answer on the edited pattern (the oracle)."""
    task = normalize_request(endpoint, {"matrix": matrix_payload(edited),
                                        "setup": setup, **(request or {})})
    result, fidelity, meta = _dispatch(task)
    assert fidelity is None and meta is None
    return result


def edited_matrix(batch, matrix=MATRIX):
    return MatrixDelta.from_dict(batch).apply(matrix).matrix


def test_incremental_advise_is_byte_identical_to_full_path():
    batch = band_edits(MATRIX, [5, 200, 400])
    result, fidelity, meta = engine.evaluate_delta_task(
        delta_task("advise", batch))
    assert fidelity is None
    assert meta["path"] == "incremental"
    assert meta["state"] == "cold"  # fresh worker: the base pays one pass
    assert meta["chain_length"] == 1 and meta["edits"] == 6
    assert meta["drift"] == pytest.approx(6 / MATRIX.nnz)
    oracle = full_result("advise", edited_matrix(batch))
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}


def test_incremental_predict_matches_full_path_per_policy():
    batch = band_edits(MATRIX, [50, 300])
    request = {"policies": [{"l2_sector1_ways": w} for w in (2, 6, 10)]}
    result, _, meta = engine.evaluate_delta_task(
        delta_task("predict", batch, request=request))
    assert meta["path"] == "incremental"
    oracle = full_result("predict", edited_matrix(batch), request=request)
    assert result["predictions"] == oracle["predictions"]


def test_repeat_and_chain_hit_the_warm_worker_state():
    batch1 = band_edits(MATRIX, [10, 100])
    _, _, first = engine.evaluate_delta_task(delta_task("advise", batch1))
    assert first["state"] == "cold"
    # the same chain again: the full patched state is already cached
    _, _, again = engine.evaluate_delta_task(delta_task("advise", batch1))
    assert again["state"] == "warm"
    # one more batch on top: the length-1 prefix state is the warm hit
    once = edited_matrix(batch1)
    batch2 = band_edits(once, [250, 500])
    stored = normalize_request("advise", {"matrix": matrix_payload(MATRIX),
                                          "setup": SETUP})
    chained = derive_delta_task(
        stored, normalize_delta({"base": request_key(stored),
                                 "delta": batch1}), engine.DEFAULT_BUDGET)
    chained = derive_delta_task(
        chained, normalize_delta({"base": request_key(chained),
                                  "delta": batch2}), engine.DEFAULT_BUDGET)
    result, _, meta = engine.evaluate_delta_task(chained)
    assert meta["chain_length"] == 2 and meta["state"] == "warm"
    oracle = full_result("advise", edited_matrix(batch2, once))
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}


def test_classify_prices_structurally():
    batch = band_edits(MATRIX, [0, 599])
    result, fidelity, meta = engine.evaluate_delta_task(
        delta_task("classify", batch))
    assert fidelity is None
    assert meta["path"] == "incremental" and meta["reason"] == "structural"
    oracle = full_result("classify", edited_matrix(batch))
    assert result["classes"] == oracle["classes"]


def test_parallel_base_falls_back_with_reason_threads():
    batch = band_edits(MATRIX, [20])
    setup = {"num_threads": 8, "scale": 16}
    result, _, meta = engine.evaluate_delta_task(
        delta_task("advise", batch, setup=setup))
    assert meta["path"] == "fallback" and meta["reason"] == "threads"
    oracle = full_result("advise", edited_matrix(batch), setup=setup)
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}


def test_non_periodic_predict_falls_back_with_reason_iterations():
    batch = band_edits(MATRIX, [20])
    setup = {"num_threads": 1, "scale": 16, "iterations": 1}
    result, _, meta = engine.evaluate_delta_task(
        delta_task("predict", batch, setup=setup))
    assert meta["path"] == "fallback" and meta["reason"] == "iterations"
    oracle = full_result("predict", edited_matrix(batch), setup=setup)
    assert result["predictions"] == oracle["predictions"]


def test_exhausted_budget_falls_back_and_reports_the_work():
    # a class-3 pattern: even a handful of edits dirties windows that
    # span the trace, so a tiny budget must overflow
    matrix = random_uniform(600, 5, seed=11)
    cols = matrix.colidx[matrix.rowptr[0]:matrix.rowptr[1]]
    absent = next(c for c in range(matrix.num_cols)
                  if c not in set(cols.tolist()))
    batch = {"inserts": [[0, absent, 1.0]],
             "deletes": [[0, int(cols[0])]]}
    result, _, meta = engine.evaluate_delta_task(
        delta_task("advise", batch, matrix=matrix, budget=1))
    assert meta["path"] == "fallback" and meta["reason"] == "budget"
    assert meta["work"] > meta["budget"] == 1
    oracle = full_result("advise", edited_matrix(batch, matrix))
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}


def test_loose_slo_stays_on_tier0_with_drift_inflated_bound():
    batch = band_edits(MATRIX, [30])
    result, fidelity, meta = engine.evaluate_delta_task(
        delta_task("advise", batch, flags={"accuracy": 10.0}))
    assert meta["path"] == "tier0"
    assert meta["reason"] == "drift-within-bound"
    assert fidelity["tier"] == 0 and fidelity["slo_met"]
    assert fidelity["drift"] == meta["drift"] > 0
    assert fidelity["error_bound"] >= fidelity["drift"]
    assert result["best"] and result["matrix_class"]


def test_tight_slo_escalates_onto_the_incremental_path():
    batch = band_edits(MATRIX, [30, 90])
    result, fidelity, meta = engine.evaluate_delta_task(
        delta_task("advise", batch, flags={"accuracy": 1e-9, "max_tier": 2}))
    assert meta["path"] == "incremental"
    assert fidelity["tier"] == 2
    assert fidelity["tiers_tried"] == [0, 2]
    assert fidelity["drift"] > 0
    oracle = full_result("advise", edited_matrix(batch))
    assert {k: v for k, v in result.items() if k != "name"} == \
        {k: v for k, v in oracle.items() if k != "name"}

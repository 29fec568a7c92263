"""The stored-task registry: memory map, binary pattern spill, revalidation."""

import json

import numpy as np

from repro.matrices import banded
from repro.service import matrix_payload
from repro.service.protocol import (
    arrays_match,
    derive_delta_task,
    normalize_delta,
    normalize_request,
    request_key,
)
from repro.service.registry import TaskRegistry

MATRIX = banded(200, 4, 3, seed=8)


def _stored():
    task = normalize_request("advise", {"matrix": matrix_payload(MATRIX),
                                        "setup": {"num_threads": 1},
                                        "timeout": 5.0})
    return request_key(task), task


def test_spill_reloads_arrays_through_the_fingerprint(tmp_path):
    key, task = _stored()
    TaskRegistry(tmp_path).put(key, task)
    fingerprint = task["arrays"].fingerprint
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted([f"{key}.task.json", f"{fingerprint}.pattern"])
    # the JSON spill holds the small spec only, never an index list
    spilled = json.loads((tmp_path / f"{key}.task.json").read_text())
    assert "arrays" not in spilled and "timeout" not in spilled
    assert spilled["matrix"]["pattern"] == fingerprint

    loaded = TaskRegistry(tmp_path).get(key)
    assert request_key(loaded) == key and arrays_match(loaded)
    assert np.array_equal(loaded["arrays"].rowptr, MATRIX.rowptr)
    assert np.array_equal(loaded["arrays"].colidx, MATRIX.colidx)


def test_delta_tasks_share_the_base_pattern_spill(tmp_path):
    key, task = _stored()
    registry = TaskRegistry(tmp_path)
    registry.put(key, task)
    derived = derive_delta_task(task, normalize_delta(
        {"base": key, "delta": {"inserts": [[0, 10]]}}), 1000)
    derived_key = request_key(derived)
    registry.put(derived_key, derived)
    assert len(list(tmp_path.glob("*.pattern"))) == 1
    loaded = TaskRegistry(tmp_path).get(derived_key)
    assert request_key(loaded) == derived_key and arrays_match(loaded)


def test_corrupt_pattern_fails_revalidation_and_is_dropped(tmp_path):
    key, task = _stored()
    TaskRegistry(tmp_path).put(key, task)
    path = tmp_path / f"{task['arrays'].fingerprint}.pattern"
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))
    loaded = TaskRegistry(tmp_path).get(key)
    # the key still matches, but the arrays are gone: the daemon 409s
    assert request_key(loaded) == key and not arrays_match(loaded)
    assert not path.exists()
    # a re-submission spills the pattern afresh
    TaskRegistry(tmp_path).put(key, task)
    assert arrays_match(TaskRegistry(tmp_path).get(key))


def test_collected_pattern_makes_the_base_absent(tmp_path):
    key, task = _stored()
    TaskRegistry(tmp_path).put(key, task)
    (tmp_path / f"{task['arrays'].fingerprint}.pattern").unlink()
    assert TaskRegistry(tmp_path).get(key) is None


def test_v1_record_never_revalidates(tmp_path):
    key = "ab" * 16
    (tmp_path / f"{key}.task.json").write_text(json.dumps({
        "endpoint": "advise", "setup": {"num_threads": 1},
        "matrix": {"kind": "csr", "num_rows": 2, "num_cols": 2,
                   "rowptr": [0, 1, 2], "colidx": [0, 1]},
    }))
    loaded = TaskRegistry(tmp_path).get(key)
    assert request_key(loaded) != key and not arrays_match(loaded)

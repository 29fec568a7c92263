"""Request normalization, canonical keys, and worker-side builders."""

import numpy as np
import pytest

from repro.matrices import banded
from repro.matrices.collection import collection
from repro.service.client import matrix_payload
from repro.service.protocol import (
    Pattern,
    RequestError,
    matrix_from_task,
    matrix_name,
    normalize_request,
    request_key,
    setup_from_task,
)


def _inline(matrix):
    return matrix_payload(matrix)


def test_key_is_independent_of_field_order():
    m = _inline(banded(64, 4, 3, seed=0))
    a = normalize_request("advise", {"matrix": m, "setup": {"num_threads": 8, "scale": 16}})
    b = normalize_request("advise", {"setup": {"scale": 16, "num_threads": 8}, "matrix": m})
    assert request_key(a) == request_key(b)


def test_key_ignores_timeout_but_not_setup():
    m = _inline(banded(64, 4, 3, seed=0))
    base = normalize_request("advise", {"matrix": m})
    patient = normalize_request("advise", {"matrix": m, "timeout": 5.0})
    other = normalize_request("advise", {"matrix": m, "setup": {"num_threads": 1}})
    assert request_key(base) == request_key(patient)
    assert request_key(base) != request_key(other)


def test_endpoints_key_separately():
    m = _inline(banded(64, 4, 3, seed=0))
    advise = normalize_request("advise", {"matrix": m})
    classify = normalize_request("classify", {"matrix": m})
    assert request_key(advise) != request_key(classify)


def test_defaults_are_filled_in():
    task = normalize_request("advise", {"matrix": _inline(banded(64, 4, 3, seed=0))})
    assert task["setup"]["num_threads"] == 48
    assert task["way_options"] == [2, 3, 4, 5, 6]
    assert task["consider_isolate_x"] is True
    setup = setup_from_task(task)
    assert setup.scale == 16 and setup.num_threads == 48


def test_inline_csr_round_trips():
    matrix = banded(64, 4, 3, seed=0)
    task = normalize_request("advise", {"matrix": _inline(matrix)})
    rebuilt = matrix_from_task(task)
    assert rebuilt.num_rows == matrix.num_rows
    assert np.array_equal(rebuilt.rowptr, matrix.rowptr)
    assert np.array_equal(rebuilt.colidx, matrix.colidx)
    assert rebuilt.name == matrix_name(task)
    assert rebuilt.name.startswith("inline-")


def test_inline_coo_builds_matrix():
    task = normalize_request("classify", {
        "matrix": {"coo": {"num_rows": 3, "num_cols": 3,
                           "rows": [0, 1, 2], "cols": [1, 2, 0]}},
    })
    rebuilt = matrix_from_task(task)
    assert rebuilt.nnz == 3
    assert rebuilt.num_rows == 3


def test_coo_and_csr_of_one_pattern_share_a_key():
    matrix = banded(64, 4, 3, seed=0)
    rows, cols, _ = matrix.to_coo()
    order = np.random.default_rng(0).permutation(matrix.nnz)
    coo = {"coo": {"num_rows": 64, "num_cols": 64,
                   "rows": rows[order].tolist(), "cols": cols[order].tolist()}}
    a = normalize_request("advise", {"matrix": _inline(matrix)})
    b = normalize_request("advise", {"matrix": coo})
    assert a["matrix"] == b["matrix"]
    assert request_key(a) == request_key(b)
    assert matrix_name(a) == matrix_name(b)


def test_inline_spec_carries_the_fingerprint_not_the_arrays():
    matrix = banded(64, 4, 3, seed=0)
    task = normalize_request("advise", {"matrix": _inline(matrix)})
    spec = task["matrix"]
    assert spec == {"kind": "csr", "num_rows": 64, "num_cols": 64,
                    "nnz": matrix.nnz, "pattern": task["arrays"].fingerprint}
    assert matrix_name(task) == f"inline-{spec['pattern'][:12]}"
    # the key ignores the arrays: the fingerprint already names them
    assert request_key({k: v for k, v in task.items() if k != "arrays"}) \
        == request_key(task)
    # values are checked and dropped: they never change the key
    with_values = _inline(matrix)
    with_values["csr"]["values"] = [2.0] * matrix.nnz
    assert request_key(normalize_request("advise", {"matrix": with_values})) \
        == request_key(task)


def test_pattern_bytes_round_trip_and_refingerprint():
    task = normalize_request("advise", {"matrix": _inline(banded(64, 4, 3, seed=0))})
    pattern = task["arrays"]
    data = pattern.to_bytes()
    again = Pattern.from_bytes(data)
    assert again.fingerprint == pattern.fingerprint
    assert np.array_equal(again.rowptr, pattern.rowptr)
    assert np.array_equal(again.colidx, pattern.colidx)
    flipped = bytearray(data)
    flipped[-1] ^= 1
    assert Pattern.from_bytes(bytes(flipped)).fingerprint != pattern.fingerprint
    with pytest.raises(ValueError):
        Pattern.from_bytes(data[:-1])


def test_inline_matrix_wraps_the_arrays_without_copying():
    task = normalize_request("advise", {"matrix": _inline(banded(64, 4, 3, seed=0))})
    matrix = matrix_from_task(task)
    assert matrix.rowptr is task["arrays"].rowptr
    assert matrix.colidx is task["arrays"].colidx


def test_named_matrix_materializes_from_collection():
    spec = collection("tiny")[0]
    task = normalize_request("classify", {
        "matrix": {"name": spec.name, "collection": "tiny"},
    })
    assert matrix_name(task) == spec.name
    rebuilt = matrix_from_task(task)
    assert rebuilt.nnz == spec.materialize().nnz


def _csr(rowptr, colidx, num_rows=2, num_cols=2, **extra):
    return {"matrix": {"csr": {"num_rows": num_rows, "num_cols": num_cols,
                               "rowptr": rowptr, "colidx": colidx, **extra}}}


def _coo(rows, cols, num_rows=2, num_cols=2):
    return {"matrix": {"coo": {"num_rows": num_rows, "num_cols": num_cols,
                               "rows": rows, "cols": cols}}}


@pytest.mark.parametrize("payload, fragment", [
    ({}, "matrix"),
    ({"matrix": {"csr": {"num_rows": 2, "num_cols": 2}}}, "rowptr"),
    ({"matrix": {"coo": {"num_rows": 2, "num_cols": 2,
                         "rows": [0], "cols": [0, 1]}}}, "same length"),
    ({"matrix": {"name": "x", "collection": "bogus"}}, "collection"),
    ({"matrix": {"csr": {"num_rows": -1, "num_cols": 2,
                         "rowptr": [0], "colidx": []}}}, "non-negative"),
    ({"matrix": {"coo": {"num_rows": 2, "num_cols": 2, "rows": [0],
                         "cols": [0]}}, "setup": {"bogus": 1}}, "unknown setup"),
    ({"matrix": {"coo": {"num_rows": 2, "num_cols": 2, "rows": [0],
                         "cols": [0]}}, "timeout": -1}, "timeout"),
    # the trust boundary: every index is checked here, at ingress
    (_csr([0, 1, 2], [0, 2**31], num_cols=2**31 - 1), "csr.colidx out of range"),
    (_csr([0, 1, 2], [0, 2**63]), "fit in 64 bits"),
    (_csr([0, 1, 2], [0, -2**63 - 1]), "fit in 64 bits"),
    (_csr([0, 1, 2], [0, 1.9]), "csr.colidx must contain integers"),
    (_csr([0, 1.0, 2], [0, 1]), "csr.rowptr must contain integers"),
    (_csr([0, 1, 2], [0, True]), "csr.colidx must contain integers"),
    (_csr([0, 1, 2], [0, "1"]), "csr.colidx must contain integers"),
    (_csr([0, 2, 1], [0, 1]), "non-decreasing"),
    (_csr([1, 1, 2], [0, 1]), "rowptr[0]"),
    (_csr([0, 1, 2], [0, 1, 1]), "rowptr[-1]"),
    (_csr([0, 1], [0]), "num_rows+1"),
    (_csr([0, 1, 2], [0, 2]), "csr.colidx out of range"),
    (_csr([0, 1, 2], [0, -1]), "csr.colidx out of range"),
    (_csr([0, 1, 2], [0, 1], values=[1.0]), "csr.values"),
    (_csr([0, 1, 2], [0, 1], values=[1.0, "x"]), "csr.values"),
    (_csr([0, 1, 2], [0, 1], num_cols=2**31), "csr.num_cols"),
    (_csr([0, 1, 2], [0, 1], num_rows=2.0), "csr.num_rows"),
    (_coo([0, 2], [0, 1]), "coo.rows out of range"),
    (_coo([0, 1], [0, 5]), "coo.cols out of range"),
    (_coo([0, False], [0, 1]), "coo.rows must contain integers"),
    (_coo([0, 1], [0, 2**64]), "fit in 64 bits"),
    (_coo([0], [0], num_rows=2**31 - 1), "coo.num_rows must be at most"),
])
def test_malformed_requests_rejected(payload, fragment):
    with pytest.raises(RequestError) as err:
        normalize_request("advise", payload)
    assert fragment in str(err.value)


def test_unknown_named_matrix_is_404():
    with pytest.raises(RequestError) as err:
        normalize_request("advise", {"matrix": {"name": "no_such", "collection": "tiny"}})
    assert err.value.status == 404


def test_unknown_endpoint_is_404():
    with pytest.raises(RequestError) as err:
        normalize_request("frobnicate", {"matrix": {"name": "x"}})
    assert err.value.status == 404


def test_predict_policies_are_canonicalized():
    m = _inline(banded(64, 4, 3, seed=0))
    a = normalize_request("predict", {
        "matrix": m, "policies": [{"l2_sector1_ways": 5}],
    })
    b = normalize_request("predict", {
        "matrix": m,
        "policies": [{"l2_sector1_ways": 5, "l1_sector1_ways": 0,
                      "sector1_arrays": ["colidx", "values"]}],
    })
    assert request_key(a) == request_key(b)


def test_bad_policy_rejected():
    with pytest.raises(RequestError):
        normalize_request("predict", {
            "matrix": _inline(banded(64, 4, 3, seed=0)),
            "policies": [{"sector1_arrays": ["bogus_array"]}],
        })

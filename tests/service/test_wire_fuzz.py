"""Hypothesis fuzzing of the daemon's trust boundary.

Arbitrary inline CSR/COO payloads and delta batches go through
:meth:`LocalityService.handle_request` exactly as the HTTP layer hands
them over.  A malformed input must get a 4xx with a structured error,
never a 5xx; a valid one must get the answer an in-process
:class:`~repro.core.SectorAdvisor` gives on the same pattern.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.report import canonical_json
from repro.core import SectorAdvisor
from repro.delta.delta import DeltaError, MatrixDelta
from repro.machine import scaled_machine
from repro.matrices import banded
from repro.service import ServiceConfig
from repro.service.app import LocalityService
from repro.service.protocol import MAX_COO_ROWS
from repro.spmv.csr import CSRMatrix

MACHINE = scaled_machine(16)
SETUP = {"num_threads": 1, "scale": 16}
BASE = banded(12, 3, 2, seed=3)

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Entries a hostile or buggy client may put where an index belongs.
JUNK = st.one_of(
    st.integers(-3, 14),
    st.sampled_from([2**31 - 1, 2**31, 2**32, 2**63 - 1, 2**63, -2**63 - 1,
                     2**64, 10**30]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    loop = asyncio.new_event_loop()
    service = LocalityService(ServiceConfig(
        jobs=1, cache_dir=str(tmp_path_factory.mktemp("fuzz_cache"))))

    def post(path: str, payload: dict) -> tuple[int, dict]:
        status, response, _ = loop.run_until_complete(service.handle_request(
            "POST", path, json.dumps(payload).encode()))
        return status, response

    yield post
    service.close()
    loop.close()


@st.composite
def inline_payloads(draw):
    """A valid inline pattern, sometimes with one field corrupted."""
    num_rows = draw(st.integers(0, 8))
    num_cols = draw(st.integers(1, 8))
    rows = [sorted(draw(st.sets(st.integers(0, num_cols - 1), max_size=4)))
            for _ in range(num_rows)]
    rowptr = np.cumsum([0] + [len(r) for r in rows]).tolist()
    colidx = [c for r in rows for c in r]
    if draw(st.booleans()):
        form = {"num_rows": num_rows, "num_cols": num_cols,
                "rowptr": rowptr, "colidx": colidx}
        kind = "csr"
    else:
        coo_rows = [i for i, r in enumerate(rows) for _ in r]
        order = draw(st.permutations(range(len(colidx))))
        form = {"num_rows": num_rows, "num_cols": num_cols,
                "rows": [coo_rows[i] for i in order],
                "cols": [colidx[i] for i in order]}
        kind = "coo"
    if draw(st.booleans()):
        form["values"] = [1.5] * len(colidx)
    if draw(st.integers(0, 2)):
        field = draw(st.sampled_from(sorted(form)))
        if isinstance(form[field], list) and form[field] and draw(st.booleans()):
            form[field][draw(st.integers(0, len(form[field]) - 1))] = draw(JUNK)
        else:
            form[field] = draw(JUNK)
    return {kind: form}


def reference_matrix(matrix: dict) -> CSRMatrix | None:
    """The pattern a payload denotes, or None when it is malformed."""
    kind, form = next(iter(matrix.items()))
    index_fields = ("rowptr", "colidx") if kind == "csr" else ("rows", "cols")
    dims = (form.get("num_rows"), form.get("num_cols"))
    if not all(type(d) is int and 0 <= d < 2**31 for d in dims):
        return None
    if kind == "coo" and dims[0] > MAX_COO_ROWS:
        return None
    if not all(isinstance(form.get(f), list)
               and all(type(v) is int for v in form[f]) for f in index_fields):
        return None
    values = form.get("values")
    if values is not None and not (
            isinstance(values, list)
            and all(type(v) in (int, float) for v in values)):
        return None
    try:
        if kind == "csr":
            nnz = len(form["colidx"])
            if values is not None and len(values) != nnz:
                return None
            return CSRMatrix(*dims, np.array(form["rowptr"], dtype=np.int64),
                             np.array(form["colidx"], dtype=np.int64),
                             np.ones(nnz))
        if values is not None and len(values) != len(form["rows"]):
            return None
        return CSRMatrix.from_coo(*dims, np.array(form["rows"], dtype=np.int64),
                                  np.array(form["cols"], dtype=np.int64))
    except (ValueError, OverflowError):
        return None


def expected_advice(matrix: CSRMatrix) -> str | None:
    """The in-process answer, or None when the model rejects the pattern."""
    try:
        return canonical_json(
            SectorAdvisor(MACHINE, num_threads=1).recommend(matrix).to_dict())
    except ValueError:
        return None


def assert_client_error(status: int, response: dict) -> None:
    assert 400 <= status < 500, (status, response)
    assert response["ok"] is False
    assert response["error"]["type"] and response["error"]["message"]


def assert_answer(status: int, response: dict, matrix: CSRMatrix) -> None:
    expected = expected_advice(matrix)
    if expected is None:
        assert_client_error(status, response)
    else:
        assert status == 200, (status, response)
        assert canonical_json(response["result"]) == expected


@FUZZ
@given(matrix=inline_payloads())
def test_inline_payloads_are_answered_or_rejected_with_4xx(daemon, matrix):
    status, response = daemon("/advise", {"matrix": matrix, "setup": SETUP})
    reference = reference_matrix(matrix)
    if reference is None:
        assert_client_error(status, response)
    else:
        assert_answer(status, response, reference)


_ROWS = np.repeat(np.arange(BASE.num_rows), np.diff(BASE.rowptr))
PRESENT = sorted(zip(_ROWS.tolist(), BASE.colidx.tolist()))
ABSENT = sorted({(r, c) for r in range(BASE.num_rows)
                 for c in range(BASE.num_cols)} - set(PRESENT))


@st.composite
def delta_batches(draw):
    """A valid edit batch against ``BASE``, sometimes with one corruption."""
    batch = {
        "inserts": [list(e) for e in draw(
            st.lists(st.sampled_from(ABSENT), max_size=4, unique=True))],
        "deletes": [list(e) for e in draw(
            st.lists(st.sampled_from(PRESENT), max_size=4, unique=True))],
    }
    if draw(st.integers(0, 2)):
        edits = batch[draw(st.sampled_from(sorted(batch)))]
        junk_entry = draw(st.lists(JUNK, min_size=1, max_size=4))
        if edits and draw(st.booleans()):
            edit = edits[draw(st.integers(0, len(edits) - 1))]
            edit[draw(st.integers(0, len(edit) - 1))] = draw(JUNK)
        else:
            edits.append(junk_entry)
    return batch


@FUZZ
@given(batch=delta_batches())
def test_delta_batches_are_answered_or_rejected_with_4xx(daemon, batch):
    status, base = daemon("/advise", {
        "matrix": {"csr": {"num_rows": BASE.num_rows, "num_cols": BASE.num_cols,
                           "rowptr": BASE.rowptr.tolist(),
                           "colidx": BASE.colidx.tolist()}},
        "setup": SETUP})
    assert status == 200, base
    status, response = daemon("/delta", {"base": base["key"], "delta": batch})
    try:
        edited = MatrixDelta.from_dict(batch).apply(BASE).matrix
    except DeltaError:
        assert_client_error(status, response)
    else:
        assert_answer(status, response, edited)

"""Capped reuse-distance passes equal the clipped uncapped distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reuse import COLD, reuse_distances, steady_state_reuse_distances
from repro.reuse import cdq
from repro.reuse.fenwick import stable_order

CAPS = [1, 2, 4, 16]


def clipped(rd, cap):
    """``min(rd, cap)`` with :data:`COLD` kept as it is."""
    return np.where(rd == COLD, COLD, np.minimum(rd, cap))


def assert_capped_matches(lines, groups=None, first=None, caps=CAPS):
    """Both kernels, every cap plus one above the trace length."""
    first_lines, first_groups = first if first is not None else (None, None)
    for cap in [*caps, lines.shape[0] + 1]:
        np.testing.assert_array_equal(
            reuse_distances(lines, groups, cap=cap),
            clipped(reuse_distances(lines, groups), cap),
        )
        np.testing.assert_array_equal(
            steady_state_reuse_distances(
                lines, groups, first_lines, first_groups, cap=cap
            ),
            clipped(
                steady_state_reuse_distances(lines, groups, first_lines, first_groups),
                cap,
            ),
        )


def random_trace(seed, n, lines, groups):
    rng = np.random.default_rng(seed)
    return rng.integers(0, lines, n), rng.integers(0, groups, n)


def adversarial_trace(cap, repeats=3):
    """Windows far past the scan depth over fewer than ``cap`` lines.

    Line 0 is reused across a long ping-pong of at most ``cap - 1`` other
    lines, so no scan reaches ``cap`` and the subset count must decide it.
    """
    others = np.arange(1, cap)
    filler = np.resize(others, 3 * cdq._SCAN_DEPTH)
    return np.concatenate([np.array([0]), *([filler, np.array([0])] * repeats)])


def test_empty_trace():
    empty = np.empty(0, dtype=np.int64)
    for cap in CAPS:
        assert reuse_distances(empty, cap=cap).shape == (0,)
        assert steady_state_reuse_distances(empty, cap=cap).shape == (0,)


def test_single_access():
    one = np.array([7])
    for cap in CAPS:
        assert reuse_distances(one, cap=cap).tolist() == [COLD]
        assert steady_state_reuse_distances(one, cap=cap).tolist() == [0]


def test_rejects_non_positive_cap():
    for cap in (0, -3):
        with pytest.raises(ValueError):
            reuse_distances(np.array([1, 1]), cap=cap)
        with pytest.raises(ValueError):
            steady_state_reuse_distances(np.array([1, 1]), cap=cap)


def test_rejects_non_integer_cap():
    # a float cap used to be truncated (2.9 reported distance 3 as 2) and
    # a bool taken as 1
    for cap in (2.9, 3.0, True, np.bool_(True), "4"):
        with pytest.raises(TypeError):
            reuse_distances(np.array([1, 2, 1]), cap=cap)
        with pytest.raises(TypeError):
            steady_state_reuse_distances(np.array([1, 2, 1]), cap=cap)
    assert reuse_distances(np.array([1, 2, 1]), cap=np.int64(1)).tolist() == [
        COLD, COLD, 1
    ]


def test_scan_distances_saturate_at_the_cap():
    n = 100
    trace = np.concatenate([np.arange(n), np.arange(n)])
    rd = reuse_distances(trace, cap=16)
    assert np.all(rd[:n] == COLD)
    assert np.all(rd[n:] == 16)


@settings(max_examples=150, deadline=None)
@given(
    trace=st.lists(st.integers(0, 9), min_size=1, max_size=120),
    use_groups=st.booleans(),
    data=st.data(),
)
def test_small_traces(trace, use_groups, data):
    lines = np.array(trace, dtype=np.int64)
    groups = None
    if use_groups:
        groups = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=len(trace),
                               max_size=len(trace))),
            dtype=np.int64,
        )
    assert_capped_matches(lines, groups)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(50, 3000),
    num_lines=st.integers(2, 300),
    num_groups=st.integers(1, 6),
    separate_first=st.booleans(),
)
def test_multi_group_traces(seed, n, num_lines, num_groups, separate_first):
    # long enough for windows past the dense steps into the block scans
    lines, groups = random_trace(seed, n, num_lines, num_groups)
    first = None
    if separate_first:
        first = random_trace(seed + 1, n // 2, num_lines, num_groups)
    assert_capped_matches(lines, groups, first)


@pytest.mark.parametrize("cap", [2, 4, 16])  # with cap 1 any window decides
def test_adversarial_windows_use_the_subset_count(cap, monkeypatch):
    calls = []
    subset = cdq._subset_dominance_counts

    def counting(prev, queries):
        calls.append(queries.shape[0])
        return subset(prev, queries)

    monkeypatch.setattr(cdq, "_subset_dominance_counts", counting)
    lines = adversarial_trace(cap)
    groups = np.zeros(lines.shape[0], dtype=np.int64)
    first = (lines[::-1].copy(), groups)
    assert_capped_matches(lines, groups, first, caps=[cap])
    assert calls, "no query reached the subset dominance count"
    rd = reuse_distances(lines, cap=cap)
    assert rd[-1] == cap - 1


def test_cap_at_scan_depth_uses_the_full_count():
    lines, groups = random_trace(3, 4000, 3000, 2)
    assert_capped_matches(lines, groups, caps=[cdq._SCAN_DEPTH, 2 * cdq._SCAN_DEPTH])


def test_wide_group_labels_keep_the_stable_order():
    # labels past 2**16 take more radix passes; both orders are stable
    lines, groups = random_trace(4, 2000, 50, 4)
    wide = groups * 2**20
    np.testing.assert_array_equal(
        reuse_distances(lines, wide), reuse_distances(lines, groups)
    )
    np.testing.assert_array_equal(
        stable_order(groups), np.argsort(groups, kind="stable")
    )
    np.testing.assert_array_equal(
        stable_order(wide), np.argsort(wide, kind="stable")
    )

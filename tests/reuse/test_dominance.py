"""The merge dominance count, and the radix stable order of the reuse engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reuse import COLD, reuse_distances
from repro.reuse import cdq
from repro.reuse.fenwick import stable_order

#: lengths at and around every power of two up to 256: each trailing
#: partial row shape of the merge levels
LENGTHS = sorted({max(1, 2**k + d) for k in range(9) for d in (-1, 0, 1)})


def brute_counts(prev):
    """``#{ j < i : prev[j] <= prev[i] }`` by the O(n^2) definition."""
    prev = np.asarray(prev, dtype=np.int64)
    below = prev[None, :] <= prev[:, None]
    return np.tril(below, k=-1).sum(axis=1).astype(np.int64)


@st.composite
def prev_arrays(draw):
    """``prev``-like arrays in ``[-1, n)``, often mostly cold ``-1`` ties."""
    n = draw(st.sampled_from(LENGTHS))
    cold = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    prev = rng.integers(-1, n, n)
    prev[rng.random(n) < cold] = -1
    return prev


@settings(max_examples=200, deadline=None)
@given(prev=prev_arrays())
def test_counts_match_the_brute_count(prev):
    np.testing.assert_array_equal(cdq._dominance_counts(prev), brute_counts(prev))


@settings(max_examples=100, deadline=None)
@given(prev=prev_arrays(), acc_bits=st.integers(1, 3))
def test_narrow_count_fields_match_the_brute_count(prev, acc_bits):
    # a count field of a few bits forces the levels that add straight into
    # the answers, which real widths reach at 2**21 accesses
    widths = cdq._key_widths
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cdq, "_key_widths",
                      lambda n: (widths(n)[0], min(acc_bits, widths(n)[1])))
        got = cdq._dominance_counts(prev)
    np.testing.assert_array_equal(got, brute_counts(prev))


def test_wide_trace_adds_its_top_levels_directly():
    n = 2**21 + 5
    w, a = cdq._key_widths(n)
    assert a < w, "this length must narrow the count field"
    lines = 1000
    rd = reuse_distances(np.arange(n, dtype=np.int64) % lines)
    assert np.all(rd[:lines] == COLD)
    assert np.all(rd[lines:] == lines - 1)


def test_rejects_traces_too_large_for_int64_keys():
    with pytest.raises(ValueError, match="too large"):
        cdq._key_widths(2**31)
    assert cdq._key_widths(2**31 - 1) == (31, 1)


@pytest.mark.parametrize(
    "bound", [2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**48 - 1, 2**48, 2**62]
)
def test_stable_order_at_digit_boundaries(bound):
    rng = np.random.default_rng(bound % 1000)
    keys = rng.integers(0, 8, 500) + (bound - 7)
    keys = np.concatenate([keys, rng.integers(0, bound + 1, 500), [bound, 0]])
    rng.shuffle(keys)
    np.testing.assert_array_equal(stable_order(keys), np.argsort(keys, kind="stable"))


def test_stable_order_of_other_inputs():
    assert stable_order(np.empty(0, dtype=np.int64)).shape == (0,)
    for keys in (
        np.array([3, -1, 3, 0, -1]),  # negative keys take the plain sort
        np.array([2, 1, 2, 1], dtype=np.uint8),
        np.array([True, False, True]),
        np.array([0.5, 0.25, 0.5]),
    ):
        np.testing.assert_array_equal(
            stable_order(keys), np.argsort(keys, kind="stable")
        )

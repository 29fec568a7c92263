"""Vectorized exact reuse distance (offline divide-and-conquer counting).

This is the production stack-processing path of the reproduction.  It
computes exact LRU stack distances for traces of millions of references in
pure NumPy, which makes 490-matrix sweeps feasible on one core.

Derivation
----------
Let ``prev[i]`` be the previous access of the same line (same group), or -1.
The reuse distance is the number of distinct lines referenced strictly
between ``prev[i]`` and ``i``.  An access ``j`` in that window contributes a
*new* line iff it is the window's first occurrence of its line, i.e. iff
``prev[j] <= prev[i]``.  Hence::

    RD(i) = #{ j : prev[i] < j < i  and  prev[j] <= prev[i] }.

Every ``j <= prev[i]`` satisfies ``prev[j] < j <= prev[i]`` trivially, so::

    RD(i) = #{ j < i : prev[j] <= prev[i] } - (prev[i] + 1)

— a pure 2-D dominance count over the static point set ``(j, prev[j])``.

Merge count
-----------
The count is evaluated bottom-up, as a merge sort whose merges count.
Each access becomes one ``int64`` key with three bit fields::

    key = (prev + 1) << (w + a)  |  position << a  |  count

with ``w = n.bit_length()`` and ``a = min(w, 63 - 2w)``.  Key order is
``(prev, position)``; since ``(prev, position)`` is unique, the count
field in the low bits never changes the order.  For ``j < i``,
``key_j < key_i`` holds exactly when ``prev[j] <= prev[i]``.

At block size ``b`` every aligned row of ``2b`` keys holds two runs that
the level below sorted.  One stable row sort merges them (timsort finds
the two runs, so the merge is linear).  A key came from the right run iff
bit ``b`` of its position is set, and its count at this level is the
number of left-run keys before it in the merged row: its index in the row
minus its rank among the right-run keys, which keep their order.  Those
counts are added into the keys' count fields in place.  Each ordered pair
``(j, i)`` is counted exactly once, at the level where the two first
share a row, so after the top level one scatter by position reads the
answers out of the count fields.  The trailing partial row of each level
is merged as one more row; nothing is padded to a power of two.

Every level is one batched row sort plus O(n) array work in C, and the
Python-level work is O(log n): O(n log n) comparisons in all.  The levels
``b <= 2**a - 1`` add at most ``2**a - 1`` to a key, so the count field
never overflows.  From ``n >= 2**21`` on, ``a < w`` and the wider levels
add their counts into the answer array directly, by position.

Groups (cache partitions, cache sets, private caches, CMG segments) are
handled by stable-sorting the trace by group first: each group's accesses
become contiguous, reuse windows never cross group boundaries, and the
identity above carries over unchanged with group-local ``prev``.

Capped passes
-------------
A caller that only compares distances against capacities of at most
``cap`` lines (a set-associative cache asks about its way count) can pass
``cap`` and receive ``min(RD, cap)``.  Such a pass never runs the full
dominance count.  It scans each window backwards from the access, adding
``prev[j] <= prev[i]``, and stops at ``cap`` or at the window's end: first
a few dense shifted compares over every access (a window of length 0 is
distance 0 at no cost), then doubling 2-D blocks for the accesses still
undecided.  The few that stay undecided past a fixed depth (long windows
over fewer than ``cap`` distinct lines) get an exact dominance count
restricted to them, which bounds the worst case.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fenwick import compute_prev, stable_order
from .naive import COLD

#: backward steps the dense phase of a capped pass takes for every access
_DENSE_STEPS = 16
#: window depth the block phase scans before the subset dominance count;
#: caps at or above it fall back to the full count
_SCAN_DEPTH = 1024
#: elements of one 2-D scan or subset-count block
_BLOCK_BUDGET = 1 << 16


def _key_widths(n: int) -> tuple[int, int]:
    """Bit widths ``(w, a)`` of the position and count fields of a key.

    ``w`` holds a position or ``prev + 1`` (both at most ``n``).  The count
    field takes what the two leave of 63 bits, but never more than ``w``:
    a count is at most ``n - 1``.
    """
    w = n.bit_length()
    a = min(w, 63 - 2 * w)
    if a < 1:
        raise ValueError(f"trace of length {n} too large for int64 keys")
    return w, a


def _dominance_counts(prev: np.ndarray) -> np.ndarray:
    """For each i, count ``#{ j < i : prev[j] <= prev[i] }`` (merge count).

    ``prev`` holds values in ``[-1, n)``.  See the module docstring for the
    key layout; peak working memory is 3.5 ``int64`` arrays of the trace's
    length.
    """
    n = prev.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    w, a = _key_widths(n)
    pos_mask = (1 << w) - 1
    acc_max = (1 << a) - 1
    keys = np.add(prev, 1, dtype=np.int64)
    keys <<= w + a
    keys |= np.arange(n, dtype=np.int64) << a
    # levels b <= acc_max add at most b each, acc_max in all: the count
    # field never overflows, and wider levels add into `ans` directly
    ans = np.zeros(n, dtype=np.int64) if a < w else None
    ranks = np.arange(n // 2, dtype=np.int64)
    b = 1
    while b < n:
        step = 2 * b
        m = n // step
        full = m * step
        # a remainder of <= b keys is one sorted run, merged at a higher level
        end = n if n - full > b else full
        if m:
            keys[:full].reshape(m, step).sort(axis=1, kind="stable")
        if end > full:
            keys[full:end].sort(kind="stable")
        right = np.flatnonzero((keys[:end] & (b << a)) != 0)
        # the k-th right key of row r sits at `right`; its rank j among all
        # right keys is r * b + k, so its count right - (r * step + k) is
        # right - j - (j & -b)
        j = ranks[: right.shape[0]]
        counts = right - j
        counts -= j & -b
        if b > acc_max:
            ans[(keys[right] >> a) & pos_mask] += counts
        else:
            keys[right] += counts
        del right, counts
        b = step
    del ranks
    pos = keys >> a
    pos &= pos_mask
    keys &= acc_max
    if ans is None:
        ans = np.empty(n, dtype=np.int64)
        ans[pos] = keys
    else:
        ans[pos] += keys
    return ans


def _subset_dominance_counts(prev: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``#{ j < i : prev[j] <= prev[i] }`` for the sorted indices ``queries``.

    Level by level, like :func:`_dominance_counts`, but visiting only the
    sibling pairs whose right block holds a query: each such pair's left
    block is sorted and searched for that pair's queries alone.
    """
    n = prev.shape[0]
    ans = np.zeros(queries.shape[0], dtype=np.int64)
    offset = np.int64(n + 2)
    b = 1
    while b < n:
        step = 2 * b
        pair = queries // step
        right = np.flatnonzero(queries - pair * step >= b)
        if right.size:
            pair = pair[right]
            new_pair = np.ones(pair.shape[0], dtype=bool)
            new_pair[1:] = pair[1:] != pair[:-1]
            starts = pair[new_pair] * step
            slot = np.cumsum(new_pair) - 1  # left-block index of each query
            del pair, new_pair
            left_blocks = sliding_window_view(prev, b)
            per_chunk = max(1, _BLOCK_BUDGET // b)
            for c0 in range(0, starts.shape[0], per_chunk):
                c1 = min(c0 + per_chunk, starts.shape[0])
                left = left_blocks[starts[c0:c1]]
                left.sort(axis=1)
                left += np.arange(c1 - c0, dtype=np.int64)[:, None] * offset
                lo, hi = np.searchsorted(slot, (c0, c1))
                local = slot[lo:hi] - c0
                hits = np.searchsorted(
                    left.ravel(),
                    prev[queries[right[lo:hi]]] + local * offset,
                    side="right",
                )
                ans[right[lo:hi]] += hits - local * b
        b = step
    return ans


def _capped_window_counts(prev: np.ndarray, cap: int) -> np.ndarray:
    """``min(RD, cap)`` of every reused access, from bounded window scans.

    ``prev`` is the group-sorted previous-occurrence array; the entries of
    cold accesses (``prev < 0``) are left for the caller to overwrite.
    """
    n = prev.shape[0]
    steps = _DENSE_STEPS
    pad = 2 * _SCAN_DEPTH
    if cap >= _SCAN_DEPTH or n + pad >= 2**31:  # scans run on int32 positions
        return np.minimum(_dominance_counts(prev) - (prev + 1), cap)
    # -1 before the trace: like every position at or before prev[i], the
    # pad compares true, so the scans subtract it with those positions
    padded = np.full(n + pad, -1, dtype=np.int32)
    padded[pad:] = prev
    cur = padded[pad:]

    # dense phase: the last `steps` positions of every access by shifted
    # contiguous compares, then minus the ones at or before prev[i]
    counts = np.zeros(n, dtype=np.int8)
    for k in range(1, steps + 1):
        counts += padded[pad - k : pad + n - k] <= cur
    excess = cur + np.int32(steps + 1)
    excess -= np.arange(n, dtype=np.int32)  # steps - window length
    undecided = excess < 0
    np.maximum(excess, 0, out=excess)
    np.subtract(counts, excess, out=counts, casting="unsafe")  # in [0, steps]
    del excess
    undecided &= counts < cap
    undecided &= cur >= 0
    out = counts.astype(np.int64)
    np.minimum(out, cap, out=out)
    queries = np.flatnonzero(undecided).astype(np.int32)
    del undecided
    if not queries.size:
        return out
    limit = cur[queries]
    window = queries - limit - 1
    counts = counts[queries].astype(np.int32)

    # block phase: doubling blocks further back, chunked to the budget; a
    # query leaves once it reaches `cap` or its window's end
    scanned = block = steps
    while queries.size and scanned < _SCAN_DEPTH:
        blocks = sliding_window_view(padded, block)
        rows = max(1, _BLOCK_BUDGET // block)
        for r0 in range(0, queries.shape[0], rows):
            chunk = slice(r0, r0 + rows)
            start = queries[chunk] - (scanned + block)
            lim = limit[chunk]
            hits = np.count_nonzero(blocks[start + pad] <= lim[:, None], axis=1)
            # positions start .. prev[i] all compared true
            behind = lim + 1 - start
            np.maximum(behind, 0, out=behind)
            counts[chunk] += hits - behind
        scanned += block
        block *= 2
        done = (counts >= cap) | (window <= scanned)
        if done.any():
            out[queries[done]] = np.minimum(counts[done], cap)
            keep = ~done
            queries, limit = queries[keep], limit[keep]
            window, counts = window[keep], counts[keep]
        del done
    del padded, cur, window, counts, limit

    # deep windows over fewer than `cap` lines: exact subset count
    if queries.size:
        queries = queries.astype(np.int64)
        rd = _subset_dominance_counts(prev, queries) - (prev[queries] + 1)
        out[queries] = np.minimum(rd, cap)
    return out


def _window_distances(prev: np.ndarray, cap: int | None) -> np.ndarray:
    """Reuse distances (``min(RD, cap)`` with a cap) of every reused access."""
    if cap is None:
        return _dominance_counts(prev) - (prev + 1)
    return _capped_window_counts(prev, cap)


def _check_cap(cap: int | None) -> int | None:
    """Validate an optional distance cap: a positive integer, not a bool."""
    if cap is None:
        return None
    if isinstance(cap, (bool, np.bool_)):
        raise TypeError(f"cap must be an integer, got {cap!r}")
    cap = operator.index(cap)  # TypeError for floats and other non-integers
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    return cap


def reuse_distances(
    trace: np.ndarray, groups: np.ndarray | None = None, cap: int | None = None
) -> np.ndarray:
    """Exact reuse distances of a trace, optionally per group.

    Parameters
    ----------
    trace:
        Integer line identifiers, one per access, in program order.
    groups:
        Optional integer group label per access.  Accesses only interact
        within their group (separate LRU stacks): used for cache partitions
        (sector 0 / sector 1), cache sets of a set-associative cache,
        private caches of different cores, and CMG segments — or any
        composition of these encoded into a single integer key.
    cap:
        Optional positive bound: finite distances are reported as
        ``min(RD, cap)``, decided by bounded window scans instead of the
        full dominance count.  For callers that only compare distances
        against capacities of at most ``cap``.

    Returns
    -------
    ``int64`` array aligned with ``trace``; first accesses get
    :data:`repro.reuse.naive.COLD`.
    """
    cap = _check_cap(cap)
    trace = np.ascontiguousarray(trace, dtype=np.int64)
    n = trace.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if trace.min() < 0:
        raise ValueError("line identifiers must be non-negative")
    if groups is None:
        order = None
        keys = trace
    else:
        groups = np.ascontiguousarray(groups, dtype=np.int64)
        if groups.shape != (n,):
            raise ValueError("groups must have the same length as trace")
        if groups.min() < 0:
            raise ValueError("group labels must be non-negative")
        order = stable_order(groups)
        span = int(trace.max()) + 1
        gmax = int(groups.max())
        if gmax and gmax > (2**62) // span:
            raise ValueError("group/line key space too large to combine")
        keys = groups[order] * span + trace[order]
    prev = compute_prev(keys)
    rd = _window_distances(prev, cap)
    rd[prev < 0] = COLD
    if order is None:
        return rd
    out = np.empty(n, dtype=np.int64)
    out[order] = rd
    return out


def miss_count(rd: np.ndarray, capacity_lines: int, mask: np.ndarray | None = None) -> int:
    """Number of misses for a fully associative LRU cache of given capacity.

    Implements the paper's Eq. (1): an access misses iff its reuse distance
    is at least the capacity (cold accesses always miss).  ``mask`` restricts
    the count to a subset of accesses (e.g. one partition or one array).
    """
    if capacity_lines < 0:
        raise ValueError("capacity must be non-negative")
    hits_possible = rd < capacity_lines
    if mask is not None:
        return int(np.count_nonzero(~hits_possible & mask))
    return int(np.count_nonzero(~hits_possible))


def hit_mask(rd: np.ndarray, capacity_lines: int) -> np.ndarray:
    """Boolean mask of accesses that *hit* in an LRU cache of given capacity."""
    if capacity_lines < 0:
        raise ValueError("capacity must be non-negative")
    return rd < capacity_lines

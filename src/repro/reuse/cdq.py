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
It is evaluated bottom-up (CDQ divide and conquer): at block size ``b``,
every pair of sibling blocks contributes, for each query ``i`` in the right
block, the count of points ``j`` in the left block with
``prev[j] <= prev[i]``.  Each ordered pair ``(j, i)`` is counted exactly
once, at the level where the two first share a block.  All blocks of one
level are processed in a single batched ``np.searchsorted`` by offsetting
each block's values into disjoint key ranges, so the Python-level work is
O(log n) with all inner loops in C: O(n log^2 n) total.

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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fenwick import compute_prev
from .naive import COLD

#: backward steps the dense phase of a capped pass takes for every access
_DENSE_STEPS = 16
#: window depth the block phase scans before the subset dominance count;
#: caps at or above it fall back to the full count
_SCAN_DEPTH = 1024
#: elements of one 2-D scan or subset-count block
_BLOCK_BUDGET = 1 << 16


def _stable_group_order(groups: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative group labels.

    Labels below ``2**16`` are sorted as ``uint16``, for which numpy's
    stable sort is a radix sort; the permutation is the same either way.
    """
    if groups.shape[0] and int(groups.max()) < 2**16:
        return np.argsort(groups.astype(np.uint16), kind="stable")
    return np.argsort(groups, kind="stable")


def _dominance_counts(prev: np.ndarray) -> np.ndarray:
    """For each i, count ``#{ j < i : prev[j] <= prev[i] }`` (CDQ bottom-up).

    Blocks are truncated to the true trace length: the trailing partial
    block of each level is processed exactly instead of padding the input
    to the next power of two (which overshoots working memory by up to 2x
    on the hot 4M+9nnz traces).  One scratch buffer holds the sorted left
    halves and is reused across all levels.
    """
    n = prev.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    offset = np.int64(n + 2)  # values span [-1, n-1]: disjoint per-block ranges
    if (n // 2 + 1) * offset >= np.iinfo(np.int64).max // 2:
        raise ValueError(f"trace of length {n} too large for int64 block keys")
    ans = np.zeros(n, dtype=np.int64)
    top = 1 << int(n - 1).bit_length() if n > 1 else 1
    # scratch for the sorted+offset left halves: complete pairs use at most
    # n/2 entries, and the top-level tail block can use up to top/2
    scratch = np.empty(max(top // 2, 1), dtype=np.int64)
    b = 1
    while b < top:
        step = 2 * b
        m = n // step  # complete (left, right) sibling pairs
        if m:
            pairs = prev[: m * step].reshape(m, step)
            left = scratch[: m * b].reshape(m, b)
            np.copyto(left, pairs[:, :b])
            left.sort(axis=1)
            offsets = np.arange(m, dtype=np.int64)[:, None] * offset
            left += offsets
            flat_queries = (pairs[:, b:] + offsets).ravel()
            counts = np.searchsorted(left.ravel(), flat_queries, side="right")
            counts -= np.repeat(np.arange(m, dtype=np.int64) * b, b)
            ans[: m * step].reshape(m, step)[:, b:] += counts.reshape(m, b)
        tail = m * step
        # trailing pair with a full left block and a partial right block;
        # a remainder of <= b elements is a lone left block (queried at a
        # higher level) and contributes nothing here
        if n - tail > b:
            tail_left = scratch[:b]
            np.copyto(tail_left, prev[tail : tail + b])
            tail_left.sort()
            ans[tail + b : n] += np.searchsorted(
                tail_left, prev[tail + b : n], side="right"
            )
        b = step
    return ans


def _subset_dominance_counts(prev: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``#{ j < i : prev[j] <= prev[i] }`` for the sorted indices ``queries``.

    The CDQ levels of :func:`_dominance_counts`, visiting only the sibling
    pairs whose right block holds a query: each such pair's left block is
    sorted and searched for that pair's queries alone.
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
    """Validate an optional distance cap."""
    if cap is None:
        return None
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    return int(cap)


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
        order = _stable_group_order(groups)
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

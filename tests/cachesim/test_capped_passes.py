"""Way-capped set-associative passes: hit masks match the exact oracles."""

import dataclasses

import numpy as np
import pytest

from repro.cachesim.hierarchy import SimConfig, SpMVCacheSim
from repro.machine.a64fx import scaled_machine
from repro.matrices import banded, power_law, random_uniform
from repro.reuse import reuse_distances, steady_state_reuse_distances

MACHINE = scaled_machine()

MATRICES = [
    banded(600, 24, 6, seed=1),
    random_uniform(600, 6, seed=2),
    power_law(600, 6, seed=3),
]


def uncapped(level):
    """A copy of ``level`` whose cached distances come from uncapped passes."""
    oracle = dataclasses.replace(level)
    for key, partitioned in (("split", True), ("shared", False)):
        groups = level._groups(
            level.trace.lines, level.cache_ids, level.sectors, partitioned
        )
        if level.first_trace is None:
            rd = reuse_distances(level.trace.lines, groups)
        else:
            rd = steady_state_reuse_distances(
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
        oracle._cache[key] = rd
    return oracle


def assert_masks_equal(level, reference, window=None):
    """Every way split: ``level`` hit masks equal ``reference`` ones."""
    for ways in range(level.geometry.ways):
        expected = reference.hit_mask(ways)
        if window is not None:
            expected = expected[window]
        np.testing.assert_array_equal(level.hit_mask(ways), expected)


@pytest.mark.parametrize("threads", [1, 48])
@pytest.mark.parametrize("matrix", MATRICES, ids=lambda m: m.name)
def test_hit_masks_match_the_oracle_path(matrix, threads):
    config = SimConfig(num_threads=threads)
    fast = SpMVCacheSim(matrix, MACHINE, config)
    oracle = SpMVCacheSim(
        matrix, MACHINE, dataclasses.replace(config, periodic=False)
    )
    assert fast.periodic and not oracle.periodic

    # capped passes against uncapped passes of the same streams
    assert_masks_equal(fast._l1_warm_rd, uncapped(fast._l1_warm_rd))
    assert_masks_equal(fast._l1_rd, uncapped(fast._l1_rd))
    assert_masks_equal(oracle._l1_rd, uncapped(oracle._l1_rd))

    # steady-period masks against the final iteration of the doubled trace
    last = oracle._l1_stream.iteration == 1
    assert_masks_equal(fast._l1_rd, oracle._l1_rd, last)
    for l1_ways in range(MACHINE.l1.ways):
        _, fast_l2 = fast._l2_level(l1_ways)
        oracle_stream, oracle_l2 = oracle._l2_level(l1_ways)
        assert_masks_equal(fast_l2, uncapped(fast_l2))
        assert_masks_equal(oracle_l2, uncapped(oracle_l2))
        assert_masks_equal(fast_l2, oracle_l2, oracle_stream.iteration == 1)

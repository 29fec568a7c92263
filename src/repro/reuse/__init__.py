"""Reuse-distance engine: exact and approximate stack processing."""

from .cdq import hit_mask, miss_count, reuse_distances
from .fenwick import FenwickTree, compute_prev, reuse_distances_fenwick
from .histogram import ReuseProfile, partition_profiles, scale_distances
from .naive import COLD, reuse_distances_naive
from .periodic import steady_state_reuse_distances
from .sampling import (
    SampledProfile,
    SpatialSampledProfile,
    sample_reuse_distances,
    spatial_sample_mask,
    spatial_sample_profile,
)

__all__ = [
    "COLD",
    "FenwickTree",
    "ReuseProfile",
    "SampledProfile",
    "SpatialSampledProfile",
    "compute_prev",
    "hit_mask",
    "miss_count",
    "reuse_distances",
    "reuse_distances_fenwick",
    "reuse_distances_naive",
    "sample_reuse_distances",
    "spatial_sample_mask",
    "spatial_sample_profile",
    "partition_profiles",
    "scale_distances",
    "steady_state_reuse_distances",
]

"""Seeded inputs of the service workloads.

Every input is a pure function of the run seed, so the same seed yields
the same request bytes.  Sizes are fixed per slot of a cycle and only
jittered by a few percent: the seed changes the sparsity patterns, not
the mix, which keeps a run's median comparable across seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.classification import classify
from repro.machine.a64fx import scaled_machine
from repro.matrices import generators
from repro.spmv.csr import CSRMatrix

#: The machine every input is classified on (and every request runs on:
#: the service's default setup is scale 16).
MACHINE = scaled_machine(16)
#: Sector-1 way count the advisor's classification uses (its largest option).
CLASSIFY_WAYS = 6

#: (family, threads, num_rows, nnz per row or block size) per slot of a
#: cycle.  Cost grows with nnz in every family, so seven slots sit at
#: ~155k-180k nnz and one at ~320k: the median then falls inside a dense
#: cluster of similar ops instead of in the gap between two clusters.
#: Classes on the scale-16 machine: block at 48 threads is (1), banded,
#: block and power-law are (2) or (3a), random-uniform (x > 320 KiB) is (3b).
#: ``block_diagonal`` keeps 90% of each block so every seed gives a new
#: pattern (a full block would be identical for every seed).
COLD_SLOTS = (
    ("banded", 1, 22_000, 8),
    ("block_diagonal", 48, 1_250, 140),
    ("random_uniform", 1, 44_000, 4),
    ("power_law", 48, 22_000, 8),
    ("banded", 48, 22_000, 8),
    ("block_diagonal", 1, 1_250, 140),
    ("random_uniform", 48, 44_000, 4),
    ("power_law", 1, 40_000, 8),
)
WARM_SLOTS = (
    ("banded", 1, 20_000, 8),
    ("block_diagonal", 48, 1_250, 140),
    ("random_uniform", 1, 20_000, 8),
    ("power_law", 48, 20_000, 8),
    ("banded", 48, 20_000, 8),
    ("block_diagonal", 1, 1_250, 140),
    ("random_uniform", 48, 20_000, 8),
    ("power_law", 1, 20_000, 8),
)
#: Delta bases run at one thread: the incremental engine patches
#: single-thread traces only.  Banded and block bases stay within the
#: daemon's patch budget; the random-uniform base exceeds it and falls back.
EDIT_BASES = (
    ("banded", 1, 20_000, 8),
    ("block_diagonal", 1, 1_250, 140),
    ("random_uniform", 1, 20_000, 8),
)
#: Edits per write: this many inserts and as many deletes.
EDITS_PER_SIDE = 16

_BANDWIDTH = 64
_BLOCK_FILL = 0.9
#: Row-length tail of ``power_law``: at the generator's default of 2 the
#: mean row length diverges and nnz swings by ~14% between seeds.
_POWER_EXPONENT = 2.5


@dataclass(frozen=True)
class MatrixInput:
    """One generated matrix and the thread count it is requested at."""

    family: str
    num_threads: int
    matrix: CSRMatrix

    def paper_class(self) -> str:
        num_cmgs = -(-self.num_threads // MACHINE.cores_per_cmg)
        return classify(self.matrix, MACHINE, CLASSIFY_WAYS, num_cmgs).value


def derive_seed(*parts: object) -> int:
    """A 63-bit seed from the run seed and a position (stable across runs)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def build(family: str, size: int, width: int, seed: int) -> CSRMatrix:
    """One matrix of a family, its size jittered by up to 2% from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(round(size * rng.uniform(0.98, 1.02)))
    if family == "banded":
        return generators.banded(n, _BANDWIDTH, width, seed=seed)
    if family == "block_diagonal":
        return generators.block_diagonal(n, width, fill=_BLOCK_FILL, seed=seed)
    if family == "random_uniform":
        return generators.random_uniform(n, width, seed=seed)
    if family == "power_law":
        return generators.power_law(n, float(width), exponent=_POWER_EXPONENT,
                                    seed=seed)
    raise ValueError(f"unknown family {family!r}")


def slot_input(slots, run_seed: int, stream: str, index: int) -> MatrixInput:
    """Input ``index`` of a stream cycling through ``slots``."""
    family, threads, size, width = slots[index % len(slots)]
    matrix = build(family, size, width, derive_seed(run_seed, stream, index))
    return MatrixInput(family, threads, matrix)


def _present(matrix: CSRMatrix, row: int, col: int) -> bool:
    lo, hi = int(matrix.rowptr[row]), int(matrix.rowptr[row + 1])
    cols = matrix.colidx[lo:hi]
    pos = int(np.searchsorted(cols, col))
    return pos < cols.shape[0] and int(cols[pos]) == col


def edit_batch(matrix: CSRMatrix, seed: int,
               per_side: int = EDITS_PER_SIDE) -> dict:
    """A valid edit batch against ``matrix``'s current pattern.

    Deletes are distinct entries that are present; inserts are distinct
    entries that are absent, each a few columns from an existing entry so
    the edit keeps the base's locality.  The pattern must be canonical
    (sorted columns per row, no duplicates), as every generator and every
    applied delta leaves it.
    """
    rng = np.random.default_rng(seed)
    nnz = matrix.nnz
    rows_of = np.repeat(np.arange(matrix.num_rows), np.diff(matrix.rowptr))
    picked = rng.choice(nnz, size=per_side, replace=False)
    deletes = sorted((int(rows_of[p]), int(matrix.colidx[p])) for p in picked)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < per_side:
        anchor = int(rng.integers(nnz))
        row = int(rows_of[anchor])
        col = int(matrix.colidx[anchor]) + int(rng.integers(-4, 5))
        if 0 <= col < matrix.num_cols and not _present(matrix, row, col):
            chosen.add((row, col))
    inserts = [[r, c, 1.0] for r, c in sorted(chosen)]
    return {"inserts": inserts, "deletes": [[r, c] for r, c in deletes]}

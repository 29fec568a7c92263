"""Answer oracles, run outside the timed region.

An advise answer from the daemon (fresh, cached or patched by a delta)
must equal, byte for byte as canonical JSON, the answer of an in-process
:class:`~repro.core.advisor.SectorAdvisor` on the same pattern.  A sweep
record must reproduce its committed fingerprint.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from repro.analysis.report import canonical_json
from repro.core.advisor import SectorAdvisor
from repro.experiments.common import MatrixRecord, record_fingerprint
from repro.spmv.csr import CSRMatrix

from .inputs import MACHINE

#: ``record_fingerprint`` of every tiny-collection record, per thread count.
FINGERPRINTS = Path(__file__).with_name("sweep_fingerprints.json")


def advise_answer(matrix: CSRMatrix, num_threads: int) -> str:
    """The in-process answer a daemon ``/advise`` must reproduce."""
    recommendation = SectorAdvisor(MACHINE, num_threads=num_threads).recommend(matrix)
    return canonical_json(recommendation.to_dict())


def answer_matches(expected: str, result: object) -> bool:
    return canonical_json(result) == expected


@lru_cache(maxsize=1)
def committed_fingerprints() -> dict[str, dict[str, str]]:
    return json.loads(FINGERPRINTS.read_text())


def record_matches(record: MatrixRecord, num_threads: int) -> bool:
    expected = committed_fingerprints()[str(num_threads)].get(record.name)
    return expected == record_fingerprint(record)

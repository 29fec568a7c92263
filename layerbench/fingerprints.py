"""Regenerate ``sweep_fingerprints.json``, the sweep workload's oracle.

    python3 layerbench/fingerprints.py

Records must never change for the same inputs (answers are a byte-identity
contract), so rerun this only when a change is meant to alter them, and
say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.experiments.common import ExperimentSetup, measure_matrix, record_fingerprint

    from layerbench.oracle import FINGERPRINTS
    from layerbench.workloads import build_sweep_specs

    fingerprints = {}
    for threads, specs in build_sweep_specs().items():
        setup = ExperimentSetup(num_threads=threads)
        fingerprints[str(threads)] = {
            spec.name: record_fingerprint(measure_matrix(spec.materialize(), setup))
            for spec in specs
        }
    FINGERPRINTS.write_text(json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

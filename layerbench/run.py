"""Run one workload of the repository benchmark and print its metrics.

    python3 layerbench/run.py --workload inline-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced phase, then a traced phase, and prints the per-layer metrics
plus the layer coverage and the tracing overhead.  ``--workload all``
runs every workload in turn.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads and metrics are described in ``layerbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("inline-cold", "inline-warm", "edit-stream",
                                 "collection-sweep", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"layerbench: no package to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # a terminated run still shuts its daemons down (finally blocks run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import numpy

    from layerbench.report import report
    from layerbench.workloads import WORKLOADS, run_workload

    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"{len(os.sched_getaffinity(0))} cores, seed {args.seed}, "
          f"{args.seconds:g} s per phase, trace {args.trace}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        run = run_workload(name, ROOT, args.seed, args.seconds, bool(args.trace))
        values, run_attempted, run_failed = report(run, bool(args.trace))
        attempted += run_attempted
        failed += run_failed
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in values.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

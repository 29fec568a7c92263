"""Stored-task registry: the base records ``POST /delta`` patches against.

A delta request references an earlier request by its cache key; to
derive the edited task the daemon must recover the *canonical task* that
key was computed from.  The registry records it at request time — a
bounded in-memory map fronting optional disk spills next to the result
cache — and the daemon revalidates on the way out: a stored task whose
recomputed :func:`~repro.service.protocol.request_key` no longer matches
(disk tampering, a truncated write, a record from an older key version)
or whose arrays are missing answers 409 rather than silently patching
the wrong base.

Only the computation-defining fields are stored (volatile flags like
``trace_context``/``timeout`` are stripped first), so the stored form
reproduces the key exactly and registering the same request twice is
idempotent.  A disk spill is two files: the small keyed task as
``<key>.task.json`` — distinct from the result entries'
``<key>.<endpoint>.json`` — and, for inline matrices, the binary
pattern as ``<fingerprint>.pattern``, shared by every task (and delta
chain) over that pattern.  Loading re-fingerprints the pattern bytes;
a pattern that no longer hashes to its name is deleted.  Both files are
subject to the same GC sweep as results: an expired base simply 404s
and the client re-submits the full matrix once.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path

from ..analysis.report import canonical_json
from .protocol import Pattern

#: Fields stripped before storage so the stored form re-derives the key.
VOLATILE_FIELDS = ("timeout", "trace", "trace_context", "faults", "peer",
                   "accuracy", "max_tier", "delta_budget",
                   "x_test_sleep", "x_test_crash")

_HEX = frozenset("0123456789abcdef")


def stored_form(task: dict) -> dict:
    """The computation-defining subset of a canonical task (arrays kept)."""
    return {k: v for k, v in task.items() if k not in VOLATILE_FIELDS}


def _spilled_fingerprint(task: dict) -> str | None:
    """The pattern fingerprint a task read from disk names, if any."""
    spec = task.get("matrix")
    if isinstance(spec, dict) and spec.get("kind") == "delta":
        spec = spec.get("base")
    fingerprint = spec.get("pattern") if isinstance(spec, dict) else None
    if (isinstance(fingerprint, str) and len(fingerprint) == 64
            and set(fingerprint) <= _HEX):
        return fingerprint
    return None


class TaskRegistry:
    """Bounded memory map plus optional disk persistence of stored tasks."""

    def __init__(self, cache_dir: str | Path | None,
                 capacity: int = 4096) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.capacity = capacity
        self._memory: OrderedDict[str, dict] = OrderedDict()

    def put(self, key: str, task: dict) -> None:
        """Record a task under its request key (idempotent)."""
        stored = stored_form(task)
        known = key in self._memory
        self._memory[key] = stored
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
        if self.cache_dir is None or known:
            return
        arrays = stored.get("arrays")
        if arrays is not None:
            path = self.cache_dir / f"{arrays.fingerprint}.pattern"
            if not path.exists():
                # write-then-rename: a torn spill would never revalidate
                partial = path.with_name(f"{path.name}.{os.getpid()}.partial")
                partial.write_bytes(arrays.to_bytes())
                partial.replace(path)
        path = self.cache_dir / f"{key}.task.json"
        if not path.exists():
            path.write_text(canonical_json(
                {k: v for k, v in stored.items() if k != "arrays"}))

    def get(self, key: str) -> dict | None:
        """The stored task of a key, or ``None`` when absent/unparseable.

        A task loaded from disk gets its arrays back only when the
        pattern file re-fingerprints to the name the task records; a
        missing pattern (GC'd) is absent, a corrupt one is deleted and
        the task returned without arrays, so the daemon answers 409.
        """
        task = self._memory.get(key)
        if task is not None:
            self._memory.move_to_end(key)
            return task
        if self.cache_dir is None:
            return None
        path = self.cache_dir / f"{key}.task.json"
        try:
            task = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(task, dict) or not isinstance(task.get("matrix"), dict):
            return None
        fingerprint = _spilled_fingerprint(task)
        if fingerprint is not None:
            pattern_path = self.cache_dir / f"{fingerprint}.pattern"
            try:
                data = pattern_path.read_bytes()
            except OSError:
                return None
            try:
                pattern = Pattern.from_bytes(data)
            except ValueError:
                pattern = None
            if pattern is None or pattern.fingerprint != fingerprint:
                # drop the corrupt spill so a re-submission writes it
                # afresh; the arrays-less task fails revalidation (409)
                pattern_path.unlink(missing_ok=True)
                return task
            task["arrays"] = pattern
        self._memory[key] = task
        return task

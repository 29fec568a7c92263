"""The advisor daemon as a benchmark subprocess.

Each :class:`Daemon` runs ``python -m repro.service --jobs 1`` on an
ephemeral port with its own empty disk-cache directory, in a process
group of its own so that closing it also reaps the pool worker, even
when the daemon itself died.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service.client import ServiceClient, ServiceError

from .measure import proc_peak_rss_bytes

#: The daemon's patch-work ceiling for ``POST /delta`` (its default),
#: passed explicitly so the in-process replay uses the same value.
DELTA_BUDGET = 65536

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")
_START_SECONDS = 60.0
_STOP_SECONDS = 15.0


class Daemon:
    """One daemon process; use as a context manager."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.proc: subprocess.Popen | None = None
        self.client: ServiceClient | None = None
        self.ready_seconds = 0.0

    def __enter__(self) -> "Daemon":
        self.workdir.mkdir(parents=True, exist_ok=True)
        cache_dir = self.workdir / "cache"
        log_path = self.workdir / "daemon.log"
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        started = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--port", "0",
                 "--jobs", "1", "--cache", str(cache_dir),
                 "--delta-budget", str(DELTA_BUDGET)],
                cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )
        try:
            host, port = self._wait_for_port(log_path)
            self.client = ServiceClient(host, port, timeout=120.0)
            self.client.wait_ready(deadline_seconds=_START_SECONDS)
        except BaseException:
            self.close()
            raise
        self.ready_seconds = time.perf_counter() - started
        return self

    def _wait_for_port(self, log_path: Path) -> tuple[str, int]:
        deadline = time.monotonic() + _START_SECONDS
        while time.monotonic() < deadline:
            match = _LISTENING.search(log_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError("daemon did not start: "
                           + log_path.read_text(errors="replace")[-2000:])

    def group_pids(self) -> list[int]:
        """The daemon and every process in its group (the pool worker)."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # fields 3 and 5: state and process group; a zombie has ended
            if fields[0] != "Z" and int(fields[2]) == self.proc.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_bytes(self) -> int:
        return sum(proc_peak_rss_bytes(pid) for pid in self.group_pids())

    def close(self) -> None:
        """Shut down, then kill and reap whatever is left of the group."""
        if self.proc is None:
            return
        if self.client is None:  # never became ready: nothing to ask
            self._signal_group(signal.SIGKILL)
        else:
            try:
                self.client.shutdown()
            except (OSError, ServiceError):
                pass
            self.client.close()
            self.client = None
        try:
            self.proc.wait(timeout=_STOP_SECONDS)
        except subprocess.TimeoutExpired:
            self._signal_group(signal.SIGKILL)
            self.proc.wait(timeout=_STOP_SECONDS)
        self._signal_group(signal.SIGKILL)
        deadline = time.monotonic() + _STOP_SECONDS
        while self.group_pids() and time.monotonic() < deadline:
            time.sleep(0.02)
        self.proc = None

    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.proc.pid, signum)
        except ProcessLookupError:
            pass

    def __exit__(self, *exc) -> None:
        self.close()

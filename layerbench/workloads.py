"""The four workloads and the loop that runs them.

Every workload is a closed loop with one caller: the next op is sent
only after the previous reply arrived.  A run executes whole cycles of
ops until its timed seconds are used up, so every run of a workload
covers the same mix of inputs whatever the seed.

With tracing on, a run first repeats the untraced phase (so the tracing
overhead can be printed), then runs a traced phase in which every
service op is replayed in-process, layer by layer, right after its reply
(outside the op's timing), and every sweep op runs with the layer
functions wrapped.
"""

from __future__ import annotations

import http.client
import json
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.report import canonical_json
from repro.delta.delta import MatrixDelta
from repro.experiments.common import ExperimentSetup, measure_matrix
from repro.matrices.collection import collection
from repro.service.cache import TieredResultCache
from repro.service.client import ServiceError, matrix_payload
from repro.service.protocol import (
    derive_delta_task,
    normalize_delta,
    normalize_request,
    request_key,
)
from repro.service.registry import stored_form
from repro.service.worker import evaluate
from repro.spmv.csr import CSRMatrix

from . import oracle
from .daemon import DELTA_BUDGET, Daemon
from .inputs import (
    CLASSIFY_WAYS,
    COLD_SLOTS,
    EDIT_BASES,
    WARM_SLOTS,
    MatrixInput,
    derive_seed,
    edit_batch,
    slot_input,
)
from .measure import Ledger, proc_peak_rss_bytes

#: Set-ups per run; ``setup_s`` is their median.  Service workloads
#: spawn this many daemons and prime only the last one; the sweep's
#: set-up takes about a millisecond, so it repeats more often.
SETUP_REPEATS = 3
SWEEP_SETUP_REPEATS = 25
#: Layers that partition a service op; the rest of its latency is
#: ``service.residual_s`` (wire, event loop, pool pickling).
SERVICE_TOP_LAYERS = (
    "service.client.encode_s",
    "service.protocol.parse_s",
    "service.protocol.key_s",
    "service.cache.lookup_s",
    "service.worker.evaluate_s",
    "analysis.report.serialize_s",
)
#: Layers that partition a sweep op.
SWEEP_TOP_LAYERS = (
    "matrices.build_s",
    "cachesim.simulate_s",
    "core.method_a_s",
    "core.method_b_s",
)
_SERVICE_ERRORS = (ServiceError, OSError, http.client.HTTPException)


@dataclass
class Request:
    """One op a workload will send.

    ``send`` performs it; ``after`` (if set) runs outside the timing once
    it succeeded.  ``repeat`` marks a request identical to an earlier one.
    """

    kind: str
    send: Callable[[], object]
    matrix: CSRMatrix | None = None
    num_threads: int = 1
    repeat: bool = False
    after: Callable[[object], None] | None = None
    replay: Callable[[Ledger], None] | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class Op:
    request: Request
    latency: float
    answer: object = None
    error: str | None = None
    layers: dict = field(default_factory=dict)


@dataclass
class Run:
    """Everything one invocation measured."""

    workload: str
    setup_seconds: list[float]
    phases: list[list[Op]]
    primed: list[Op]
    peak_rss_bytes: int
    inputs: dict
    mismatches: int = 0
    top_layers: tuple[str, ...] = SERVICE_TOP_LAYERS


def execute(request: Request, ledger: Ledger | None = None,
            errors: tuple[type[BaseException], ...] = _SERVICE_ERRORS) -> Op:
    """Send one request; with a ledger, record the layers it went through."""
    if ledger is not None:
        ledger.take()
    started = time.perf_counter()
    try:
        answer = request.send()
    except errors as exc:
        op = Op(request, time.perf_counter() - started,
                error=f"{type(exc).__name__}: {exc}")
    else:
        op = Op(request, time.perf_counter() - started, answer)
        if request.after is not None:
            request.after(answer)
    if ledger is not None:
        if op.error is None and request.replay is not None:
            ledger.take()
            request.replay(ledger)
        op.layers = ledger.take()
    return op


def run_phase(next_cycle: Callable[[], list[Request]], seconds: float,
              ledger: Ledger | None = None,
              errors: tuple[type[BaseException], ...] = _SERVICE_ERRORS,
              first_cycle_done: Callable[[], None] | None = None) -> list[Op]:
    """Whole cycles of ops until their summed latency reaches ``seconds``.

    ``first_cycle_done`` runs once, after the first cycle: a point where
    every run has done the same work whatever its length.
    """
    ops: list[Op] = []
    timed = 0.0
    while timed < seconds:
        for request in next_cycle():
            ops.append(execute(request, ledger, errors))
            timed += ops[-1].latency
        if first_cycle_done is not None:
            first_cycle_done()
            first_cycle_done = None
    return ops


# ----------------------------------------------------------------------
# in-process replay of one service request, layer by layer
# ----------------------------------------------------------------------

class Replayer:
    """Replays requests through the service's public functions.

    ``cache`` mirrors the daemon's memory tier: it holds what the daemon
    stored, so a lookup hits exactly when the daemon's did.
    """

    def __init__(self) -> None:
        self.cache = TieredResultCache(None)

    def remember(self, envelope: dict) -> None:
        self.cache.put(envelope["key"],
                       canonical_json(envelope["result"]).encode(), None)

    def advise(self, ledger: Ledger, matrix: CSRMatrix, num_threads: int) -> None:
        with ledger.span("service.client.encode_s"):
            body = json.dumps({"matrix": matrix_payload(matrix),
                               "setup": {"num_threads": num_threads}})
        ledger.add("service.client.request_bytes", len(body))
        with ledger.span("service.protocol.parse_s"):
            task = normalize_request("advise", json.loads(body))
        with ledger.span("service.protocol.key_s"):
            key = request_key(task)
        self._resolve(ledger, key, task)

    def delta(self, ledger: Ledger, stored: dict, base_key: str,
              batch: dict) -> None:
        with ledger.span("service.client.encode_s"):
            body = json.dumps({"base": base_key, "delta": batch})
        ledger.add("service.client.request_bytes", len(body))
        with ledger.span("service.protocol.parse_s"):
            normalized = normalize_delta(json.loads(body))
        with ledger.span("service.protocol.key_s"):
            request_key(stored)  # the daemon revalidates the stored base
            task = derive_delta_task(stored, normalized, DELTA_BUDGET)
            key = request_key(task)
        self._resolve(ledger, key, task)

    def _resolve(self, ledger: Ledger, key: str, task: dict) -> None:
        with ledger.span("service.cache.lookup_s"):
            result, _tier = self.cache.get(key, None)
        if result is None:
            with ledger.span("service.worker.evaluate_s"):
                result = evaluate(task)["result"]
        with ledger.span("analysis.report.serialize_s"):
            payload = canonical_json(result).encode()
        self.cache.put(key, payload, None)


# ----------------------------------------------------------------------
# service workloads
# ----------------------------------------------------------------------

def advise_request(client, replayer: Replayer, item: MatrixInput,
                   repeat: bool = False) -> Request:
    return Request(
        kind="advise",
        send=lambda: client.advise(matrix=item.matrix,
                                   num_threads=item.num_threads),
        matrix=item.matrix,
        num_threads=item.num_threads,
        repeat=repeat,
        replay=lambda ledger: replayer.advise(ledger, item.matrix,
                                              item.num_threads),
        meta={"family": item.family, "class": item.paper_class()},
    )


class InlineCold:
    """Every op advises on a matrix the daemon has never seen."""

    name = "inline-cold"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.count = 0
        self.replayer = Replayer()

    def prime(self, client) -> list[Op]:
        self.client = client
        return []

    def next_cycle(self) -> list[Request]:
        requests = []
        for _ in COLD_SLOTS:
            item = slot_input(COLD_SLOTS, self.seed, "cold", self.count)
            self.count += 1
            requests.append(advise_request(self.client, self.replayer, item))
        return requests

    def prepare_replay(self) -> None:
        pass


class InlineWarm:
    """Every op repeats one of the matrices primed during set-up."""

    name = "inline-warm"

    def __init__(self, seed: int) -> None:
        self.items = [slot_input(WARM_SLOTS, seed, "warm", i)
                      for i in range(len(WARM_SLOTS))]
        self.replayer = Replayer()
        self.primed: list[Op] = []

    def prime(self, client) -> list[Op]:
        self.client = client
        requests = [advise_request(client, self.replayer, item)
                    for item in self.items]
        self.primed = [execute(request) for request in requests]
        return self.primed

    def next_cycle(self) -> list[Request]:
        return [advise_request(self.client, self.replayer, item, repeat=True)
                for item in self.items]

    def prepare_replay(self) -> None:
        for op in self.primed:
            if op.error is None:
                self.replayer.remember(op.answer)


@dataclass
class Chain:
    """One delta chain: the pattern and stored task behind its head key."""

    item: MatrixInput
    matrix: CSRMatrix
    stored: dict
    task: dict
    head: str = ""
    writes: int = 0


class EditStream:
    """Each op pair is a new edit batch (write) and its repeat (read)."""

    name = "edit-stream"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.replayer = Replayer()
        self.chains: list[Chain] = []
        for i in range(len(EDIT_BASES)):
            item = slot_input(EDIT_BASES, seed, "edit-base", i)
            payload = {"matrix": matrix_payload(item.matrix),
                       "setup": {"num_threads": item.num_threads}}
            task = normalize_request("advise", payload)
            self.chains.append(Chain(item, item.matrix, stored_form(task), task))

    def prime(self, client) -> list[Op]:
        """Submit every base, then one write per chain: the first write
        captures the base's reuse state in the pool worker, which every
        later write of the chain patches."""
        self.client = client
        requests = []
        for chain in self.chains:
            request = advise_request(client, self.replayer, chain.item)
            request.after = lambda envelope, chain=chain: setattr(
                chain, "head", envelope["key"])
            requests.append(request)
        primed = [execute(request) for request in requests]
        writes = [r for r in self.next_cycle() if r.kind == "write"]
        return primed + [execute(request) for request in writes]

    def next_cycle(self) -> list[Request]:
        requests = []
        for index, chain in enumerate(self.chains):
            batch = edit_batch(chain.matrix,
                               derive_seed(self.seed, "edit", index, chain.writes))
            edited = MatrixDelta.from_dict(batch).apply(chain.matrix).matrix
            write, read = (self._request(chain, batch, edited, repeat)
                           for repeat in (False, True))
            write.after = lambda envelope, chain=chain, batch=batch, \
                edited=edited: self._advance(chain, batch, edited, envelope)
            requests += [write, read]
        return requests

    def _request(self, chain: Chain, batch: dict, edited: CSRMatrix,
                 repeat: bool) -> Request:
        base, stored = chain.head, chain.stored
        return Request(
            kind="read" if repeat else "write",
            send=lambda: self.client.delta(base, inserts=batch["inserts"],
                                           deletes=batch["deletes"]),
            matrix=edited,
            num_threads=chain.item.num_threads,
            repeat=repeat,
            replay=lambda ledger: self.replayer.delta(ledger, stored, base,
                                                      batch),
            meta={"family": chain.item.family},
        )

    def _advance(self, chain: Chain, batch: dict, edited: CSRMatrix,
                 envelope: dict) -> None:
        normalized = normalize_delta({"base": chain.head, "delta": batch})
        chain.task = derive_delta_task(chain.stored, normalized, DELTA_BUDGET)
        chain.stored = stored_form(chain.task)
        chain.head = envelope["key"]
        chain.matrix = edited
        chain.writes += 1

    def prepare_replay(self) -> None:
        # the daemon's worker holds each chain's patched reuse state; give
        # the replaying process the same warm state before timing layers
        for chain in self.chains:
            if chain.task["matrix"]["kind"] == "delta":
                evaluate(chain.task)


SERVICE_WORKLOADS = {cls.name: cls for cls in (InlineCold, InlineWarm, EditStream)}


def run_service(name: str, root: Path, seed: int, seconds: float,
                trace: bool) -> Run:
    workload = SERVICE_WORKLOADS[name](seed)
    scratch = root / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="layerbench-", dir=scratch))
    try:
        spawn = []
        for i in range(SETUP_REPEATS - 1):
            with Daemon(root, workdir / f"spawn{i}") as daemon:
                spawn.append(daemon.ready_seconds)
        with Daemon(root, workdir / "run") as daemon:
            spawn.append(daemon.ready_seconds)
            started = time.perf_counter()
            primed = workload.prime(daemon.client)
            priming = time.perf_counter() - started
            # peak RSS after set-up plus one cycle: the daemon keeps every
            # stored task, so its memory grows with the number of ops
            peak = []
            phases = [run_phase(
                workload.next_cycle, seconds,
                first_cycle_done=lambda: peak.append(daemon.peak_rss_bytes()))]
            if trace:
                workload.prepare_replay()
                with Ledger().installed() as ledger:
                    phases.append(run_phase(workload.next_cycle, seconds, ledger))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mismatches = check_service(primed + [op for ph in phases for op in ph])
    return Run(name, [s + priming for s in spawn], phases, primed, peak[0],
               describe(primed + phases[0]), mismatches)


def check_service(ops: list[Op]) -> int:
    """Answers that differ from the in-process oracle."""
    expected: dict[int, str] = {}
    mismatches = 0
    for op in ops:
        if op.error is not None:
            continue
        request = op.request
        if id(request.matrix) not in expected:
            expected[id(request.matrix)] = oracle.advise_answer(
                request.matrix, request.num_threads)
        if not oracle.answer_matches(expected[id(request.matrix)],
                                     op.answer.get("result")):
            mismatches += 1
    return mismatches


def describe(ops: list[Op]) -> dict:
    """The matrices a run sent in full: sizes, classes, threads, bytes."""
    seen = {id(op.request.matrix): op.request for op in ops
            if op.request.kind == "advise"}.values()
    nnz = [request.matrix.nnz for request in seen]
    body = [len(json.dumps({"matrix": matrix_payload(request.matrix)}))
            for request in seen]
    return {
        "distinct_matrices": len(nnz),
        "nnz_range": [min(nnz), max(nnz)],
        "matrix_body_bytes_range": [min(body), max(body)],
        "family_threads_class": _tally(
            f"{r.meta['family']}/t{r.num_threads}/{r.meta['class']}"
            for r in seen),
    }


def _tally(keys) -> dict[str, int]:
    return dict(sorted(Counter(keys).items()))


# ----------------------------------------------------------------------
# the paper sweep, in-process
# ----------------------------------------------------------------------

SWEEP_THREADS = (1, 48)


def build_sweep_specs() -> dict[int, list]:
    return {t: collection("tiny", machine=ExperimentSetup(num_threads=t).machine())
            for t in SWEEP_THREADS}


def run_sweep(seed: int, seconds: float, trace: bool) -> Run:
    setup_seconds = []
    for _ in range(SWEEP_SETUP_REPEATS):
        started = time.perf_counter()
        specs = build_sweep_specs()
        setup_seconds.append(time.perf_counter() - started)
    pairs = [(t, spec) for t in SWEEP_THREADS for spec in specs[t]]
    passes = 0

    def next_pass() -> list[Request]:
        nonlocal passes
        order = np.random.default_rng(derive_seed(seed, "sweep", passes))
        passes += 1
        return [_record_request(*pairs[i]) for i in order.permutation(len(pairs))]

    peak = []
    phases = [run_phase(next_pass, seconds, errors=(Exception,),
                        first_cycle_done=lambda: peak.append(proc_peak_rss_bytes()))]
    if trace:
        with Ledger().installed() as ledger:
            phases.append(run_phase(next_pass, seconds, ledger,
                                    errors=(Exception,)))
    ops = [op for phase in phases for op in phase]
    mismatches = sum(
        1 for op in ops if op.error is None
        and not oracle.record_matches(op.answer, op.request.num_threads)
    )
    # one record per (matrix, threads), classified as the service inputs are
    records = {(op.answer.name, op.request.num_threads): op
               for op in phases[0] if op.error is None}.values()
    nnz = {op.answer.name: op.answer.nnz for op in records}
    inputs = {
        "distinct_matrices": len(nnz),
        "nnz_range": [min(nnz.values()), max(nnz.values())],
        "nnz_total": sum(nnz.values()),
        "family_threads_class": _tally(
            f"{op.request.meta['family']}/t{op.request.num_threads}/"
            f"{op.answer.classes[str(CLASSIFY_WAYS)]}" for op in records),
    }
    return Run("collection-sweep", setup_seconds, phases, [],
               peak[0], inputs, mismatches, SWEEP_TOP_LAYERS)


def _record_request(num_threads: int, spec) -> Request:
    setup = ExperimentSetup(num_threads=num_threads)
    return Request(
        kind="record",
        send=lambda: measure_matrix(spec.materialize(), setup),
        num_threads=num_threads,
        meta={"family": spec.family},
    )


def run_workload(name: str, root: Path, seed: int, seconds: float,
                 trace: bool) -> Run:
    if name == "collection-sweep":
        return run_sweep(seed, seconds, trace)
    return run_service(name, root, seed, seconds, trace)


WORKLOADS = ("inline-cold", "inline-warm", "edit-stream", "collection-sweep")

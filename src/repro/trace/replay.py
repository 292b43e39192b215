"""Offline replay: feed a stored trace through the lifeguard pipeline.

Replay decouples log *production* from log *consumption*: a workload is
executed (and captured) once, then the stored record stream is pushed
through the acceleration pipeline (:class:`EventAccelerator`) and an
:class:`EventDispatcher` without re-running the ISA machine.  Because the
functional event stream is fully determined by the records, a sequential
replay reproduces the live run's delivered events, handler work and error
reports exactly; only cache-latency cycle details differ (replay does not
model the shared application/lifeguard cache hierarchy by default).

:class:`ParallelReplay` shards the trace's chunks across
``multiprocessing`` workers, each owning a private lifeguard instance, and
merges the per-shard :class:`DispatchStats`/:class:`AcceleratorStats` and
error reports.  Sharding trades cross-chunk lifeguard state (a shard does
not see metadata updates from earlier shards) for near-linear consumption
throughput -- the same decomposition the paper uses to spread monitoring
across multiple lifeguard cores.  ``run_sequential()`` applies the exact
same sharding in-process, so parallel and sequential sharded replays are
bit-for-bit comparable.

Sharded replay is backed by shared memory by default (see
:mod:`repro.trace.shm`): the parent pre-decodes each shard's chunks into
packed column buffers inside a named ``multiprocessing.shared_memory``
segment, and the worker attaches zero-copy :class:`RecordColumns` views
instead of re-decoding -- only small descriptors and compact result
deltas cross the process boundary.  Pass ``shared_memory=False`` to
force the classic decode-in-worker path.

Sharded replay is *supervised* (see :mod:`repro.trace.supervisor`): worker
crashes, hangs and reader IO errors are retried with exponential backoff,
repeatedly-failing spans are bisected to isolate poison chunks, and every
failure is recorded on the merged result.  Damaged chunks are handled per
the ``quarantine`` policy: ``strict`` (default) raises
:class:`~repro.trace.tracefile.TraceFormatError` /
:class:`~repro.trace.supervisor.ReplayError` naming the chunk, while
``degrade`` skips the chunk, keeps replaying, and reports exact
skipped-chunk/record accounting in :attr:`ReplayResult.skipped_chunks`.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import astuple, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Type, Union

from repro.core.accelerator import AcceleratorConfig, AcceleratorStats, EventAccelerator
from repro.core.stats import sum_stats
from repro.core.config import SystemConfig
from repro.lba.columnar import ColumnarEngine
from repro.lba.dispatch import DispatchStats, EventDispatcher
from repro.lifeguards import ALL_LIFEGUARDS
from repro.lifeguards.base import Lifeguard
from repro.lifeguards.reports import ErrorKind, ErrorReport, merge_reports
from repro.obs.runtime import OBS
from repro.trace.shm import (
    SegmentPool,
    ShardSegment,
    attach_segment,
    shared_memory_available,
)
from repro.trace.supervisor import (
    QUARANTINE_POLICIES,
    QuarantinedChunk,
    ReplayError,
    ShardFailure,
    ShardSupervisor,
    SupervisorPolicy,
)
from repro.trace.codec import RecordColumns, TraceCodecError
from repro.trace.tracefile import TraceFormatError, TraceReader

#: Exceptions that mean "this chunk's bytes are damaged" (as opposed to an
#: environmental IO failure): eligible for quarantine under ``degrade``.
_CHUNK_DAMAGE_ERRORS = (TraceFormatError, TraceCodecError)

LifeguardSpec = Union[str, Type[Lifeguard]]

#: Upper bound on the default worker count: sharded replay is CPU-bound, so
#: there is no benefit past the core count, and on very wide machines the
#: per-process lifeguard setup dominates before that.
MAX_DEFAULT_WORKERS = 8


def default_workers() -> int:
    """Bounded default replay worker count: ``min(os.cpu_count(), 8)``."""
    return max(1, min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS))


def _resolve_workers(workers: Optional[int]) -> int:
    """Apply the bounded default and reject non-positive worker counts."""
    if workers is None:
        return default_workers()
    if workers < 1:
        raise ValueError(
            f"workers must be >= 1, got {workers} "
            "(pass None for the bounded os.cpu_count() default)"
        )
    return workers


def _resolve_lifeguard(spec: LifeguardSpec) -> Type[Lifeguard]:
    """Resolve a lifeguard name or class to a class (names stay picklable)."""
    if isinstance(spec, str):
        try:
            return ALL_LIFEGUARDS[spec]
        except KeyError:
            raise KeyError(
                f"unknown lifeguard {spec!r}; known: {sorted(ALL_LIFEGUARDS)}"
            ) from None
    return spec


def build_pipeline(
    lifeguard: Lifeguard, config: Optional[SystemConfig] = None
) -> Tuple[EventAccelerator, EventDispatcher]:
    """Wire a lifeguard to a freshly configured accelerator + dispatcher.

    Applies the same Figure 2 technique gating as the live platform
    (:meth:`SystemConfig.gated_for`).
    """
    effective = (config or SystemConfig()).gated_for(lifeguard)
    accelerator = EventAccelerator(lifeguard.etct, AcceleratorConfig.from_system(effective))
    lifeguard.attach_hardware(accelerator.mtlb)
    dispatcher = EventDispatcher(lifeguard, accelerator)
    return accelerator, dispatcher


@dataclass
class ReplayResult:
    """Merged outcome of one (possibly sharded) replay."""

    lifeguard: str
    records: int
    chunks: int
    workers: int
    dispatch: DispatchStats
    accelerator: AcceleratorStats
    reports: List[ErrorReport] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Per-worker wall-time breakdowns (setup/decode/dispatch/serialize/IPC);
    #: populated by sharded replays when timing collection is on.
    worker_timings: List[dict] = field(default_factory=list)
    #: Chunks excluded under ``quarantine="degrade"`` (corrupt, poison or
    #: retry-exhausted), sorted by (trace_path, chunk), with exact record
    #: accounting.  Always empty under ``strict``.
    skipped_chunks: List[QuarantinedChunk] = field(default_factory=list)
    #: Every failed shard attempt the supervisor observed (including ones
    #: that later succeeded on retry).
    failures: List[ShardFailure] = field(default_factory=list)
    #: Supervision counters (worker_retries, worker_timeouts, worker_crashes,
    #: worker_errors, bisections, bisect_probes, fallbacks_inprocess,
    #: chunks_quarantined, records_quarantined).
    fault_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def errors_detected(self) -> int:
        """Number of violations reported across all shards."""
        return len(self.reports)

    @property
    def records_per_second(self) -> float:
        """Consumption throughput of this replay."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.records / self.wall_seconds

    @property
    def skipped_records(self) -> int:
        """Records lost to quarantined chunks (0 for a clean replay)."""
        return sum(chunk.records for chunk in self.skipped_chunks)

    @property
    def degraded(self) -> bool:
        """True when any chunk was quarantined instead of replayed."""
        return bool(self.skipped_chunks)


def _validate_quarantine(policy: str) -> str:
    if policy not in QUARANTINE_POLICIES:
        raise ValueError(
            f"quarantine must be one of {QUARANTINE_POLICIES}, got {policy!r}"
        )
    return policy


def _finish_pipeline(
    lifeguard: Lifeguard, accelerator: EventAccelerator, dispatcher: EventDispatcher
) -> Tuple[DispatchStats, AcceleratorStats, List[ErrorReport]]:
    """Finalize a consumed pipeline and collect its observable outcome."""
    lifeguard.finalize()
    return dispatcher.stats, accelerator.stats, list(lifeguard.reports)


def replay_records(
    records, lifeguard: Lifeguard, config: Optional[SystemConfig] = None
) -> Tuple[DispatchStats, AcceleratorStats, List[ErrorReport]]:
    """Consume a record sequence through ``lifeguard``; returns the stats.

    Flattens the records into columns and dispatches them through the
    run-grouped columnar engine, which produces bit-identical stats,
    cycles and reports to a per-record ``consume`` loop at a fraction of
    the interpreter overhead.
    """
    accelerator, dispatcher = build_pipeline(lifeguard, config)
    ColumnarEngine(dispatcher).consume_records(records)
    return _finish_pipeline(lifeguard, accelerator, dispatcher)


def replay_trace(
    trace_path: str,
    lifeguard: LifeguardSpec,
    config: Optional[SystemConfig] = None,
    quarantine: str = "strict",
) -> ReplayResult:
    """Sequentially replay a whole stored trace through one lifeguard.

    This is the faithful single-consumer replay: one lifeguard instance
    observes every record in order, so its reports and delivered-event
    counts match the live monitored run exactly.

    ``quarantine="strict"`` (default) raises
    :class:`~repro.trace.tracefile.TraceFormatError` on the first damaged
    chunk; ``"degrade"`` skips damaged chunks and records them in
    :attr:`ReplayResult.skipped_chunks`.
    """
    _validate_quarantine(quarantine)
    lifeguard_cls = _resolve_lifeguard(lifeguard)
    instance = lifeguard_cls()
    tracer = OBS.tracer if OBS.enabled else None
    start = time.perf_counter()
    accelerator, dispatcher = build_pipeline(instance, config)
    engine = ColumnarEngine(dispatcher)
    if tracer is not None:
        tracer.add("replay.setup", "replay", start, time.perf_counter() - start)
    skipped: List[QuarantinedChunk] = []
    with TraceReader(trace_path) as reader:
        chunks = reader.num_chunks
        if tracer is None and quarantine == "strict":
            for index in range(chunks):
                # One column-decoded chunk feeds one run-grouped columnar
                # dispatch call (bit-identical to the scalar consume loop).
                engine.consume_columns(reader.read_chunk_columns(index))
        else:
            for index in range(chunks):
                t_decode = time.perf_counter()
                try:
                    columns = reader.read_chunk_columns(index)
                except _CHUNK_DAMAGE_ERRORS as exc:
                    if quarantine != "degrade":
                        raise
                    skipped.append(QuarantinedChunk(
                        trace_path=str(trace_path), chunk=index,
                        records=reader.chunks[index].records,
                        reason="corrupt", detail=str(exc),
                    ))
                    continue
                t_dispatch = time.perf_counter()
                if tracer is not None:
                    tracer.add("replay.decode", "replay", t_decode, t_dispatch - t_decode)
                engine.consume_columns(columns)
                if tracer is not None:
                    tracer.add(
                        "replay.dispatch", "replay", t_dispatch,
                        time.perf_counter() - t_dispatch,
                    )
    t_finish = time.perf_counter()
    dispatch, accel, reports = _finish_pipeline(instance, accelerator, dispatcher)
    if OBS.enabled:
        if tracer is not None:
            tracer.add("replay.finish", "replay", t_finish, time.perf_counter() - t_finish)
        if OBS.registry is not None:
            from repro.obs.pipeline import collect_pipeline

            registry = OBS.registry
            registry.counter("replay.chunks").inc(chunks)
            registry.counter("replay.records").inc(dispatch.records_consumed)
            if skipped:
                registry.counter("replay.chunks_quarantined").inc(len(skipped))
                registry.counter("replay.records_quarantined").inc(
                    sum(chunk.records for chunk in skipped)
                )
            collect_pipeline(
                registry,
                dispatcher=dispatcher,
                accelerator=accelerator,
                lifeguard=instance,
                recorder=OBS.recorder,
            )
    return ReplayResult(
        lifeguard=lifeguard_cls.name,
        records=dispatch.records_consumed,
        chunks=chunks,
        workers=1,
        dispatch=dispatch,
        accelerator=accel,
        reports=reports,
        wall_seconds=time.perf_counter() - start,
        skipped_chunks=skipped,
    )


# ---------------------------------------------------------------------- sharded


def _contiguous_spans(num_chunks: int, workers: int) -> List[List[int]]:
    """Split ``range(num_chunks)`` into up to ``workers`` contiguous spans."""
    if not num_chunks:
        return []
    workers = min(workers, num_chunks)
    base, extra = divmod(num_chunks, workers)
    spans: List[List[int]] = []
    start = 0
    for worker in range(workers):
        length = base + (1 if worker < extra else 0)
        spans.append(list(range(start, start + length)))
        start += length
    return spans


@dataclass(frozen=True)
class ShardTask:
    """Picklable unit of supervised replay work: one chunk span of one trace.

    The frozen-dataclass shape is what lets the supervisor derive probe and
    final tasks with :func:`dataclasses.replace` during span bisection.
    """

    trace_path: str
    lifeguard: str
    config: Optional[SystemConfig]
    #: Contiguous chunk indices this shard replays, in order.
    chunks: Tuple[int, ...]
    #: Record count per chunk (parallel to ``chunks``) for quarantine
    #: accounting without re-opening the trace in the parent.
    chunk_records: Tuple[int, ...]
    collect_timing: bool = False
    quarantine: str = "strict"
    #: Chunks to quarantine without reading (poison chunks isolated by span
    #: bisection -- reading them is what killed the workers).
    skip: FrozenSet[int] = frozenset()
    #: Optional :class:`repro.faultinject.FaultPlan`, fired once per chunk
    #: read; ``None`` in production.
    fault_plan: Optional[object] = None
    #: Shared-memory segment descriptor set by the parent's pre-decode
    #: stage (:class:`repro.trace.shm.SegmentPool`).  Chunks present in the
    #: segment are consumed as zero-copy column views; chunks absent from
    #: it (or the whole span when ``None``) are read from the trace file.
    segment: Optional[ShardSegment] = None


@dataclass
class _ShardResult:
    """Picklable result of replaying one contiguous span of chunks."""

    records: int
    dispatch: DispatchStats
    accelerator: AcceleratorStats
    reports: List[ErrorReport]
    #: chunks this worker quarantined (damage found, or skip-set poison)
    skipped: List[QuarantinedChunk] = field(default_factory=list)
    #: wall-time breakdown of this shard (only when timing collection is on)
    timing: Optional[dict] = None
    #: accelerator/mapper/shadow counter detail (only when collection is on):
    #: the live IT/IF/M-TLB objects never cross the process boundary, so the
    #: worker captures their counters as plain dicts for the parent registry
    detail: Optional[dict] = None

    # The pickled form is a compact tuple of primitives: stats dataclasses
    # flatten to field tuples and each ErrorReport to one 6-tuple, instead
    # of a per-object class/dict round-trip.  This is the "results stop
    # round-tripping full reports through pickle" half of shared-memory
    # replay; ``merge_reports``/``sum_stats`` consume the reconstruction
    # unchanged.

    def __getstate__(self):
        return (
            self.records,
            astuple(self.dispatch),
            astuple(self.accelerator),
            [
                (r.kind.value, r.lifeguard, r.pc, r.address, r.thread_id, r.message)
                for r in self.reports
            ],
            [astuple(chunk) for chunk in self.skipped],
            self.timing,
            self.detail,
        )

    def __setstate__(self, state):
        records, dispatch, accelerator, reports, skipped, timing, detail = state
        self.records = records
        self.dispatch = DispatchStats(*dispatch)
        self.accelerator = AcceleratorStats(*accelerator)
        self.reports = [
            ErrorReport(ErrorKind(kind), lifeguard, pc, address, thread_id, message)
            for kind, lifeguard, pc, address, thread_id, message in reports
        ]
        self.skipped = [QuarantinedChunk(*chunk) for chunk in skipped]
        self.timing = timing
        self.detail = detail


def _replay_shard(task: ShardTask) -> _ShardResult:
    """Worker entry point: replay one shard task with a fresh lifeguard.

    Runs in a supervised child process (or in-process for sequential and
    fallback replays).  Under ``quarantine="degrade"`` a damaged chunk is
    skipped and recorded instead of raising; chunks in ``task.skip`` are
    quarantined without being read at all.  When timing collection is on,
    ``monotonic`` start/end are system-wide comparable on Linux, so the
    parent can line worker lifetimes up against its own clock; the
    serialize cost is measured by pickling the result exactly as the IPC
    return path will (the timing dict itself rides along un-measured).
    """
    mono_start = time.monotonic()
    wall_start = time.perf_counter()
    plan = task.fault_plan
    degrade = task.quarantine == "degrade"
    lifeguard = ALL_LIFEGUARDS[task.lifeguard]()
    accelerator, dispatcher = build_pipeline(lifeguard, task.config)
    engine = ColumnarEngine(dispatcher)
    setup_s = time.perf_counter() - wall_start
    decode_s = 0.0
    dispatch_s = 0.0
    shm_attach_s = 0.0
    skipped: List[QuarantinedChunk] = []
    # Attach this shard's pre-decoded segment (if the parent packed one);
    # chunks it holds dispatch as zero-copy views, the rest read from file.
    shm = None
    packed_chunks = {}
    if task.segment is not None:
        t_attach = time.perf_counter()
        try:
            shm = attach_segment(task.segment.name)
            packed_chunks = task.segment.chunk_map()
        except OSError:
            shm = None
            packed_chunks = {}
        shm_attach_s += time.perf_counter() - t_attach
    reader: Optional[TraceReader] = None
    try:
        for position, index in enumerate(task.chunks):
            if index in task.skip:
                skipped.append(QuarantinedChunk(
                    trace_path=task.trace_path, chunk=index,
                    records=task.chunk_records[position], reason="poison",
                    detail="isolated by span bisection",
                ))
                continue
            if plan is not None:
                plan.fire(index)
            packed = packed_chunks.get(index)
            if packed is not None:
                t_attach = time.perf_counter()
                region = shm.buf[packed.offset:packed.offset + packed.layout.nbytes]
                try:
                    columns = RecordColumns.from_buffers(packed.layout, region)
                finally:
                    region.release()
                shm_attach_s += time.perf_counter() - t_attach
                t_dispatch = time.perf_counter()
                try:
                    # One pre-decoded chunk feeds one columnar dispatch call.
                    engine.consume_columns(columns)
                finally:
                    columns.release()
                dispatch_s += time.perf_counter() - t_dispatch
                continue
            t_decode = time.perf_counter()
            try:
                if reader is None:
                    reader = TraceReader(task.trace_path)
                columns = reader.read_chunk_columns(index)
            except _CHUNK_DAMAGE_ERRORS as exc:
                if not degrade:
                    raise
                skipped.append(QuarantinedChunk(
                    trace_path=task.trace_path, chunk=index,
                    records=task.chunk_records[position], reason="corrupt",
                    detail=str(exc),
                ))
                continue
            t_dispatch = time.perf_counter()
            decode_s += t_dispatch - t_decode
            # One column-decoded chunk feeds one columnar dispatch call.
            engine.consume_columns(columns)
            dispatch_s += time.perf_counter() - t_dispatch
    finally:
        if reader is not None:
            reader.close()
        if shm is not None:
            shm.close()
    dispatch, accel, reports = _finish_pipeline(lifeguard, accelerator, dispatcher)
    result = _ShardResult(
        records=dispatch.records_consumed,
        dispatch=dispatch,
        accelerator=accel,
        reports=reports,
        skipped=skipped,
    )
    if not task.collect_timing:
        return result
    from repro.obs.pipeline import shard_detail

    result.detail = shard_detail(accelerator, lifeguard)
    t_serialize = time.perf_counter()
    pickle.dumps(result)
    serialize_s = time.perf_counter() - t_serialize
    result.timing = {
        "pid": os.getpid(),
        "chunks": len(task.chunks),
        "records": result.records,
        "setup_s": setup_s,
        "decode_s": decode_s,
        "dispatch_s": dispatch_s,
        "serialize_s": serialize_s,
        # Segment attach + zero-copy column reconstruction (this worker)
        # and the parent-side pre-decode/pack cost of this shard's segment:
        # together they replace decode_s + most of the old serialize/IPC
        # attribution when the shared-memory path is on.
        "shm_attach_s": shm_attach_s,
        "predecode_s": task.segment.predecode_s if task.segment is not None else 0.0,
        "worker_wall_s": time.perf_counter() - wall_start,
        "mono_start": mono_start,
        "mono_end": time.monotonic(),
    }
    return result


def _collect_telemetry(result: ReplayResult, shard_results: List[_ShardResult]) -> None:
    """Fold a merged sharded replay into the enabled telemetry registry.

    Runs in the parent at merge time: shard workers are separate processes
    whose registries (if any) die with them, so the accelerator counters
    travel back as picklable ``detail`` dicts on the shard results.
    """
    if not OBS.enabled or OBS.registry is None:
        return
    from repro.obs.pipeline import collect_sharded_replay

    collect_sharded_replay(
        OBS.registry, result,
        [shard.detail for shard in shard_results if shard.detail],
    )


def _worker_timings(shard_results: List[_ShardResult], elapsed: float) -> List[dict]:
    """Attach per-shard IPC attribution to the shard timing breakdowns.

    ``ipc_s`` is the slice of *this shard's* supervised lifetime its worker
    did not spend computing: process spawn, task pickling, pipe wait and
    result unpickling.  The supervisor stamps ``mono_launched`` (just
    before the worker process starts) and ``mono_received`` (when its
    result arrives) onto the timing dict, and the worker's own
    ``mono_start``/``mono_end`` bracket the compute; the difference of the
    two intervals is the shard's real transfer+wait cost.  Earlier versions
    derived ``ipc_s`` from the parent's *total* elapsed time, which billed
    every worker for its siblings' runtimes and made the attribution grow
    with worker count regardless of actual IPC.  Shards replayed in-process
    (sequential reference, supervisor fallback) have no hand-off, so their
    ``ipc_s`` is 0.
    """
    timings = []
    for shard in shard_results:
        if not shard.timing:
            continue
        timing = dict(shard.timing)
        launched = timing.pop("mono_launched", None)
        received = timing.pop("mono_received", None)
        if launched is not None and received is not None:
            compute = timing.get("mono_end", 0.0) - timing.get("mono_start", 0.0)
            timing["ipc_s"] = max(0.0, (received - launched) - compute)
        else:
            timing["ipc_s"] = 0.0
        timings.append(timing)
    return timings


def _merge_results(
    lifeguard_name: str,
    num_chunks: int,
    shard_results: List[_ShardResult],
    workers: int,
    elapsed: float,
    outcome=None,
) -> ReplayResult:
    """Fold shard results (and an optional supervision outcome) into one
    :class:`ReplayResult`.

    ``sum_stats`` is field-wise and ``merge_reports`` sorts
    deterministically, so the merge is insensitive to shard completion
    order -- the property that makes parallel and sequential replays
    bit-identical.  Handles the empty-trace case (no shards) by producing
    zeroed stats.
    """
    dispatch = sum_stats(DispatchStats, [s.dispatch for s in shard_results])
    accel = sum_stats(AcceleratorStats, [s.accelerator for s in shard_results])
    reports = merge_reports(*[s.reports for s in shard_results])
    skipped = [chunk for shard in shard_results for chunk in shard.skipped]
    failures: List[ShardFailure] = []
    counters: Dict[str, int] = {}
    if outcome is not None:
        skipped.extend(outcome.quarantined)
        failures = list(outcome.failures)
        counters = dict(outcome.counters)
    skipped.sort(key=lambda chunk: (chunk.trace_path, chunk.chunk))
    if skipped:
        counters["chunks_quarantined"] = len(skipped)
        counters["records_quarantined"] = sum(c.records for c in skipped)
    result = ReplayResult(
        lifeguard=lifeguard_name,
        records=sum(s.records for s in shard_results),
        chunks=num_chunks,
        workers=workers,
        dispatch=dispatch,
        accelerator=accel,
        reports=reports,
        wall_seconds=elapsed,
        worker_timings=_worker_timings(shard_results, elapsed),
        skipped_chunks=skipped,
        failures=failures,
        fault_counters=counters,
    )
    _collect_telemetry(result, shard_results)
    return result


class ParallelReplay:
    """Shard a trace's chunks across supervised workers, each owning a lifeguard.

    Workers receive contiguous chunk spans (chunk boundaries are codec
    reset points, so any span decodes independently).  Per-shard stats are
    summed field-wise and reports are merged deterministically, so
    ``run()`` with N processes and ``run_sequential()`` produce identical
    results.

    ``run()`` executes shards under a :class:`ShardSupervisor`: crashed,
    hung or IO-failing workers are retried with backoff, persistent
    failures are bisected down to the poison chunk, and -- under
    ``quarantine="degrade"`` -- damaged chunks are skipped with exact
    accounting instead of failing the replay.  ``policy`` tunes the
    supervision knobs; ``fault_plan`` injects deterministic faults into the
    workers (testing only).
    """

    def __init__(
        self,
        trace_path: str,
        lifeguard: LifeguardSpec,
        config: Optional[SystemConfig] = None,
        workers: Optional[int] = None,
        collect_timing: bool = False,
        quarantine: str = "strict",
        policy: Optional[SupervisorPolicy] = None,
        fault_plan=None,
        shared_memory: Optional[bool] = None,
    ) -> None:
        self.trace_path = str(trace_path)
        self.lifeguard_cls = _resolve_lifeguard(lifeguard)
        self.config = config
        self.workers = _resolve_workers(workers)
        self.collect_timing = collect_timing
        self.quarantine = _validate_quarantine(quarantine)
        self.policy = policy
        self.fault_plan = fault_plan
        # Default on where the platform supports it: workers attach to
        # pre-decoded column buffers instead of re-decoding from the file.
        self.shared_memory = (
            shared_memory_available() if shared_memory is None else bool(shared_memory)
        )
        with TraceReader(trace_path) as reader:
            self.num_chunks = reader.num_chunks
            self._chunk_records = reader.chunk_record_counts()

    def shards(self) -> List[List[int]]:
        """Contiguous chunk-index spans, one per worker (empty spans dropped)."""
        return _contiguous_spans(self.num_chunks, self.workers)

    def _shard_tasks(self, collect_timing: bool = False) -> List[ShardTask]:
        return [
            ShardTask(
                trace_path=self.trace_path,
                lifeguard=self.lifeguard_cls.name,
                config=self.config,
                chunks=tuple(span),
                chunk_records=tuple(self._chunk_records[i] for i in span),
                collect_timing=collect_timing,
                quarantine=self.quarantine,
                fault_plan=self.fault_plan,
            )
            for span in self.shards()
        ]

    def _collect_timing(self) -> bool:
        """Timing is on when requested explicitly or telemetry is enabled."""
        return self.collect_timing or OBS.enabled

    def run_sequential(self) -> ReplayResult:
        """Replay every shard in-process (reference for the parallel path)."""
        start = time.perf_counter()
        results = [_replay_shard(task) for task in self._shard_tasks(self._collect_timing())]
        return _merge_results(
            self.lifeguard_cls.name, self.num_chunks, results,
            workers=1, elapsed=time.perf_counter() - start,
        )

    def run(self) -> ReplayResult:
        """Replay shards across supervised worker processes and merge.

        Raises :class:`ReplayError` for unrecoverable shards under
        ``strict``; never leaks child processes, including on
        ``KeyboardInterrupt``.
        """
        tasks = self._shard_tasks(self._collect_timing())
        if len(tasks) <= 1 and self.policy is None and self.fault_plan is None:
            # Nothing to supervise: zero or one shard with default policy
            # runs in-process (identical semantics, no spawn cost).
            return self.run_sequential()
        start = time.perf_counter()
        supervisor = ShardSupervisor(
            tasks,
            _replay_shard,
            policy=self.policy,
            max_parallel=min(self.workers, max(1, len(tasks))),
            lifeguard=self.lifeguard_cls.name,
            segments=SegmentPool() if self.shared_memory else None,
        )
        outcome = supervisor.run()
        return _merge_results(
            self.lifeguard_cls.name, self.num_chunks, outcome.results,
            workers=max(1, len(tasks)), elapsed=time.perf_counter() - start,
            outcome=outcome,
        )


class MultiTraceReplay:
    """Sharded replay over a *set* of traces (one per application core).

    The multi-core platform captures each application core's log channel as
    its own chunked trace file.  This replays every file of such a set
    through private lifeguard instances, reusing the per-file chunk index
    for work splitting exactly like :class:`ParallelReplay`: each file's
    chunk range is cut into contiguous spans, every ``(file, span)`` work
    item is an independent decode (chunk boundaries are codec reset
    points), and the per-item outcomes are summed field-wise with reports
    merged deterministically.  ``run()`` and ``run_sequential()`` therefore
    produce identical results regardless of worker count.
    """

    def __init__(
        self,
        trace_paths: Sequence[str],
        lifeguard: LifeguardSpec,
        config: Optional[SystemConfig] = None,
        workers: Optional[int] = None,
        collect_timing: bool = False,
        quarantine: str = "strict",
        policy: Optional[SupervisorPolicy] = None,
        fault_plan=None,
        shared_memory: Optional[bool] = None,
    ) -> None:
        if not trace_paths:
            raise ValueError("at least one trace path is required")
        self.trace_paths = [str(path) for path in trace_paths]
        self.lifeguard_cls = _resolve_lifeguard(lifeguard)
        self.config = config
        self.workers = _resolve_workers(workers)
        self.collect_timing = collect_timing
        self.quarantine = _validate_quarantine(quarantine)
        self.policy = policy
        self.fault_plan = fault_plan
        self.shared_memory = (
            shared_memory_available() if shared_memory is None else bool(shared_memory)
        )
        self.chunks_per_trace: List[int] = []
        self._chunk_records: List[Tuple[int, ...]] = []
        for path in self.trace_paths:
            with TraceReader(path) as reader:
                self.chunks_per_trace.append(reader.num_chunks)
                self._chunk_records.append(reader.chunk_record_counts())
        self.num_chunks = sum(self.chunks_per_trace)

    def _work_tasks(self, collect_timing: bool = False) -> List[ShardTask]:
        """One :class:`ShardTask` per (file, contiguous span)."""
        tasks = []
        for path, num_chunks, records in zip(
            self.trace_paths, self.chunks_per_trace, self._chunk_records
        ):
            for span in _contiguous_spans(num_chunks, self.workers):
                tasks.append(ShardTask(
                    trace_path=path,
                    lifeguard=self.lifeguard_cls.name,
                    config=self.config,
                    chunks=tuple(span),
                    chunk_records=tuple(records[i] for i in span),
                    collect_timing=collect_timing,
                    quarantine=self.quarantine,
                    fault_plan=self.fault_plan,
                ))
        return tasks

    def _collect_timing(self) -> bool:
        """Timing is on when requested explicitly or telemetry is enabled."""
        return self.collect_timing or OBS.enabled

    def run_sequential(self) -> ReplayResult:
        """Replay every work item in-process (reference for the parallel path)."""
        start = time.perf_counter()
        results = [_replay_shard(task) for task in self._work_tasks(self._collect_timing())]
        return _merge_results(
            self.lifeguard_cls.name, self.num_chunks, results,
            workers=1, elapsed=time.perf_counter() - start,
        )

    def run(self) -> ReplayResult:
        """Replay work items across supervised worker processes and merge."""
        tasks = self._work_tasks(self._collect_timing())
        supervise_anyway = self.policy is not None or self.fault_plan is not None
        if (len(tasks) <= 1 or self.workers <= 1) and not supervise_anyway:
            return self.run_sequential()
        start = time.perf_counter()
        processes = min(self.workers, max(1, len(tasks)))
        supervisor = ShardSupervisor(
            tasks,
            _replay_shard,
            policy=self.policy,
            max_parallel=processes,
            lifeguard=self.lifeguard_cls.name,
            segments=SegmentPool() if self.shared_memory else None,
        )
        outcome = supervisor.run()
        return _merge_results(
            self.lifeguard_cls.name, self.num_chunks, outcome.results,
            workers=processes, elapsed=time.perf_counter() - start,
            outcome=outcome,
        )

"""Workload ``replay_mix``: capture the 16 programs once, replay the mix many times.

Set-up captures every program with ``capture_trace`` (at a seed-chosen
scale near 2.0, so every trace spans at least two 64 KiB chunks).  Each
timed pass replays the 38 (program, lifeguard) pairs with ``replay_trace``
in the seed's order.  Every replay is checked against a per-record
``EventDispatcher.consume`` reference computed once, untimed, in set-up.

The traced run replays the same pairs through the same public pieces
``replay_trace`` is built from (``build_pipeline``, ``ColumnarEngine``,
``TraceReader.read_chunk_columns``, ``ColumnarEngine.consume_columns``,
``Lifeguard.finalize``) with a span around each call, and reads the
codec and dispatch counts from ``repro.obs``.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import astuple
from pathlib import Path
from typing import Dict, List, Tuple

from benchlib import (
    MIX_LIFEGUARDS,
    HostClock,
    Outcome,
    Plan,
    end_to_end_metrics,
    make_plan,
    mix_pairs,
    pass_shares,
    pipeline_counts,
    ratio,
    run_until,
    tracing_overhead,
)
from repro.experiments.harness import capture_trace
from repro.lba.columnar import ColumnarEngine
from repro.lifeguards import ALL_LIFEGUARDS
from repro.obs.metrics import MetricsRegistry
from repro.obs.pipeline import collect_pipeline
from repro.obs.runtime import observed
from repro.obs.spans import SpanTracer
from repro.trace.replay import build_pipeline, replay_trace
from repro.trace.tracefile import TraceReader, TraceStats

#: Per-program scales the seed chooses from (every one gives >= 2 chunks).
SCALES = (1.9, 2.0, 2.1)
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3
MIN_PASSES = 3
#: Untraced and traced passes of a traced run, interleaved.
TRACED_PASSES = 2

#: What one replay must reproduce: (reports, DispatchStats, AcceleratorStats).
Signature = Tuple[tuple, tuple, tuple]


def signature(reports, dispatch, accelerator) -> Signature:
    return tuple(reports), astuple(dispatch), astuple(accelerator)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def capture_mix(plan: Plan, directory: Path, clock: HostClock, tracer=None):
    """Capture every program of the mix into ``directory``.

    Returns the capture stats and the capture time.
    """
    directory.mkdir(parents=True)
    stats = {}
    total = 0.0
    for program in sorted({program for program, _ in plan.pairs}):
        path = directory / f"{program}.lbatrace"
        start = time.perf_counter()
        stats[program], seconds = clock.measure(
            lambda: capture_trace(program, path, scale=plan.scales[program])
        )
        total += seconds
        if tracer is not None:
            tracer.add("lba.capture.capture_trace_s", "lba", start, seconds)
    return stats, total


def set_up(plan: Plan, workdir: Path, outcome: Outcome, clock: HostClock,
           repeats: int, tracer=None):
    """Capture the mix ``repeats`` times; later captures must be byte-identical.

    Returns the trace directory, the capture stats and each set-up's time.
    """
    times: List[float] = []
    digests: Dict[str, str] = {}
    traces = workdir / "capture0"
    stats: Dict[str, TraceStats] = {}
    for repeat in range(repeats):
        directory = workdir / f"capture{repeat}"
        repeat_stats, repeat_time = capture_mix(plan, directory, clock, tracer)
        times.append(repeat_time)
        repeat_digests = {p: _digest(directory / f"{p}.lbatrace") for p in repeat_stats}
        if repeat == 0:
            stats, digests = repeat_stats, repeat_digests
            continue
        if repeat_digests != digests:
            outcome.problem(f"capture {repeat} differs from capture 0 (same seed)")
        shutil.rmtree(directory)
    for program, program_stats in stats.items():
        if program_stats.chunks < 2:
            outcome.problem(f"{program}: trace has {program_stats.chunks} chunk(s), expected >= 2")
    return traces, stats, times


def reference(path: Path, lifeguard: str) -> Signature:
    """Replay one trace record by record through ``EventDispatcher.consume``."""
    instance = ALL_LIFEGUARDS[lifeguard]()
    accelerator, dispatcher = build_pipeline(instance)
    with TraceReader(path) as reader:
        for record in reader.iter_records():
            dispatcher.consume(record)
    instance.finalize()
    return signature(instance.reports, dispatcher.stats, accelerator.stats)


class ReplayMix:
    """One run of the workload: set-up, reference, passes."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.plan = make_plan(seed, SCALES, mix_pairs())
        self.workdir = workdir
        self.outcome = Outcome()
        self.clock = HostClock()
        #: Raw (unnormalised) figures printed beside the end-to-end metrics.
        self.side: Dict[str, tuple] = {}
        self.expected: Dict[Tuple[str, str], Signature] = {}
        self.traces = workdir
        self.stats: Dict[str, TraceStats] = {}

    # ---------------------------------------------------------------- set-up

    def prepare(self, repeats: int, tracer=None) -> List[float]:
        self.traces, self.stats, times = set_up(
            self.plan, self.workdir, self.outcome, self.clock, repeats, tracer
        )
        for program, lifeguard in self.plan.pairs:
            self.expected[(program, lifeguard)] = reference(self._path(program), lifeguard)
        return times

    def _path(self, program: str) -> Path:
        return self.traces / f"{program}.lbatrace"

    def _check(self, pair, got: Signature, records: int, chunks: int) -> str:
        stats = self.stats[pair[0]]
        if (records, chunks) != (stats.records, stats.chunks):
            return "count_drift"
        return "" if got == self.expected[pair] else "report_mismatch"

    # ---------------------------------------------------------------- passes

    def untraced_pass(self) -> dict:
        """Replay every pair with ``replay_trace``; time only the replays."""
        ops = {}
        records = instructions = 0
        for pair in self.plan.pairs:
            program, lifeguard = pair
            label = f"replay {program}/{lifeguard}"
            path = str(self._path(program))
            try:
                result, seconds = self.clock.measure(
                    lambda: replay_trace(path, lifeguard)
                )
            except Exception as exc:  # counted, reported, and the pass goes on
                self.outcome.record(label, "error", repr(exc))
                continue
            got = signature(result.reports, result.dispatch, result.accelerator)
            reason = self._check(pair, got, result.records, result.chunks)
            if self.outcome.record(label, reason):
                ops[pair] = (seconds, result.records)
                records += result.records
                instructions += result.dispatch.total_instructions
        wall = sum(seconds for seconds, _ in ops.values())
        return {"ops": ops, "wall": wall, "records": records, "instructions": instructions}

    def traced_pass(self) -> dict:
        """Replay every pair with a span around each call into a layer."""
        self.clock.reading()
        tracer = SpanTracer()
        registry = MetricsRegistry()
        wall = 0.0
        with observed() as obs:
            for pair in self.plan.pairs:
                program, lifeguard = pair
                label = f"traced replay {program}/{lifeguard}"
                start = time.perf_counter()
                try:
                    with tracer.span("trace.replay.build_pipeline"):
                        instance = ALL_LIFEGUARDS[lifeguard]()
                        accelerator, dispatcher = build_pipeline(instance)
                        engine = ColumnarEngine(dispatcher)
                    with tracer.span("trace.tracefile.open"):
                        reader = TraceReader(self._path(program))
                    with reader:
                        chunks = reader.num_chunks
                        for index in range(chunks):
                            t_read = time.perf_counter()
                            columns = reader.read_chunk_columns(index)
                            t_consume = time.perf_counter()
                            engine.consume_columns(columns)
                            t_end = time.perf_counter()
                            tracer.add(
                                "trace.tracefile.read_chunk_columns", "trace",
                                t_read, t_consume - t_read,
                            )
                            tracer.add(
                                f"lba.columnar.consume_columns.{lifeguard}", "lba",
                                t_consume, t_end - t_consume,
                            )
                    with tracer.span("lifeguards.finalize"):
                        instance.finalize()
                except Exception as exc:  # counted, reported, and the pass goes on
                    self.outcome.record(label, "error", repr(exc))
                    continue
                wall += time.perf_counter() - start
                collect_pipeline(
                    registry, dispatcher=dispatcher, accelerator=accelerator,
                    lifeguard=instance, recorder=obs.recorder, engine=engine,
                )
                got = signature(instance.reports, dispatcher.stats, accelerator.stats)
                self.outcome.record(
                    label,
                    self._check(pair, got, dispatcher.stats.records_consumed, chunks),
                )
        self.clock.reading()
        return {"wall": wall, "spans": tracer.totals(), "counts": registry.snapshot()}

    # --------------------------------------------------------------- metrics

    def end_to_end(self, seconds: float) -> Dict[str, tuple]:
        setup_times = self.prepare(SETUP_REPEATS)
        setup_calib = self.clock.end_phase()
        passes = run_until(seconds, MIN_PASSES, self.untraced_pass)
        self._check_repeats(passes)
        return end_to_end_metrics(
            self, passes, setup_times, setup_calib, self.clock.end_phase()
        )

    def _check_repeats(self, passes: List[dict]) -> None:
        counts = {(p["records"], p["instructions"]) for p in passes}
        if len(counts) != 1:
            self.outcome.problem(f"pass counts differ across passes: {sorted(counts)}")

    def per_layer(self) -> Dict[str, tuple]:
        capture_spans = SpanTracer()
        self.prepare(1, capture_spans)
        untraced: List[dict] = []
        traced: List[dict] = []
        for _ in range(TRACED_PASSES):
            untraced.append(self.untraced_pass())
            traced.append(self.traced_pass())
        self._check_repeats(untraced)
        if len({repr(t["counts"]) for t in traced}) != 1:
            self.outcome.problem("traced passes collected different counts")
        return layer_metrics(untraced, traced, capture_spans.totals())


def layer_metrics(untraced, traced, capture_spans) -> Dict[str, tuple]:
    """Per-layer shares of the traced passes, and the counts they collected."""
    consume = {
        f"lba.columnar.consume_columns.{lifeguard}": [f"lba.columnar.consume_columns.{lifeguard}"]
        for lifeguard in MIX_LIFEGUARDS
    }
    consume["lba.columnar.consume_columns"] = [span for spans in consume.values() for span in spans]
    layers = {
        name: [name]
        for name in (
            "trace.tracefile.open",
            "trace.tracefile.read_chunk_columns",
            "trace.replay.build_pipeline",
            "lifeguards.finalize",
        )
    }
    metrics = pass_shares(traced, {**consume, **layers})
    metrics.update(tracing_overhead(untraced, traced))
    metrics["lba.capture.capture_trace_s"] = (
        capture_spans.get("lba.capture.capture_trace_s", 0.0), "s"
    )
    counters = traced[0]["counts"]["counters"]
    metrics.update(pipeline_counts(counters))
    metrics["trace.tracefile.chunks"] = (counters.get("codec.chunks_read", 0), "chunks")
    metrics["trace.codec.bytes_raw"] = (counters.get("codec.bytes_raw", 0), "bytes")
    metrics["trace.tracefile.bytes_stored"] = (counters.get("codec.bytes_stored", 0), "bytes")
    runs = counters.get("dispatch.runs_total", 0)
    metrics["lba.columnar.runs"] = (runs, "runs")
    metrics["lba.columnar.mean_run_length"] = (
        ratio(counters.get("dispatch.records_total", 0), runs), "records/run"
    )
    metrics["lba.columnar.fallback_records"] = (
        counters.get("dispatch.fallback_records", 0), "records"
    )
    metrics["lba.columnar.kernel_runs"] = (counters.get("dispatch.kernel_runs", 0), "runs")
    return metrics

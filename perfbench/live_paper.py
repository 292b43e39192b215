"""Workload ``live_paper``: every program monitored live at the paper's config.

Each pass runs the 16 programs with ``run_monitored`` at the full
LMA+IT+IF configuration and a seed-chosen scale near 1.0 (the paper's
reduced input): ISA interpretation, ``LogProducer``, per-record
``EventDispatcher.consume``, the cache hierarchy and the timing model.
No trace codec or columnar code runs.  The k-th SPEC analogue runs under
MemCheck, AddrCheck or TaintCheck in turn; the multithreaded programs run
under LockSet.

The programs are clean, so every run must report nothing, and its record
count must equal a lifeguard-free ``capture_trace`` of the same program.
Simulated counts must repeat exactly from pass to pass.
"""

from __future__ import annotations

import time
from dataclasses import astuple
from pathlib import Path
from typing import Dict, List, Tuple

from benchlib import (
    SPEC_LIFEGUARDS,
    SPEC_PROGRAMS,
    THREADED_PROGRAMS,
    HostClock,
    Outcome,
    end_to_end_metrics,
    gmean,
    make_plan,
    pass_shares,
    pipeline_counts,
    ratio,
    run_until,
    tracing_overhead,
)
from repro.core.config import OPTIMIZED_CONFIG
from repro.experiments.harness import capture_trace, run_monitored
from repro.lba.capture import iter_machine_records
from repro.lba.platform import LBASystem, MonitoringResult, run_unmonitored
from repro.lifeguards import ALL_LIFEGUARDS, LockSet
from repro.obs.metrics import MetricsRegistry
from repro.obs.pipeline import collect_pipeline
from repro.obs.spans import SpanTracer
from repro.workloads.base import get_workload

SCALES = (0.95, 1.0, 1.05)
SETUP_REPEATS = 7
MIN_PASSES = 3
TRACED_PASSES = 2


def live_pairs() -> List[Tuple[str, str]]:
    """One lifeguard per program: SPEC analogues rotate, threaded use LockSet."""
    pairs = [
        (program, SPEC_LIFEGUARDS[index % len(SPEC_LIFEGUARDS)])
        for index, program in enumerate(SPEC_PROGRAMS)
    ]
    return pairs + [(program, LockSet.name) for program in THREADED_PROGRAMS]


def signature(result: MonitoringResult) -> tuple:
    """Everything simulated in a run; it must repeat exactly."""
    return (
        tuple(result.reports),
        astuple(result.timing),
        astuple(result.accelerator),
        astuple(result.dispatch),
        astuple(result.producer),
        astuple(result.mapper),
    )


class LivePaper:
    """One run of the workload: set-up, reference capture, passes."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.plan = make_plan(seed, SCALES, live_pairs())
        self.workdir = workdir
        self.outcome = Outcome()
        self.clock = HostClock()
        #: Raw (unnormalised) figures printed beside the end-to-end metrics.
        self.side: Dict[str, tuple] = {}
        self.capture_records: Dict[str, int] = {}
        self.first: Dict[Tuple[str, str], tuple] = {}

    def _build(self, program: str):
        return get_workload(program, scale=self.plan.scales[program]).build_machine()

    def set_up(self) -> float:
        """Build every program's machine once (what a monitored run starts with)."""
        return sum(
            self.clock.measure(lambda: self._build(program))[1]
            for program, _ in self.plan.pairs
        )

    def reference(self, tracer=None) -> None:
        """Capture each program once, untimed, for its expected record count."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for program, _ in self.plan.pairs:
            start = time.perf_counter()
            stats = capture_trace(
                program, self.workdir / f"{program}.lbatrace", scale=self.plan.scales[program]
            )
            if tracer is not None:
                tracer.add("lba.capture.capture_trace_s", "lba", start, time.perf_counter() - start)
            self.capture_records[program] = stats.records

    def _check(self, pair, result: MonitoringResult) -> str:
        expected = self.capture_records[pair[0]]
        if result.timing.records != expected or result.producer.records != expected:
            return "count_drift"
        if result.reports:
            return "report_mismatch"
        got = signature(result)
        if self.first.setdefault(pair, got) != got:
            return "count_drift"
        return ""

    # ---------------------------------------------------------------- passes

    def untraced_pass(self) -> dict:
        ops = {}
        records = instructions = 0
        for pair in self.plan.pairs:
            program, lifeguard = pair
            label = f"live {program}/{lifeguard}"
            scale = self.plan.scales[program]
            try:
                result, seconds = self.clock.measure(
                    lambda: run_monitored(
                        ALL_LIFEGUARDS[lifeguard], program, OPTIMIZED_CONFIG, scale=scale
                    )
                )
            except Exception as exc:  # counted, reported, and the pass goes on
                self.outcome.record(label, "error", repr(exc))
                continue
            if self.outcome.record(label, self._check(pair, result)):
                ops[pair] = (seconds, result.timing.records)
                records += result.timing.records
                instructions += result.dispatch.total_instructions
        wall = sum(seconds for seconds, _ in ops.values())
        return {"ops": ops, "wall": wall, "records": records, "instructions": instructions}

    def traced_pass(self) -> dict:
        """``run_monitored`` taken apart, with a span around each call."""
        self.clock.reading()
        tracer = SpanTracer()
        registry = MetricsRegistry()
        wall = 0.0
        totals = dict.fromkeys(
            ("app_alone_cycles", "lifeguard_finish_cycles", "producer_stall_cycles",
             "consumer_stall_cycles", "log_bytes", "l1_accesses", "l1_misses",
             "l2_accesses", "l2_misses"),
            0,
        )
        slowdowns: List[float] = []
        for pair in self.plan.pairs:
            program, lifeguard = pair
            label = f"traced live {program}/{lifeguard}"
            start = time.perf_counter()
            try:
                with tracer.span("workloads.build_machine"):
                    machine = self._build(program)
                with tracer.span("lba.platform.init"):
                    system = LBASystem(
                        machine, ALL_LIFEGUARDS[lifeguard](), OPTIMIZED_CONFIG,
                        workload_name=program,
                    )
                with tracer.span("lba.platform.run"):
                    result = system.run()
            except Exception as exc:  # counted, reported, and the pass goes on
                self.outcome.record(label, "error", repr(exc))
                continue
            wall += time.perf_counter() - start
            collect_pipeline(
                registry, dispatcher=system.dispatcher, accelerator=system.accelerator,
                lifeguard=system.lifeguard,
            )
            timing = result.timing
            totals["app_alone_cycles"] += timing.app_alone_cycles
            totals["lifeguard_finish_cycles"] += timing.lifeguard_finish_cycles
            totals["producer_stall_cycles"] += timing.producer_stall_cycles
            totals["consumer_stall_cycles"] += timing.consumer_stall_cycles
            totals["log_bytes"] += result.producer.log_bytes
            caches = system.hierarchy.core(0)
            for cache in (caches.l1i, caches.l1d):
                totals["l1_accesses"] += cache.stats.accesses
                totals["l1_misses"] += cache.stats.misses
            totals["l2_accesses"] += system.hierarchy.l2.stats.accesses
            totals["l2_misses"] += system.hierarchy.l2.stats.misses
            slowdowns.append(result.slowdown)
            self.outcome.record(label, self._check(pair, result))
        self.clock.reading()
        return {
            "wall": wall, "spans": tracer.totals(), "counts": registry.snapshot(),
            "totals": totals, "slowdowns": slowdowns,
        }

    def machine_only(self, tracer: SpanTracer) -> None:
        """Time the ISA alone: unmonitored runs and bare record streams."""
        for program, _ in self.plan.pairs:
            machine = self._build(program)
            with tracer.span("isa.run_unmonitored"):
                run_unmonitored(machine)
            machine = self._build(program)
            with tracer.span("lba.capture.iter_machine_records"):
                records = sum(1 for _ in iter_machine_records(machine))
            self.outcome.record(
                f"records {program}",
                "" if records == self.capture_records[program] else "count_drift",
            )

    # --------------------------------------------------------------- metrics

    def end_to_end(self, seconds: float) -> Dict[str, tuple]:
        setup_times = [self.set_up() for _ in range(SETUP_REPEATS)]
        setup_calib = self.clock.end_phase()
        self.reference()
        passes = run_until(seconds, MIN_PASSES, self.untraced_pass)
        return end_to_end_metrics(
            self, passes, setup_times, setup_calib, self.clock.end_phase()
        )

    def per_layer(self) -> Dict[str, tuple]:
        capture_spans = SpanTracer()
        self.reference(capture_spans)
        untraced: List[dict] = []
        traced: List[dict] = []
        for _ in range(TRACED_PASSES):
            untraced.append(self.untraced_pass())
            traced.append(self.traced_pass())
        if len({repr((t["counts"], t["totals"])) for t in traced}) != 1:
            self.outcome.problem("traced passes collected different counts")
        machine_spans = SpanTracer()
        self.machine_only(machine_spans)
        return layer_metrics(untraced, traced, capture_spans.totals(), machine_spans.totals())


def layer_metrics(untraced, traced, capture_spans, machine_spans) -> Dict[str, tuple]:
    """Per-layer shares of the traced passes, and the simulated counts they saw.

    The machine-only calls ran outside the passes, over the same programs;
    their shares are of the median traced pass wall too.
    """
    metrics = pass_shares(traced, {
        name: [name]
        for name in ("workloads.build_machine", "lba.platform.init", "lba.platform.run")
    })
    metrics.update(tracing_overhead(untraced, traced))
    wall = metrics["pass_wall_s"][0]
    unmonitored = machine_spans["isa.run_unmonitored"] / wall
    iterate = machine_spans["lba.capture.iter_machine_records"] / wall
    metrics["isa.run_unmonitored_share"] = (unmonitored, "fraction")
    metrics["lba.capture.iter_machine_records_share"] = (iterate, "fraction")
    metrics["lba.platform.monitor_share"] = (
        metrics["lba.platform.run_share"][0] - iterate, "fraction"
    )
    metrics["lba.capture.capture_trace_s"] = (
        capture_spans["lba.capture.capture_trace_s"], "s"
    )
    first = traced[0]
    metrics.update(pipeline_counts(first["counts"]["counters"]))
    totals = first["totals"]
    for name in ("app_alone_cycles", "lifeguard_finish_cycles",
                 "producer_stall_cycles", "consumer_stall_cycles"):
        metrics[f"lba.timing.{name}"] = (totals[name], "cycles")
    metrics["lba.timing.sim_slowdown_gmean"] = (gmean(first["slowdowns"]), "x")
    metrics["lba.capture.log_bytes"] = (totals["log_bytes"], "bytes")
    metrics["cache.l1.miss_ratio"] = (ratio(totals["l1_misses"], totals["l1_accesses"]), "fraction")
    metrics["cache.l2.miss_ratio"] = (ratio(totals["l2_misses"], totals["l2_accesses"]), "fraction")
    return metrics

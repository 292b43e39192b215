"""Shared pieces of the LBA pipeline benchmark.

The workload modules (``replay_mix``, ``live_paper``, ``gateway_tenants``)
use these helpers to derive inputs from a seed, time passes, watch host
drift, read peak memory, count failed operations by reason, and assemble
the result printed by ``run.py``.
"""

from __future__ import annotations

import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.lifeguards import AddrCheck, LockSet, MemCheck, TaintCheck
from repro.workloads.base import workload_names

SPEC_PROGRAMS = tuple(workload_names())
THREADED_PROGRAMS = tuple(workload_names(multithreaded=True))
SPEC_LIFEGUARDS = (MemCheck.name, AddrCheck.name, TaintCheck.name)

#: Every lifeguard the mix runs, in a fixed order (per-lifeguard metrics).
MIX_LIFEGUARDS = SPEC_LIFEGUARDS + (LockSet.name,)

#: Failure reason codes; every failed operation carries exactly one.
FAILURE_REASONS = ("report_mismatch", "count_drift", "transport", "shed", "error")

#: Iterations of the host calibration loop, and the time it is normalised
#: to: about 12 ms on a 2-CPU x86-64 host, run between operations.
CALIBRATION_ITERATIONS = 15_000
CALIBRATION_NOMINAL_MS = 12.0
#: Keys of the calibration loop's dictionary.
CALIBRATION_TABLE_SIZE = 1 << 16


def mix_pairs() -> List[Tuple[str, str]]:
    """The 38 (program, lifeguard) pairs of the replay mix, in fixed order.

    The 11 SPEC analogues run under MemCheck, AddrCheck and TaintCheck; the
    5 multithreaded programs run under LockSet.
    """
    pairs = [(program, lifeguard) for program in SPEC_PROGRAMS for lifeguard in SPEC_LIFEGUARDS]
    pairs += [(program, LockSet.name) for program in THREADED_PROGRAMS]
    return pairs


@dataclass(frozen=True)
class Plan:
    """Inputs derived from one seed: program scales and operation order."""

    scales: Dict[str, float]
    pairs: Tuple[Tuple[str, str], ...]


def make_plan(seed: int, scale_choices: Sequence[float], pairs: Sequence[Tuple[str, str]]) -> Plan:
    """Pick each program's scale from ``scale_choices`` and shuffle ``pairs``."""
    rng = random.Random(seed)
    programs = SPEC_PROGRAMS + THREADED_PROGRAMS
    scales = {program: rng.choice(scale_choices) for program in programs}
    order = list(pairs)
    rng.shuffle(order)
    return Plan(scales=scales, pairs=tuple(order))


class _Probe:
    __slots__ = ("base",)

    def __init__(self, base: int) -> None:
        self.base = base

    def offset(self, value: int) -> int:
        return self.base + value


class Calibration:
    """A fixed pure-Python loop that shares nothing with the program under test.

    It does what interpreted simulators spend their time on -- dictionary
    lookups over a table larger than the caches, method calls and tuple
    appends -- so a host window that slows the program slows it alike.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.keys = rng.sample(range(1 << 30), CALIBRATION_TABLE_SIZE)
        self.table = {key: key for key in self.keys}

    def run_ms(self) -> float:
        keys, table, probe = self.keys, self.table, _Probe(1)
        mask = CALIBRATION_TABLE_SIZE - 1
        items = []
        total = 0
        start = time.perf_counter()
        for value in range(CALIBRATION_ITERATIONS):
            total += table[keys[value * 7919 & mask]] & 3
            total += probe.offset(value)
            items.append((value, total))
        return (time.perf_counter() - start) * 1000.0


class HostClock:
    """Reads the calibration loop right after each timed operation.

    The host's speed drifts by tens of percent from one window of a few
    seconds to the next.  The median reading over a phase of the run
    (set-up, or the timed passes) says how fast the host was during it,
    and scales that phase's times to a host on which the loop takes
    ``CALIBRATION_NOMINAL_MS``.  One factor per phase, not per operation:
    a reading right after an operation depends on what that operation
    left in the caches, and that evens out only over the whole phase.
    """

    def __init__(self) -> None:
        self.calibration = Calibration()
        self.readings: List[float] = []
        self._phase_start = 0

    def reading(self) -> float:
        reading = self.calibration.run_ms()
        self.readings.append(reading)
        return reading

    def measure(self, call):
        """Run ``call()``, then read the loop; returns ``(result, seconds)``."""
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        self.reading()
        return result, seconds

    def end_phase(self) -> float:
        """Median reading since the previous phase ended (ms)."""
        readings = self.readings[self._phase_start:]
        self._phase_start = len(self.readings)
        return statistics.median(readings)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Median reading and its spread (quartile distance over the median)."""
        median = statistics.median(self.readings)
        low, _, high = statistics.quantiles(self.readings, n=4)
        return {"host.calib_ms": (median, "ms"), "host.calib_drift": ((high - low) / median, "fraction")}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


@dataclass
class Outcome:
    """Operation accounting of one benchmark run."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    #: Broken invariants that are not per-operation (e.g. capture drift).
    problems: List[str] = field(default_factory=list)

    def record(self, label: str, reason: str = "", detail: str = "") -> bool:
        """Count one operation; ``reason`` marks it failed.  Returns success."""
        self.attempted += 1
        if not reason:
            return True
        assert reason in FAILURE_REASONS, reason
        self.failures[reason] += 1
        print(f"FAILED {label}: {reason} {detail}".rstrip(), file=sys.stderr)
        return False

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"PROBLEM {message}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def failure_metrics(self) -> Dict[str, Tuple[float, str]]:
        """``failed_share`` and one count per reason code."""
        metrics = {
            "failed_share": (self.failed / self.attempted if self.attempted else 0.0, "fraction")
        }
        for reason in FAILURE_REASONS:
            metrics[f"failed.{reason}"] = (self.failures[reason], "count")
        return metrics


def run_until(seconds: float, min_passes: int, run_pass) -> List:
    """Call ``run_pass`` until ``seconds`` elapsed and ``min_passes`` done."""
    results = []
    start = time.perf_counter()
    while len(results) < min_passes or time.perf_counter() - start < seconds:
        results.append(run_pass())
    return results


def median_op_rate(passes: Sequence[dict]) -> float:
    """Records per second of a pass made of each operation's median time.

    Each pass maps an operation to ``(seconds, records)``.  Taking every
    operation's median over the passes filters host bursts shorter than a
    pass without discarding any operation.
    """
    times: Dict[object, List[float]] = {}
    records: Dict[object, int] = {}
    for timed in passes:
        for op, (seconds, count) in timed["ops"].items():
            times.setdefault(op, []).append(seconds)
            records[op] = count
    return ratio(sum(records.values()), sum(statistics.median(t) for t in times.values()))


def gmean(values: Sequence[float]) -> float:
    return statistics.geometric_mean(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_shares(traced: List[dict], spans: Dict[str, Sequence[str]]) -> Dict[str, tuple]:
    """Per-layer shares of the traced pass wall, plus the pass's own health.

    ``spans`` maps a metric name to the span names it sums.  Each share is
    the median over the traced passes of (summed span time / pass wall);
    ``unattributed_share`` is the part of the wall no span covers, so the
    shares and it add up to 1.
    """
    metrics = {
        f"{name}_share": (
            statistics.median(sum(t["spans"].get(span, 0.0) for span in members) / t["wall"]
                              for t in traced),
            "fraction",
        )
        for name, members in spans.items()
    }
    metrics["unattributed_share"] = (
        statistics.median((t["wall"] - sum(t["spans"].values())) / t["wall"] for t in traced),
        "fraction",
    )
    metrics["pass_wall_s"] = (statistics.median(t["wall"] for t in traced), "s")
    return metrics


def tracing_overhead(untraced: List[dict], traced: List[dict]) -> Dict[str, tuple]:
    """Traced pass wall over untraced pass wall (medians of the same run)."""
    return {"tracing_overhead": (
        statistics.median(t["wall"] for t in traced)
        / statistics.median(u["wall"] for u in untraced),
        "x",
    )}


def end_to_end_metrics(run, passes: List[dict], setup_times: List[float],
                       setup_calib_ms: float, pass_calib_ms: float) -> Dict[str, tuple]:
    """The end-to-end metrics of either listed workload.

    Times are scaled to the nominal host speed by each phase's median
    calibration reading; the raw figures go to ``run.side``.
    """
    raw_rate = median_op_rate(passes)
    raw_setup = statistics.median(setup_times)
    first = passes[0]
    run.side = {
        "records_per_s": (raw_rate, "records/s"),
        "setup_raw_s": (raw_setup, "s"),
        "passes": (len(passes), "count"),
        "host.calib_setup_ms": (setup_calib_ms, "ms"),
        "host.calib_passes_ms": (pass_calib_ms, "ms"),
    }
    return {
        "norm_records_per_s": (raw_rate * pass_calib_ms / CALIBRATION_NOMINAL_MS, "records/s"),
        "lifeguard_instr_per_record": (
            ratio(first["instructions"], first["records"]), "instr/record"
        ),
        "setup_s": (raw_setup * CALIBRATION_NOMINAL_MS / setup_calib_ms, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def pipeline_counts(counters: Dict[str, int]) -> Dict[str, tuple]:
    """Accelerator, dispatch and shadow counts from a ``collect_pipeline`` registry."""
    check_in = counters.get("accelerator.check_events_in", 0)
    return {
        "lba.records": (counters.get("dispatch.records_consumed", 0), "records"),
        "core.it.discard_ratio": (
            ratio(counters.get("it.events_discarded", 0), counters.get("it.events_seen", 0)),
            "fraction",
        ),
        "core.if.hit_ratio": (
            ratio(counters.get("if.hits", 0), counters.get("if.lookups", 0)), "fraction"
        ),
        "core.mtlb.hit_ratio": (
            ratio(counters.get("mtlb.hits", 0), counters.get("mtlb.lookups", 0)), "fraction"
        ),
        "core.check_event_reduction": (
            1.0 - ratio(counters.get("accelerator.check_events_delivered", 0), check_in)
            if check_in else 0.0,
            "fraction",
        ),
        "lba.dispatch.events_handled": (counters.get("dispatch.events_handled", 0), "count"),
        "lba.dispatch.handler_instructions": (
            counters.get("dispatch.handler_instructions", 0), "instr"
        ),
        "memory.shadow.reads": (counters.get("shadow.reads", 0), "count"),
        "memory.shadow.writes": (counters.get("shadow.writes", 0), "count"),
    }

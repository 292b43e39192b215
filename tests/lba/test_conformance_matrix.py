"""Differential conformance matrix: every lifeguard × every workload.

Five consumption paths must agree bit for bit on every cell of the
matrix:

* the per-record dispatch loop (``EventDispatcher.consume``),
* the per-PC translated consumer the live platforms run
  (``EventDispatcher.translated``),
* the batched entry point with a cache hierarchy attached
  (``ColumnarEngine.consume_columns``, which cannot run-group then and
  dispatches the rows of the batch one by one), checked against a
  ``consume`` loop over an identical hierarchy,
* the run-grouped columnar engine (``ColumnarEngine.consume_columns``
  over a structure-of-arrays flattening of the record stream),
* the multi-core platform at N=1 against the classic dual-core
  :meth:`LBASystem.run` (which drives the per-record loop through the
  full timing model).

"Agree" means identical error reports, identical lifeguard cycle counts
and identical statistics -- :class:`DispatchStats`,
:class:`AcceleratorStats`, and for the columnar leg additionally the
*internal* accelerator state (IT table, Idempotent-Filter contents and
LRU order, M-TLB CAM and counters, mapper counters); for the full-system
leg the complete :class:`MonitoringResult` including the timing
breakdown, producer statistics (exact log bytes) and mapper counters.

The matrix spans all five lifeguards and *every* registered workload
(the full SPEC-analogue suite plus the multithreaded Table 3 suite), so
any new fast path that diverges from its reference path, on any workload
family, fails here rather than in an experiment eyeball.

Adding a lifeguard: register it in ``repro.lifeguards.ALL_LIFEGUARDS``
and it joins the matrix automatically -- the parametrization below reads
the registry.
"""

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.accelerator import AcceleratorConfig, EventAccelerator
from repro.core.config import SystemConfig
from repro.lba.capture import LogProducer
from repro.lba.columnar import ColumnarEngine
from repro.lba.dispatch import EventDispatcher
from repro.lba.multicore import MultiCoreLBASystem
from repro.lba.platform import LBASystem
from repro.lifeguards import ALL_LIFEGUARDS
from repro.trace.codec import RecordColumns
from repro.trace.replay import build_pipeline
from repro.workloads.base import get_workload, workload_names

#: Small but non-trivial inputs: every workload still exercises its loops,
#: allocations and annotations, and the whole matrix stays CI-friendly.
SCALE = 0.15

LIFEGUARDS = sorted(ALL_LIFEGUARDS)
WORKLOADS = workload_names() + workload_names(multithreaded=True)


@pytest.fixture(scope="module")
def record_streams():
    """Lazily-built cache of each workload's full record stream."""
    streams = {}

    def build(name):
        if name not in streams:
            producer = LogProducer(get_workload(name, scale=SCALE).build_machine(), None)
            streams[name] = [record for record, _cost in producer.stream()]
        return streams[name]

    return build


def _run_per_record(records, lifeguard_name):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = build_pipeline(lifeguard)
    cycles = sum(dispatcher.consume(record) for record in records)
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _run_translated(records, lifeguard_name):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = build_pipeline(lifeguard)
    consume = dispatcher.translated()
    cycles = sum(consume(record) for record in records)
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _run_with_hierarchy(records, lifeguard_name, batched):
    """Consume through a dispatcher that charges a modelled cache hierarchy."""
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    config = SystemConfig().gated_for(lifeguard)
    accelerator = EventAccelerator(lifeguard.etct, AcceleratorConfig.from_system(config))
    lifeguard.attach_hardware(accelerator.mtlb)
    hierarchy = MemoryHierarchy(num_cores=2)
    dispatcher = EventDispatcher(lifeguard, accelerator, hierarchy)
    if batched:
        engine = ColumnarEngine(dispatcher)
        assert not engine.supported, "a hierarchy must force the per-row path"
        cycles = engine.consume_columns(RecordColumns.from_records(records))
    else:
        cycles = sum(dispatcher.consume(record) for record in records)
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles, hierarchy


def _cache_view(hierarchy):
    """Every cache's statistics and contents, both cores and the shared L2."""
    caches = []
    for core in (0, 1):
        per_core = hierarchy.core(core)
        caches.extend((per_core.l1i, per_core.l1d))
    caches.append(hierarchy.l2)
    return (
        [cache.stats for cache in caches],
        [cache.state_signature() for cache in caches],
        hierarchy.memory_accesses,
    )


def _run_columnar(records, lifeguard_name):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = build_pipeline(lifeguard)
    engine = ColumnarEngine(dispatcher)
    cycles = engine.consume_columns(RecordColumns.from_records(records))
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _assert_accelerator_state_equal(ref, col):
    """Internal accelerator-stack state must match, not just the counters.

    ``state_signature()`` snapshots the IT table, the Idempotent-Filter
    sets *including LRU order* and the M-TLB CAM *including LRU order*
    (with ``None`` for disabled components, which also pins down that both
    pipelines enabled the same techniques).
    """
    assert ref.state_signature() == col.state_signature()
    if ref.it is not None:
        assert ref.it.stats == col.it.stats
    if ref.idempotent_filter is not None:
        assert ref.idempotent_filter.stats == col.idempotent_filter.stats
    if ref.mtlb is not None:
        assert ref.mtlb.stats == col.mtlb.stats


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_translated_dispatch_matches_per_record(record_streams, lifeguard, workload):
    """The translated consumer is bit-identical to a ``consume`` loop on every cell.

    Same comparison depth as the columnar leg: stats, cycles, reports,
    mapper counters and the internal accelerator state.
    """
    records = record_streams(workload)
    assert records, f"workload {workload} produced no records"
    per = _run_per_record(records, lifeguard)
    translated = _run_translated(records, lifeguard)
    # .diff() names exactly which counters diverged on failure.
    assert per[2].stats.diff(translated[2].stats) == {}  # DispatchStats
    assert per[1].stats == translated[1].stats         # AcceleratorStats
    assert per[3] == translated[3]                     # total lifeguard cycles
    assert translated[3] == translated[2].stats.lifeguard_cycles
    assert per[0].reports == translated[0].reports     # error reports
    assert per[0].mapper_stats() == translated[0].mapper_stats()
    _assert_accelerator_state_equal(per[1], translated[1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_batched_dispatch_matches_per_record(record_streams, lifeguard, workload):
    """A batch consumed with a cache hierarchy attached matches a ``consume`` loop.

    This is the columnar engine's fallback: the batch round-trips through
    :class:`RecordColumns` and every row is dispatched with its metadata
    reads charged to the hierarchy.  Beyond stats, cycles, reports and the
    accelerator state, every cache's statistics and contents must match.
    """
    records = record_streams(workload)
    assert records, f"workload {workload} produced no records"
    per = _run_with_hierarchy(records, lifeguard, batched=False)
    batched = _run_with_hierarchy(records, lifeguard, batched=True)
    assert per[2].stats.diff(batched[2].stats) == {}  # DispatchStats
    assert per[1].stats == batched[1].stats          # AcceleratorStats
    assert per[3] == batched[3]                      # total lifeguard cycles
    assert batched[3] == batched[2].stats.lifeguard_cycles
    assert per[0].reports == batched[0].reports      # error reports
    assert per[0].mapper_stats() == batched[0].mapper_stats()
    _assert_accelerator_state_equal(per[1], batched[1])
    assert _cache_view(per[4]) == _cache_view(batched[4])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_columnar_dispatch_matches_per_record(record_streams, lifeguard, workload):
    """The columnar engine is bit-identical to a ``consume`` loop on every cell.

    Beyond the externally observable outcome (stats, cycles, reports) this
    also compares the internal accelerator state -- IT table contents, the
    Idempotent Filter's sets *including LRU order*, the M-TLB CAM and the
    mapper counters -- so a fast path that reaches the same totals through
    different hardware-state evolution still fails.
    """
    records = record_streams(workload)
    assert records, f"workload {workload} produced no records"
    per = _run_per_record(records, lifeguard)
    columnar = _run_columnar(records, lifeguard)
    assert per[2].stats.diff(columnar[2].stats) == {}  # DispatchStats
    assert per[1].stats == columnar[1].stats         # AcceleratorStats
    assert per[3] == columnar[3]                     # total lifeguard cycles
    assert columnar[3] == columnar[2].stats.lifeguard_cycles
    assert per[0].reports == columnar[0].reports     # error reports
    assert per[0].mapper_stats() == columnar[0].mapper_stats()
    _assert_accelerator_state_equal(per[1], columnar[1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_multicore_single_core_matches_dual_core(lifeguard, workload):
    """The N=1 multi-core platform reproduces ``LBASystem.run`` bit for bit."""
    lifeguard_cls = ALL_LIFEGUARDS[lifeguard]
    reference = LBASystem(
        get_workload(workload, scale=SCALE).build_machine(),
        lifeguard_cls(),
        SystemConfig(),
        workload_name=workload,
    ).run()
    multicore = MultiCoreLBASystem(
        get_workload(workload, scale=SCALE).build_machine(),
        lifeguard_cls,
        SystemConfig(),
        num_cores=1,
        workload_name=workload,
    ).run()
    # MonitoringResult is a dataclass: this compares the timing breakdown
    # (all cycle counts), dispatch/accelerator/producer/mapper statistics,
    # the slowdown and the full report list in order.
    assert multicore.merged == reference
    assert multicore.stats.forwarded_records == 0
    assert multicore.stats.records == reference.producer.records

"""Translated-vs-per-record dispatch equivalence.

The live platforms consume through ``EventDispatcher.translated()``, a
per-PC translation of :meth:`EventDispatcher.consume` (see
:mod:`repro.lba.translate`).  It must be bit-identical to the per-record
reference -- same :class:`DispatchStats`, :class:`AcceleratorStats`,
returned cycles, reports, mapper counters and internal IT/IF/M-TLB state --
for every lifeguard, with and without a modelled cache hierarchy (where the
cache statistics and contents must match too), and across PCs whose record
shape changes.  The engagement gate at the end checks that the bundled
programs never leave the translated path except for annotation records.
"""

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.accelerator import AcceleratorConfig, EventAccelerator
from repro.core.config import BASELINE_CONFIG, OPTIMIZED_CONFIG, SystemConfig
from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.isa.machine import Machine
from repro.lba.capture import LogProducer
from repro.lba.dispatch import EventDispatcher
from repro.lba.platform import LBASystem
from repro.lifeguards import ALL_LIFEGUARDS, AddrCheck, LockSet, MemCheck, TaintCheck
from repro.trace.replay import build_pipeline
from repro.workloads.base import get_workload, workload_names
from repro.workloads.bugs import double_free, uninitialized_condition, use_after_free

LIFEGUARDS = sorted(ALL_LIFEGUARDS)


def _workload_records(name, scale=0.3):
    workload = get_workload(name, scale=scale)
    producer = LogProducer(workload.build_machine(), None)
    return [record for record, _cost in producer.stream()]


@pytest.fixture(scope="module")
def spec_records():
    """A single-threaded SPEC-analogue record stream (loads/stores/annotations)."""
    return _workload_records("mcf")


@pytest.fixture(scope="module")
def multithreaded_records():
    """A multithreaded stream with lock/unlock and thread events."""
    return _workload_records("pbzip2")


@pytest.fixture(scope="module")
def buggy_records():
    """Record streams that actually trigger lifeguard reports."""
    records = []
    for program in (use_after_free(), double_free(), uninitialized_condition()):
        records.extend(Machine(program).trace())
    return records


def _pipeline(lifeguard, config=None, hierarchy=None):
    config = (config or SystemConfig()).gated_for(lifeguard)
    accelerator = EventAccelerator(lifeguard.etct, AcceleratorConfig.from_system(config))
    lifeguard.attach_hardware(accelerator.mtlb)
    return accelerator, EventDispatcher(lifeguard, accelerator, hierarchy)


def _run(records, lifeguard_name, translated, config=None, hierarchy=None):
    """Consume ``records``; returns everything observable, cycles per record."""
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = _pipeline(lifeguard, config, hierarchy)
    consume = dispatcher.translated() if translated else dispatcher.consume
    cycles = [consume(record) for record in records]
    lifeguard.finalize()
    return {
        "cycles": cycles,
        "dispatch": dispatcher.stats,
        "accelerator": accelerator.stats,
        "reports": lifeguard.reports,
        "mapper": lifeguard.mapper_stats(),
        "state": accelerator.state_signature(),
        "it": accelerator.it.stats if accelerator.it is not None else None,
        "if": (
            accelerator.idempotent_filter.stats
            if accelerator.idempotent_filter is not None
            else None
        ),
        "mtlb": accelerator.mtlb.stats if accelerator.mtlb is not None else None,
        "dispatcher": dispatcher,
    }


def _assert_identical(reference, translated):
    assert translated["dispatch"].diff(reference["dispatch"]) == {}
    for key in ("accelerator", "cycles", "reports", "mapper", "state", "it", "if", "mtlb"):
        assert translated[key] == reference[key], key
    assert sum(reference["cycles"]) == reference["dispatch"].lifeguard_cycles


def _check_stream(records, lifeguard_name, config=None):
    reference = _run(records, lifeguard_name, False, config)
    translated = _run(records, lifeguard_name, True, config)
    _assert_identical(reference, translated)
    return reference, translated


@pytest.mark.parametrize("name", LIFEGUARDS)
def test_translated_matches_per_record_on_spec_stream(spec_records, name):
    _check_stream(spec_records, name)


@pytest.mark.parametrize("name", LIFEGUARDS)
def test_translated_matches_per_record_without_accelerators(spec_records, name):
    """The baseline configuration: no IT, no IF, software translation."""
    _check_stream(spec_records, name, BASELINE_CONFIG)


def test_translated_matches_per_record_multithreaded_lockset(multithreaded_records):
    _check_stream(multithreaded_records, "LockSet")


@pytest.mark.parametrize("name", ["AddrCheck", "MemCheck"])
def test_translated_matches_per_record_with_reports(buggy_records, name):
    reference, _ = _check_stream(buggy_records, name)
    assert reference["reports"], "bug workloads should produce reports"


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


@pytest.mark.parametrize("config", [OPTIMIZED_CONFIG, BASELINE_CONFIG], ids=["optimized", "baseline"])
@pytest.mark.parametrize("name", LIFEGUARDS)
def test_translated_matches_per_record_with_cache_hierarchy(
    spec_records, buggy_records, name, config
):
    """Cache latencies are charged record by record exactly as the reference does."""
    records = buggy_records + spec_records
    hierarchies = (MemoryHierarchy(num_cores=2), MemoryHierarchy(num_cores=2))
    reference = _run(records, name, False, config, hierarchies[0])
    translated = _run(records, name, True, config, hierarchies[1])
    _assert_identical(reference, translated)
    assert _cache_view(hierarchies[1]) == _cache_view(hierarchies[0])
    assert hierarchies[0].core(1).l1d.stats.accesses, "metadata reads reach the L1D"


def test_annotations_fall_back_to_the_reference(spec_records):
    _, translated = _check_stream(spec_records, "MemCheck")
    dispatcher = translated["dispatcher"]
    annotations = sum(isinstance(record, AnnotationRecord) for record in spec_records)
    assert annotations
    assert dispatcher.translate_fallbacks == {"annotation": annotations}
    assert dispatcher.translate_misses == {"shape": 0}
    assert 0 < dispatcher.translate_shapes < len(spec_records)


# ------------------------------------------------------------------ shape changes

HEAP = 0x1000_0000


def _shape_changing_stream():
    """One PC whose shape changes: address presence, dest register, event type.

    A malloc makes the heap block valid; the records at PC 0x40 then
    alternate between a load (mem_to_reg) and a store (reg_to_mem), drop
    and restore their memory addresses, switch destination registers and
    feed conditional tests, so every lifeguard sees IT transitions, filter
    probes and check flushes through re-pointed translations.
    """
    pc = 0x40
    records = [AnnotationRecord(EventType.MALLOC, address=HEAP, size=256, pc=0x10)]
    for step in range(24):
        address = HEAP + 4 * (step % 6)
        dest_reg = step % 3
        if step % 4 == 0:
            record = InstructionRecord(
                pc, EventType.MEM_TO_REG, dest_reg=dest_reg, src_addr=address,
                size=4, is_load=True, base_reg=5,
            )
        elif step % 4 == 1:
            record = InstructionRecord(
                pc, EventType.REG_TO_MEM, src_reg=dest_reg, dest_addr=address,
                size=4, is_store=True, base_reg=5,
            )
        elif step % 4 == 2:
            # the same load shape without its address
            record = InstructionRecord(
                pc, EventType.MEM_TO_REG, dest_reg=dest_reg, size=4, is_load=True,
            )
        else:
            record = InstructionRecord(
                pc, EventType.DEST_REG_OP_REG, dest_reg=(dest_reg + 1) % 3,
                src_reg=dest_reg, is_cond_test=True,
            )
        records.append(record)
        # a second, stable PC between the changes
        records.append(InstructionRecord(0x44, EventType.IMM_TO_REG, dest_reg=4))
    records.append(AnnotationRecord(EventType.FREE, address=HEAP, pc=0x14))
    return records


@pytest.mark.parametrize("name", LIFEGUARDS)
def test_shape_changes_at_one_pc_are_repointed(name):
    records = _shape_changing_stream()
    _, translated = _check_stream(records, name)
    dispatcher = translated["dispatcher"]
    # consecutive records at PC 0x40 always differ in shape: each one re-points
    repoints = sum(isinstance(r, InstructionRecord) and r.pc == 0x40 for r in records) - 1
    assert dispatcher.translate_misses == {"shape": repoints}
    assert dispatcher.translate_fallbacks == {"annotation": 2}


def test_translated_consumer_is_built_once():
    lifeguard = MemCheck()
    _, dispatcher = build_pipeline(lifeguard)
    assert dispatcher.translated() is dispatcher.translated()


# ------------------------------------------------------------------ engagement


def _live_pairs():
    """Every bundled program under the lifeguard the paper-figure workload uses."""
    spec = (MemCheck, AddrCheck, TaintCheck)
    pairs = [(program, spec[index % len(spec)]) for index, program in enumerate(workload_names())]
    return pairs + [(program, LockSet) for program in workload_names(multithreaded=True)]


@pytest.mark.parametrize("program,lifeguard_cls", _live_pairs())
def test_live_runs_stay_on_the_translated_path(program, lifeguard_cls):
    """Dead-path gate: the live loop engages the translation on real workloads.

    At scale 1.0 no bundled program re-points a PC, and only annotation
    records take the reference path.
    """
    system = LBASystem(
        get_workload(program, scale=1.0).build_machine(), lifeguard_cls(), OPTIMIZED_CONFIG,
        workload_name=program,
    )
    result = system.run()
    dispatcher = system.dispatcher
    assert dispatcher.translate_misses == {"shape": 0}
    assert dispatcher.translate_fallbacks == {
        "annotation": result.accelerator.annotation_records
    }
    assert 0 < dispatcher.translate_shapes < result.accelerator.instruction_records

"""Run-boundary edge cases of the columnar dispatch engine.

The conformance matrix proves the engine bit-identical over whole
workload streams; these tests aim crafted record sequences at the
run-grouping machinery itself -- runs of length one, runs spanning trace
chunk boundaries, mixed-ordinal chunks, annotation rows splitting runs,
zero-copy ``memoryview``-backed columns, and the scalar fallback paths.
A dead-path gate replays every program of the replay benchmark and
checks that only annotation and ``other`` rows leave the columnar steps.
"""

import os

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.experiments.harness import capture_trace
from repro.lba.columnar import ColumnarEngine
from repro.lba.dispatch import EventDispatcher
from repro.lifeguards import ALL_LIFEGUARDS
from repro.obs import observed
from repro.trace.codec import RecordColumns
from repro.trace.replay import build_pipeline, replay_trace
from repro.trace.tracefile import TraceReader, TraceWriter
from repro.workloads.base import workload_names

HEAP = 0x0900_0000

LIFEGUARDS = sorted(ALL_LIFEGUARDS)


def _load(i, reg=None):
    return InstructionRecord(
        pc=0x0804_8000 + 4 * i, event_type=EventType.MEM_TO_REG,
        dest_reg=(reg if reg is not None else i % 8),
        src_addr=HEAP + (i % 64) * 4, size=4, is_load=True, base_reg=(i + 1) % 8,
    )


def _store(i):
    return InstructionRecord(
        pc=0x0804_9000 + 4 * i, event_type=EventType.REG_TO_MEM,
        src_reg=i % 8, dest_addr=HEAP + (i % 64) * 4, size=4, is_store=True,
        base_reg=(i + 2) % 8,
    )


def _unary(i):
    return InstructionRecord(
        pc=0x0804_A000 + 4 * i, event_type=EventType.REG_SELF, dest_reg=i % 8,
    )


def _cond(i):
    return InstructionRecord(
        pc=0x0804_B000 + 4 * i, event_type=EventType.COND_TEST,
        src_reg=i % 8, is_cond_test=True,
    )


def _malloc(i):
    return AnnotationRecord(
        event_type=EventType.MALLOC, address=HEAP + 4096 * i, size=256,
        pc=0x0804_7F00,
    )


def _other(i):
    return InstructionRecord(
        pc=0x0804_C000 + 4 * i, event_type=EventType.OTHER,
        dest_reg=i % 8, src_reg=(i + 3) % 8,
    )


def _reference(records, lifeguard_name):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = build_pipeline(lifeguard)
    cycles = sum(dispatcher.consume(record) for record in records)
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _columnar(records, lifeguard_name, columns=None):
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = build_pipeline(lifeguard)
    if columns is None:
        columns = RecordColumns.from_records(records)
    cycles = ColumnarEngine(dispatcher).consume_columns(columns)
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles


def _assert_identical(records, lifeguard_name, columns=None):
    ref = _reference(records, lifeguard_name)
    col = _columnar(records, lifeguard_name, columns)
    assert ref[2].stats == col[2].stats
    assert ref[1].stats == col[1].stats
    assert ref[3] == col[3]
    assert ref[0].reports == col[0].reports
    assert ref[0].mapper_stats() == col[0].mapper_stats()
    assert ref[1].state_signature() == col[1].state_signature()


def _mixed_stream():
    records = [_malloc(0)]
    for i in range(30):
        records.append(_load(i))
        if i % 3 == 0:
            records.append(_store(i))
            records.append(_store(i + 1))
        if i % 5 == 0:
            records.append(_other(i))
        if i % 7 == 0:
            records.append(_malloc(i + 1))
        records.append(_cond(i))
    return records


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_runs_of_length_one(lifeguard):
    """Strictly alternating ordinals: every run is a single record."""
    records = []
    for i in range(40):
        records.append(_load(i))
        records.append(_unary(i))
        records.append(_store(i))
        records.append(_cond(i))
    _assert_identical(records, lifeguard)


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_mixed_ordinal_chunks(lifeguard):
    """Short runs of every shape mixed with annotations and ``other``."""
    _assert_identical(_mixed_stream(), lifeguard)


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_memoryview_backed_columns(lifeguard):
    """Zero-copy columns (the shared-memory replay layout) dispatch like lists.

    :meth:`RecordColumns.from_buffers` rebuilds the dense columns as
    ``memoryview`` casts over one flat buffer; the engine must consume
    them bit-identically to ``consume`` and keep no view once the caller
    calls ``release()`` -- a live export would make closing a shared
    memory segment raise ``BufferError``.
    """
    records = _mixed_stream()
    layout, parts = RecordColumns.from_records(records).to_buffers()
    backing = bytearray(layout.nbytes)
    for (_, _, offset, nbytes), part in zip(layout.fields, parts):
        backing[offset:offset + nbytes] = memoryview(part).cast("B")
    columns = RecordColumns.from_buffers(layout, backing)
    assert isinstance(columns.src_addr, memoryview)
    _assert_identical(records, lifeguard, columns)
    columns.release()
    backing.extend(b"\0")  # BufferError while any view is still exported


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_annotation_splits_a_run(lifeguard):
    """An annotation row mid-run forces a boundary and a scalar fallback."""
    records = [_malloc(0)] + [_load(i) for i in range(10)]
    records += [_malloc(1)]
    records += [_load(i) for i in range(10, 20)]
    _assert_identical(records, lifeguard)


@pytest.mark.parametrize("lifeguard", ["MemCheck", "TaintCheck", "AddrCheck"])
def test_chunk_spanning_runs_via_trace_replay(tmp_path, lifeguard):
    """One long homogeneous run split across trace chunks replays identically.

    Chunk boundaries reset the codec but must not perturb dispatch: the
    engine sees the run as two column sets whose concatenated consumption
    equals the scalar loop over the whole stream.
    """
    records = [_malloc(0)] + [_load(i) for i in range(600)] + [
        _store(i) for i in range(600)
    ]
    path = os.fspath(tmp_path / "span.lbatrace")
    with TraceWriter(path, chunk_bytes=512) as writer:
        writer.extend(records)
    assert writer.stats.chunks > 2, "trace must span several chunks"

    ref = _reference(records, lifeguard)

    lifeguard_obj = ALL_LIFEGUARDS[lifeguard]()
    accelerator, dispatcher = build_pipeline(lifeguard_obj)
    engine = ColumnarEngine(dispatcher)
    cycles = 0
    with TraceReader(path) as reader:
        for index in range(reader.num_chunks):
            cycles += engine.consume_columns(reader.read_chunk_columns(index))
    lifeguard_obj.finalize()

    assert dispatcher.stats == ref[2].stats
    assert accelerator.stats == ref[1].stats
    assert cycles == ref[3]
    assert lifeguard_obj.reports == ref[0].reports


def test_engine_degrades_to_batched_path_with_hierarchy():
    """With a cache hierarchy the engine must fall back (and stay identical)."""
    records = [_malloc(0)] + [_load(i) for i in range(50)] + [_store(i) for i in range(20)]

    def run(columnar):
        lifeguard = ALL_LIFEGUARDS["MemCheck"]()
        accelerator, _ = build_pipeline(lifeguard)
        hierarchy = MemoryHierarchy(num_cores=2)
        dispatcher = EventDispatcher(lifeguard, accelerator, hierarchy)
        if columnar:
            engine = ColumnarEngine(dispatcher)
            assert not engine.supported
            cycles = engine.consume_columns(RecordColumns.from_records(records))
        else:
            cycles = sum(dispatcher.consume(record) for record in records)
        return dispatcher.stats, cycles

    scalar_stats, scalar_cycles = run(columnar=False)
    columnar_stats, columnar_cycles = run(columnar=True)
    assert scalar_stats == columnar_stats
    assert scalar_cycles == columnar_cycles


def test_hand_built_columns_get_runs_lazily():
    """Columns without a run table are grouped on first consumption."""
    records = [_load(i) for i in range(8)]
    columns = RecordColumns.from_records(records)
    columns.runs = []
    lifeguard = ALL_LIFEGUARDS["AddrCheck"]()
    _, dispatcher = build_pipeline(lifeguard)
    ColumnarEngine(dispatcher).consume_columns(columns)
    assert columns.runs
    assert dispatcher.stats.records_consumed == len(records)


# ------------------------------------------------------------------ dead-path gate

#: Small enough that capturing all 16 programs takes a few seconds.
GATE_SCALE = 0.3


def _replay_mix_pairs():
    """The replay benchmark's 38 (program, lifeguard) pairs."""
    spec = [(program, name) for program in workload_names()
            for name in ("MemCheck", "AddrCheck", "TaintCheck")]
    return spec + [(program, "LockSet") for program in workload_names(multithreaded=True)]


@pytest.fixture(scope="module")
def gate_traces(tmp_path_factory):
    """Capture each program once, on first use, shared by its pairs."""
    directory = tmp_path_factory.mktemp("gate_traces")
    paths = {}

    def trace(program):
        if program not in paths:
            path = os.fspath(directory / f"{program}.lbatrace")
            capture_trace(program, path, scale=GATE_SCALE)
            paths[program] = path
        return paths[program]

    return trace


@pytest.mark.parametrize("program,lifeguard", _replay_mix_pairs())
def test_replay_stays_on_the_columnar_steps(gate_traces, program, lifeguard):
    """Dead-path gate: replay of real workloads engages the run-level steps.

    Only annotation and ``other`` rows may fall back to the per-record
    ``consume``; every instruction shape the bundled programs produce has
    a columnar step, so at least one run must stay on the columnar path.
    """
    with observed() as obs:
        result = replay_trace(gate_traces(program), lifeguard)
        counters = obs.registry.snapshot()["counters"]
    assert counters["dispatch.records_total"] == result.records
    fallback = counters["dispatch.fallback_records"]
    assert fallback == (
        counters.get("dispatch.records.annotation", 0)
        + counters.get("dispatch.records.other", 0)
    )
    assert counters["dispatch.fallback_runs"] < counters["dispatch.runs_total"]

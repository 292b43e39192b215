"""Vectorized NumPy kernel tier: admission, bit-identity, optionality.

The kernel tier (:mod:`repro.lba.kernels`) may only ever change *how fast*
a columnar batch dispatches, never any observable outcome.  These tests
pin the tier's edges:

* long same-ordinal runs hit the kernels and stay bit-identical to the
  scalar engine (reports, DispatchStats, AcceleratorStats, cycles, mapper
  counters and the internal accelerator ``state_signature()``),
* length-1 runs, mixed-ordinal chunks and chunk-split runs behave,
* a hierarchy-attached engine falls back to per-record dispatch untouched,
* zero-copy ``memoryview``-backed columns (the shared-memory replay
  representation) feed the kernels without materialisation,
* addresses beyond int64 decline admission instead of silently wrapping,
* without numpy the tier is absent and everything still runs (scalar).

Tests that assert kernels actually *fired* are skipped without numpy;
bit-identity tests run everywhere.
"""

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.lba.columnar import ColumnarEngine
from repro.lba.dispatch import EventDispatcher
from repro.lba.kernels import HAVE_NUMPY, KERNEL_MIN_RUN, build_tier
from repro.lifeguards import ALL_LIFEGUARDS
from repro.obs import MetricsRegistry
from repro.obs.pipeline import collect_pipeline
from repro.trace.codec import RecordColumns
from repro.trace.replay import build_pipeline

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

LIFEGUARDS = sorted(ALL_LIFEGUARDS)

#: Heap segment base of the default :class:`SegmentLayout`.
HEAP = 0x0900_0000

#: Level-1 page size of the two-level shadow maps (level1_bits=16).
L1_PAGE = 1 << 16


def _malloc(base, size):
    return AnnotationRecord(event_type=EventType.MALLOC, address=base, size=size, pc=0x10)


def _store_imm(addr, pc=0x200):
    return InstructionRecord(pc=pc, event_type=EventType.IMM_TO_MEM,
                             dest_addr=addr, size=4, is_store=True)


def _load_reg(addr, reg, pc=0x300):
    return InstructionRecord(pc=pc, event_type=EventType.MEM_TO_REG,
                             dest_reg=reg, src_addr=addr, size=4, is_load=True)


def _cond_test(reg, pc=0x400):
    return InstructionRecord(pc=pc, event_type=EventType.COND_TEST,
                             src_reg=reg, is_cond_test=True)


def _mem_load(addr, pc=0x500):
    return InstructionRecord(pc=pc, event_type=EventType.MEM_LOAD,
                             src_addr=addr, size=4, is_load=True)


def stream(n_blocks=3, run=48):
    """Mixed-ordinal stream of long runs over disjoint heap blocks."""
    records = []
    for block in range(n_blocks):
        base = HEAP + block * 0x40000
        records.append(_malloc(base, run * 8))
        records.extend(_store_imm(base + 4 * i, pc=0x200 + block) for i in range(run))
        records.extend(_load_reg(base + 4 * i, i % 4, pc=0x300 + block) for i in range(run))
        records.extend(_cond_test(5, pc=0x400 + block) for _ in range(run))
        records.extend(_mem_load(base + 4 * i, pc=0x500 + block) for i in range(run))
    return records


def _run_engine(chunks, lifeguard_name, kernels):
    """Dispatch pre-built column chunks; returns (engine outcome) tuple."""
    lifeguard = ALL_LIFEGUARDS[lifeguard_name]()
    accelerator, dispatcher = build_pipeline(lifeguard)
    if kernels:
        engine = ColumnarEngine(dispatcher)
    else:
        engine = ColumnarEngine(dispatcher, kernels=False)
    cycles = sum(engine.consume_columns(chunk) for chunk in chunks)
    lifeguard.finalize()
    return lifeguard, accelerator, dispatcher, cycles, engine


def _chunked(records, chunk_rows=None):
    if chunk_rows is None:
        return [RecordColumns.from_records(records)]
    return [RecordColumns.from_records(records[i:i + chunk_rows])
            for i in range(0, len(records), chunk_rows)]


def _assert_identical(scalar, vectored):
    s_lg, s_acc, s_disp, s_cycles, _ = scalar
    v_lg, v_acc, v_disp, v_cycles, _ = vectored
    assert v_disp.stats.diff(s_disp.stats) == {}
    assert v_acc.stats == s_acc.stats
    assert v_cycles == s_cycles
    assert v_lg.reports == s_lg.reports
    assert v_lg.mapper_stats() == s_lg.mapper_stats()
    assert v_acc.state_signature() == s_acc.state_signature()


# ------------------------------------------------------------------ bit-identity


@requires_numpy
@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_long_runs_bit_identical_and_kernels_fire(lifeguard):
    records = stream()
    scalar = _run_engine(_chunked(records), lifeguard, kernels=False)
    vectored = _run_engine(_chunked(records), lifeguard, kernels=True)
    _assert_identical(scalar, vectored)
    engine = vectored[4]
    if lifeguard != "LockSet":
        # Every lifeguard with registered kernels must vectorize at least
        # some of these runs (declines are counted, never silent).
        assert engine.kernel_runs > 0
    assert scalar[4].kernel_runs == 0
    assert scalar[4].kernel_fallbacks == 0


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_length_one_runs_bypass_kernels(lifeguard):
    """Alternating ordinals produce length-1 runs: below KERNEL_MIN_RUN the
    wrapper goes straight to the scalar step and bumps no counter."""
    records = [_malloc(HEAP, 0x1000)]
    for i in range(40):
        records.append(_mem_load(HEAP + 4 * (i % 8)))
        records.append(_cond_test(3))
    scalar = _run_engine(_chunked(records), lifeguard, kernels=False)
    vectored = _run_engine(_chunked(records), lifeguard, kernels=True)
    _assert_identical(scalar, vectored)
    assert vectored[4].kernel_runs == 0
    assert vectored[4].kernel_fallbacks == 0


@requires_numpy
@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_chunk_split_and_page_spanning_runs(lifeguard):
    """Runs cut across column chunks and across shadow level-1 pages."""
    # A block straddling a level-1 page boundary: the gather must walk
    # two shadow chunks.
    base = HEAP + L1_PAGE - 24 * 4
    run = 48
    records = [_malloc(base, run * 4)]
    records.extend(_store_imm(base + 4 * i) for i in range(run))
    records.extend(_load_reg(base + 4 * i, i % 4) for i in range(run))
    records.extend(_mem_load(base + 4 * i) for i in range(run))
    # Chunk size 40 cuts every run; both halves still exceed KERNEL_MIN_RUN
    # or fall back -- either way outcomes must match the scalar engine.
    for chunk_rows in (None, 40):
        scalar = _run_engine(_chunked(records, chunk_rows), lifeguard, kernels=False)
        vectored = _run_engine(_chunked(records, chunk_rows), lifeguard, kernels=True)
        _assert_identical(scalar, vectored)


@pytest.mark.parametrize("lifeguard", LIFEGUARDS)
def test_mixed_ordinal_chunks_bit_identical(lifeguard):
    """Kernel-eligible runs interleaved with short scalar runs in one chunk."""
    records = [_malloc(HEAP, 0x2000)]
    records.extend(_mem_load(HEAP + 4 * i) for i in range(32))
    records.append(_cond_test(2))
    records.extend(_store_imm(HEAP + 4 * i) for i in range(32))
    records.append(_load_reg(HEAP, 1))
    records.extend(_cond_test(5) for _ in range(32))
    scalar = _run_engine(_chunked(records), lifeguard, kernels=False)
    vectored = _run_engine(_chunked(records), lifeguard, kernels=True)
    _assert_identical(scalar, vectored)


# ------------------------------------------------------------------ fallbacks


def test_hierarchy_attached_engine_falls_back_to_batched():
    """With a cache hierarchy the engine defers to a per-record ``consume``
    loop -- the kernel tier never sees the batch and its counters stay zero."""
    records = stream(n_blocks=1)

    def run(columnar):
        lifeguard = ALL_LIFEGUARDS["MemCheck"]()
        accelerator, _ = build_pipeline(lifeguard)
        dispatcher = EventDispatcher(lifeguard, accelerator, MemoryHierarchy(num_cores=2))
        if columnar:
            engine = ColumnarEngine(dispatcher)
            assert not engine.supported
            cycles = engine.consume_columns(RecordColumns.from_records(records))
            assert engine.kernel_runs == 0
            assert engine.kernel_fallbacks == 0
        else:
            cycles = sum(dispatcher.consume(record) for record in records)
        return dispatcher.stats, cycles

    scalar_stats, scalar_cycles = run(columnar=False)
    columnar_stats, columnar_cycles = run(columnar=True)
    assert columnar_stats.diff(scalar_stats) == {}
    assert columnar_cycles == scalar_cycles


@pytest.mark.parametrize("lifeguard", ["MemCheck", "TaintCheck", "AddrCheck"])
def test_huge_addresses_decline_without_wraparound(lifeguard):
    """Addresses beyond int64 must fall back to the exact scalar paths.

    ``2**64 + offset`` would alias back into the heap if anything
    truncated it to 64 bits -- the scalar engine treats it as a plain
    (huge) non-heap address, so any silent wraparound shows up as report
    or state divergence here.
    """
    run = 32
    records = [_malloc(HEAP, 0x1000)]
    records.extend(_store_imm((1 << 64) + HEAP + 4 * i) for i in range(run))
    records.extend(_load_reg((1 << 64) + HEAP + 4 * i, i % 4) for i in range(run))
    records.extend(_mem_load((1 << 63) + 4 * i) for i in range(run))
    scalar = _run_engine(_chunked(records), lifeguard, kernels=False)
    vectored = _run_engine(_chunked(records), lifeguard, kernels=True)
    _assert_identical(scalar, vectored)
    if HAVE_NUMPY:
        # The typed column is unrepresentable, so every address-consuming
        # kernel must have *declined* (counted fallback), never crashed or
        # wrapped.  TaintCheck's IT-absorb kernel is exempt: it copies the
        # addresses verbatim through ``int()`` and may commit.
        assert vectored[4].kernel_fallbacks > 0
        if lifeguard != "TaintCheck":
            assert vectored[4].kernel_runs == 0


@requires_numpy
@pytest.mark.parametrize("lifeguard", ["MemCheck", "TaintCheck"])
def test_near_int64_addresses_decline_arithmetic_overflow(lifeguard):
    """int64-representable addresses near 2**63 still decline: computing
    ``address + size`` inside the kernel would wrap int64."""
    run = 32
    base = (1 << 62) + 16
    records = [_store_imm(base + 4 * i) for i in range(run)]
    records.extend(_load_reg(base + 4 * i, i % 4) for i in range(run))
    scalar = _run_engine(_chunked(records), lifeguard, kernels=False)
    vectored = _run_engine(_chunked(records), lifeguard, kernels=True)
    _assert_identical(scalar, vectored)
    # The address-arithmetic kernels decline above the 2**62 admission
    # ceiling; TaintCheck's arithmetic-free IT absorb may still commit.
    assert vectored[4].kernel_fallbacks > 0


# ------------------------------------------------------------------ zero-copy columns


@requires_numpy
def test_memoryview_backed_columns_feed_kernels_zero_copy():
    """Shared-memory style columns (``from_buffers``) reach the kernels as
    views -- no per-row materialisation -- and stay bit-identical."""
    records = stream(n_blocks=2)
    columns = RecordColumns.from_records(records)
    layout, parts = columns.to_buffers()
    backing = bytearray(layout.nbytes)
    for (name, typecode, offset, nbytes), part in zip(layout.fields, parts):
        backing[offset:offset + nbytes] = memoryview(part).cast("B")
    rebuilt = RecordColumns.from_buffers(layout, backing)
    try:
        # The dense columns really are views over the backing buffer, and
        # typed_column() hands the very same view to the kernels.
        assert isinstance(rebuilt.src_addr, memoryview)
        assert rebuilt.typed_column("src_addr") is rebuilt.src_addr

        scalar = _run_engine(_chunked(records), "MemCheck", kernels=False)
        lifeguard = ALL_LIFEGUARDS["MemCheck"]()
        accelerator, dispatcher = build_pipeline(lifeguard)
        engine = ColumnarEngine(dispatcher)
        cycles = engine.consume_columns(rebuilt)
        lifeguard.finalize()
        _assert_identical(scalar, (lifeguard, accelerator, dispatcher, cycles, engine))
        assert engine.kernel_runs > 0
    finally:
        rebuilt.release()


# ------------------------------------------------------------------ optionality


def test_tier_absent_without_numpy(monkeypatch):
    """With numpy unavailable the tier is None and dispatch is scalar."""
    import repro.lba.kernels as kernels

    monkeypatch.setattr(kernels, "_np", None)
    monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
    lifeguard = ALL_LIFEGUARDS["MemCheck"]()
    assert build_tier(lifeguard) is None
    accelerator, dispatcher = build_pipeline(lifeguard)
    engine = ColumnarEngine(dispatcher)
    assert engine._kernel_tier is None
    records = stream(n_blocks=1)
    cycles = engine.consume_columns(RecordColumns.from_records(records))
    lifeguard.finalize()
    scalar = _run_engine(_chunked(records), "MemCheck", kernels=False)
    _assert_identical(scalar, (lifeguard, accelerator, dispatcher, cycles, engine))
    assert engine.kernel_runs == 0
    assert engine.kernel_fallbacks == 0


def test_build_tier_requires_kernel_caps():
    """Lifeguards without ``columnar_kernels`` capabilities get no tier."""
    lockset = ALL_LIFEGUARDS["LockSet"]()
    assert lockset.columnar_kernels() is None
    if HAVE_NUMPY:
        assert build_tier(lockset) is None


def test_min_run_constant_sane():
    assert KERNEL_MIN_RUN >= 2


# ------------------------------------------------------------------ observability


def test_kernel_counters_surface_in_pipeline_snapshot():
    """``collect_pipeline`` reads the tier counters once, at collection."""
    records = stream(n_blocks=1)
    lifeguard = ALL_LIFEGUARDS["MemCheck"]()
    accelerator, dispatcher = build_pipeline(lifeguard)
    engine = ColumnarEngine(dispatcher)
    engine.consume_columns(RecordColumns.from_records(records))
    registry = MetricsRegistry()
    collect_pipeline(registry, dispatcher=dispatcher, accelerator=accelerator,
                     lifeguard=lifeguard, engine=engine)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["dispatch.kernel_runs"] == engine.kernel_runs
    assert snapshot["counters"]["dispatch.kernel_fallbacks"] == engine.kernel_fallbacks
    if HAVE_NUMPY:
        assert engine.kernel_runs > 0

    # Schema stability: the counters exist (as zeros) even without an engine.
    bare = MetricsRegistry()
    collect_pipeline(bare, dispatcher=dispatcher)
    assert bare.snapshot()["counters"]["dispatch.kernel_runs"] >= 0

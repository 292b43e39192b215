"""The log sizer counts exactly the bytes the codec writes.

Producer statistics and log-buffer occupancy charge each record its
compressed size, computed by :meth:`RecordEncoder.advance` -- the size twin
of :meth:`RecordEncoder.encode_into` -- without encoding it.  These tests
pin the twin to the encoder: per record and in stream context on every
bundled program, on random records that reach every varint width and
field, on the error cases, and through the peek/rollback API the log
buffer admits records with.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import LogBufferConfig
from repro.core.events import EVENT_TYPES, AnnotationRecord, InstructionRecord
from repro.lba.capture import LogProducer
from repro.lba.log_buffer import LogBuffer
from repro.lba.record import RecordSizer, encoded_record_size
from repro.trace.codec import RecordEncoder, TraceCodecError
from repro.workloads.base import get_workload, workload_names

PROGRAMS = workload_names() + workload_names(multithreaded=True)

_INSTRUCTION_TYPES = [t for t in EVENT_TYPES if not t.is_rare]
_ANNOTATION_TYPES = [t for t in EVENT_TYPES if t.is_rare]


def _encoded_sizes(records):
    encoder = RecordEncoder()
    out = bytearray()
    return [encoder.encode_into(out, record) for record in records], len(out)


@pytest.mark.parametrize("program", PROGRAMS)
def test_sizer_matches_encoder_on_every_program(program):
    producer = LogProducer(get_workload(program, scale=0.15).build_machine(), None)
    records = [record for record, _cost in producer.stream()]
    assert records
    sizer = RecordSizer()
    sizes = [sizer.size(record) for record in records]
    expected, stream_bytes = _encoded_sizes(records)
    assert sizes == expected
    assert sum(sizes) == stream_bytes == producer.stats.log_bytes


# --------------------------------------------------------------- random records

_u32 = st.integers(0, 2**32 - 1)
_register = st.one_of(st.none(), st.integers(0, 7), st.integers(0x80, 0x4000))
_address = st.one_of(st.none(), _u32)


@st.composite
def instruction_records(draw):
    return InstructionRecord(
        pc=draw(_u32),
        event_type=draw(st.sampled_from(_INSTRUCTION_TYPES)),
        dest_reg=draw(_register),
        src_reg=draw(_register),
        dest_addr=draw(_address),
        src_addr=draw(_address),
        size=draw(st.one_of(st.sampled_from([0, 1, 2, 4, 8]), st.integers(0, 2**20))),
        is_load=draw(st.booleans()),
        is_store=draw(st.booleans()),
        base_reg=draw(_register),
        index_reg=draw(_register),
        is_cond_test=draw(st.booleans()),
        is_indirect_jump=draw(st.booleans()),
        thread_id=draw(st.one_of(st.just(0), st.integers(1, 3), st.integers(0x80, 0x10000))),
        immediate=draw(st.one_of(st.none(), st.integers(-64, 63), st.integers(-2**40, 2**40))),
    )


@st.composite
def annotation_records(draw):
    return AnnotationRecord(
        event_type=draw(st.sampled_from(_ANNOTATION_TYPES)),
        address=draw(_address),
        size=draw(st.one_of(st.just(0), st.integers(1, 2**24))),
        thread_id=draw(st.one_of(st.just(0), st.integers(1, 0x200))),
        pc=draw(st.one_of(st.just(0), _u32)),
        payload=draw(st.one_of(st.none(), st.integers(-2**33, 2**33))),
    )


records = st.one_of(instruction_records(), annotation_records())


@settings(max_examples=300, deadline=None)
@given(st.lists(records, min_size=1, max_size=40))
def test_size_twin_matches_encode_into(stream):
    encoder, twin = RecordEncoder(), RecordEncoder()
    out = bytearray()
    for record in stream:
        before = len(out)
        written = encoder.encode_into(out, record)
        assert written == len(out) - before
        assert twin.advance(record) == written
        assert twin.state() == encoder.state()


def test_wide_fields_and_backward_deltas():
    """Two-byte flags, multi-byte registers and immediates, negative deltas."""
    wide_flags = InstructionRecord(pc=8, event_type=_INSTRUCTION_TYPES[0], is_store=True,
                                   thread_id=300, dest_reg=200, immediate=-2**35)
    backwards = InstructionRecord(pc=4, event_type=_INSTRUCTION_TYPES[0],
                                  src_addr=0x10, dest_addr=0xFFFF_FFF0)
    encoder, twin = RecordEncoder(), RecordEncoder()
    for record in (wide_flags, backwards, wide_flags):
        assert twin.advance(record) == len(encoder.encode(record))
    assert encoded_record_size(wide_flags) == len(RecordEncoder().encode(wide_flags))


# ------------------------------------------------------------------- errors

_NEGATIVE_FIELDS = [
    (InstructionRecord(pc=0x100, event_type=_INSTRUCTION_TYPES[0], src_addr=0x40), field)
    for field in ("dest_reg", "src_reg", "base_reg", "index_reg", "size", "thread_id")
] + [
    (AnnotationRecord(event_type=_ANNOTATION_TYPES[0], address=0x40, pc=0x100), field)
    for field in ("size", "thread_id")
]


@pytest.mark.parametrize(
    "record,field", _NEGATIVE_FIELDS,
    ids=[f"{type(r).__name__}.{f}" for r, f in _NEGATIVE_FIELDS],
)
def test_negative_unsigned_field_raises_like_encode_into(record, field):
    record = record._replace(**{field: -3})
    encoder, twin = RecordEncoder(), RecordEncoder()
    with pytest.raises(TraceCodecError):
        encoder.encode_into(bytearray(), record)
    with pytest.raises(TraceCodecError):
        twin.advance(record)
    # the chains advanced as far as encoding got before it raised
    assert twin.state() == encoder.state()


def test_non_record_raises():
    with pytest.raises(TraceCodecError):
        RecordEncoder().advance((0x100, "not a record"))
    with pytest.raises(TraceCodecError):
        RecordSizer().size(object())


# ------------------------------------------------------- peek and rollback

def test_measure_leaves_chains_and_rollback_round_trips():
    program = get_workload("mcf", scale=0.15).build_machine()
    stream = [record for record, _cost in LogProducer(program, None).stream()][:500]
    sizer = RecordSizer()
    expected, _ = _encoded_sizes(stream)
    for index, record in enumerate(stream):
        state = sizer.state()
        peeked = sizer.measure(record)
        assert sizer.state() == state
        assert peeked == expected[index]
        assert sizer.size(record) == peeked
        if index % 7 == 0:                       # undo and redo the commit
            sizer.rollback(state)
            assert sizer.size(record) == peeked


def test_log_buffer_admission_is_exact():
    """A full buffer rejects a record without moving the delta chains."""
    program = get_workload("gzip", scale=0.15).build_machine()
    stream = [record for record, _cost in LogProducer(program, None).stream()][:400]
    buffer = LogBuffer(LogBufferConfig(size_bytes=64))
    accepted = []
    for record in stream:
        fits = buffer.has_room_for(record)
        assert buffer.push(record) is fits
        if fits:
            accepted.append(record)
        else:
            while not buffer.is_empty:
                buffer.pop()
            assert buffer.push(record)
            accepted.append(record)
    expected, total = _encoded_sizes(accepted)
    assert buffer.stats.bytes_pushed == total
    assert buffer.stats.producer_stalls > 0

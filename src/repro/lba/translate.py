"""Per-PC translated consumer: each static instruction is translated once.

The ``nlba`` dispatch, the ETCT entry, the Inheritance-Tracking transition
and the Idempotent-Filter applicability of a record depend only on its
event type and operand *shape*, and both are fixed for a static
instruction.  :meth:`EventDispatcher.consume` rediscovers them for every
retired record; :class:`TranslatedConsumer` decides them once per shape and
binds them into a closure (the software trace-cache idea of Dynamo, Bala et
al., PLDI 2000, at instruction grain), so a record pays only for its
addresses, its IT/IF/M-TLB/shadow state and its cache latencies.

* **Table.** Entries are keyed by PC and guarded by the record's shape:
  ``record[1:4]`` (event type, dest and src registers), ``record[6:13]``
  (size, the load/store/cond-test/indirect-jump flags, base and index
  registers) and whether ``dest_addr`` / ``src_addr`` are present.  A PC
  whose shape changes is re-pointed to that shape's closure and counted as
  a shape miss.  Closures are shared per shape, not per PC.
* **Binding.** A shape's closure binds the Figure 2 gating (propagation
  used, IT on, IF on), the IT transition with the IT table entries of its
  registers, the registered check events in reference order (load, store,
  addr-compute, cond-test, indirect-jump) with their ETCT entries, filter
  key shapes and register-flush sets, and per delivered event type the
  lifeguard's scalar twin from ``columnar_handlers()`` (the generic
  :class:`DeliveredEvent` handler when there is none), its ``NLBA_CYCLES +
  handler_instructions`` charge and the lifeguard core's metadata read
  port.
* **Order.** IT transitions, conflict and register flushes, filter probes,
  handler calls and metadata cache accesses happen in the order ``consume``
  -> :meth:`EventAccelerator.process` performs them.  Events are delivered
  eagerly -- as soon as the pipeline decides them, instead of after the
  record's whole classification -- which relies on one invariant shared
  with :mod:`repro.lba.columnar`: lifeguard handlers never mutate IT or the
  Idempotent Filter.
* **Fallback.** Annotation records go to the reference ``consume``.

The result -- reports, every statistic, returned cycles, the IT/IF/M-TLB
state and the cache hierarchy's state -- is bit-identical to a ``consume``
loop; the conformance matrix, the fuzz oracle's ``translated`` leg and
``tests/lba/test_translated_dispatch.py`` enforce it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.events import (
    PROPAGATION_ORDINAL_MASK,
    AnnotationRecord,
    DeliveredEvent,
    EventType,
    InstructionRecord,
)
from repro.core.inheritance_tracking import ITState
from repro.lba.dispatch import NLBA_CYCLES

_CLEAR = ITState.CLEAR
_ADDR = ITState.ADDR
_IN_LIFEGUARD = ITState.IN_LIFEGUARD

_IMM_TO_REG = EventType.IMM_TO_REG
_IMM_TO_MEM = EventType.IMM_TO_MEM
_REG_SELF = EventType.REG_SELF
_MEM_SELF = EventType.MEM_SELF
_REG_TO_REG = EventType.REG_TO_REG
_REG_TO_MEM = EventType.REG_TO_MEM
_MEM_TO_REG = EventType.MEM_TO_REG
_MEM_TO_MEM = EventType.MEM_TO_MEM
_DEST_REG_OP_REG = EventType.DEST_REG_OP_REG
_DEST_REG_OP_MEM = EventType.DEST_REG_OP_MEM
_DEST_MEM_OP_REG = EventType.DEST_MEM_OP_REG
_OTHER = EventType.OTHER
_MEM_LOAD = EventType.MEM_LOAD
_MEM_STORE = EventType.MEM_STORE
_ADDR_COMPUTE = EventType.ADDR_COMPUTE
_COND_TEST = EventType.COND_TEST
_INDIRECT_JUMP = EventType.INDIRECT_JUMP

Step = Callable[[InstructionRecord], int]


def _no_events(record: InstructionRecord) -> int:
    """The step of a shape that delivers and counts nothing beyond the record."""
    return 0


def shape_of(record: InstructionRecord) -> tuple:
    """The guard key of an instruction record (see the module docstring)."""
    return (record[1:4], record[6:13], record[4] is None, record[5] is None)


class TranslatedConsumer:
    """The translated twin of :meth:`EventDispatcher.consume`.

    ``consume(record) -> cycles`` is a plain closure (bind it once); it
    shares the dispatcher's statistics and the accelerator it wraps, so a
    stream may mix it with the reference ``consume`` freely.  Translation
    counters live on the dispatcher (see :class:`EventDispatcher`).
    """

    def __init__(self, dispatcher) -> None:
        self.dispatcher = dispatcher
        accelerator = dispatcher.accelerator
        self._stats = dispatcher.stats
        self._acc_stats = accelerator.stats
        self._it = accelerator.it
        self._filter = accelerator.idempotent_filter
        self._uses_propagation = accelerator.uses_propagation
        self._table = accelerator.etct.handler_table()
        self._fast_handlers = dispatcher.lifeguard.columnar_handlers() or {}
        mapper = dispatcher.lifeguard.mapper()
        self._begin = mapper.begin_event
        self._charge = self._make_charge(dispatcher, mapper.end_event())
        self._flush = self._make_flush()
        self._conflicts = self._make_conflicts()
        #: shape -> translated step (shared by every PC of that shape)
        self._by_shape = {}
        #: pc -> (record[1:4], record[6:13], no dest_addr, no src_addr, step)
        self._by_pc = {}
        self.consume = self._make_consume()

    # ------------------------------------------------------------------ entry

    def _make_consume(self) -> Callable[[object], int]:
        lookup = self._by_pc.get
        miss = self._miss
        stats = self._stats
        acc_stats = self._acc_stats

        def consume(record) -> int:
            # An annotation's first field is its event type, never a PC key.
            entry = lookup(record[0])
            if entry is not None:
                head, tail, no_dest, no_src, step = entry
                if (
                    record[1:4] == head
                    and record[6:13] == tail
                    and (record[4] is None) is no_dest
                    and (record[5] is None) is no_src
                ):
                    stats.records_consumed += 1
                    acc_stats.records_processed += 1
                    acc_stats.instruction_records += 1
                    cycles = step(record)
                    if cycles:
                        stats.lifeguard_cycles += cycles
                    return cycles
            return miss(record)

        return consume

    def _miss(self, record) -> int:
        """Translate (or re-point) the record's PC; annotations fall back."""
        dispatcher = self.dispatcher
        if not isinstance(record, InstructionRecord):
            if isinstance(record, AnnotationRecord):
                dispatcher.translate_fallbacks["annotation"] += 1
            return dispatcher.consume(record)
        shape = shape_of(record)
        step = self._by_shape.get(shape)
        if step is None:
            step = self._by_shape[shape] = self._translate(record)
            dispatcher.translate_shapes += 1
        pc = record[0]
        if pc in self._by_pc:
            dispatcher.translate_misses["shape"] += 1
        self._by_pc[pc] = (*shape, step)
        # the guarded path of consume()
        self._stats.records_consumed += 1
        self._acc_stats.records_processed += 1
        self._acc_stats.instruction_records += 1
        cycles = step(record)
        self._stats.lifeguard_cycles += cycles
        return cycles

    # ------------------------------------------------------------------ shared helpers

    def _make_charge(self, dispatcher, usage) -> Callable[[int], int]:
        """Cycle charge of the event whose handler just ran (after ``begin``)."""
        stats = self._stats
        translation_instructions = dispatcher._translation.instructions
        miss_cost = dispatcher._miss_cost
        addresses = usage.metadata_addresses
        metadata_read = dispatcher._metadata_read

        if metadata_read is None:
            def charge(instructions: int) -> int:
                mapping = usage.translations * translation_instructions
                misses = usage.mtlb_misses * miss_cost
                stats.handler_instructions += instructions
                stats.mapping_instructions += mapping
                stats.miss_handler_instructions += misses
                return NLBA_CYCLES + instructions + mapping + misses + len(addresses)
        else:
            def charge(instructions: int) -> int:
                mapping = usage.translations * translation_instructions
                misses = usage.mtlb_misses * miss_cost
                stats.handler_instructions += instructions
                stats.mapping_instructions += mapping
                stats.miss_handler_instructions += misses
                cycles = NLBA_CYCLES + instructions + mapping + misses
                for address in addresses:
                    cycles += metadata_read(address, 4)
                return cycles

        return charge

    def _registered(self, event_type: EventType):
        entry = self._table[event_type.ordinal]
        return entry if entry is not None and entry.handler is not None else None

    # ------------------------------------------------------------------ delivery sites
    #
    # A *site* delivers one event of a shape and returns its cycles.  Sites
    # come in a few call forms, by where the event's fields come from:
    #
    #   record   site(r)              the record itself (from_instruction)
    #   clean    site(r)              reg_to_mem from a clean register
    #   copy     site(r, a)           reg_to_mem from a register inheriting a
    #   combine  site(r, a, n)        dest_reg op= reg inheriting [a, a+n)
    #   check    site(r, a)           a check event concerning address a
    #
    # A site runs the lifeguard's scalar twin when it has one for the event
    # type (from ``columnar_handlers()``), else the registered handler on a
    # DeliveredEvent built exactly as the reference pipeline builds it.

    def _site(self, event_type: EventType, record: InstructionRecord, form: str = "record"):
        """The delivery site of ``event_type`` for ``record``'s shape.

        Returns ``None`` when no handler is registered for the event type.
        """
        entry = self._registered(event_type)
        if entry is None:
            return None
        dest_reg, src_reg, size = record[2], record[3], record[6]
        base_reg, index_reg = record[9], record[10]
        has_dest = record[4] is not None
        has_src = record[5] is not None
        twin, translates = self._fast_handlers.get(event_type, (None, False))
        if event_type is _DEST_REG_OP_MEM:
            # The twin reports register uses with a None address: only
            # events without a destination address match that.
            if has_dest:
                twin = None
            # It translates only through its source address.
            translates = translates and (has_src or form == "combine")
        elif event_type is _COND_TEST or event_type is _INDIRECT_JUMP:
            translates = translates and has_src
        if event_type is _INDIRECT_JUMP:
            size = size or 4
        if twin is None:
            return self._generic_site(
                entry, event_type, form, dest_reg, src_reg, size, base_reg, index_reg
            )
        stats = self._stats
        begin = self._begin
        charge = self._charge
        instructions = entry.handler_instructions
        cost = NLBA_CYCLES + instructions

        if event_type is _IMM_TO_MEM:
            def site(r) -> int:
                stats.events_handled += 1
                if translates:
                    begin()
                twin(r[4], size)
                if translates:
                    return charge(instructions)
                stats.handler_instructions += instructions
                return cost
        elif event_type is _MEM_TO_MEM and form == "copy":
            def site(r, a) -> int:
                stats.events_handled += 1
                if translates:
                    begin()
                twin(r[4], a, size)
                if translates:
                    return charge(instructions)
                stats.handler_instructions += instructions
                return cost
        elif event_type is _MEM_TO_MEM:
            def site(r) -> int:
                stats.events_handled += 1
                if translates:
                    begin()
                twin(r[4], r[5], size)
                if translates:
                    return charge(instructions)
                stats.handler_instructions += instructions
                return cost
        elif event_type is _MEM_TO_REG:
            def site(r) -> int:
                stats.events_handled += 1
                if translates:
                    begin()
                twin(dest_reg, r[5], size)
                if translates:
                    return charge(instructions)
                stats.handler_instructions += instructions
                return cost
        elif event_type is _REG_TO_MEM:
            def site(r) -> int:
                stats.events_handled += 1
                if translates:
                    begin()
                twin(src_reg, r[4], size)
                if translates:
                    return charge(instructions)
                stats.handler_instructions += instructions
                return cost
        elif event_type is _DEST_REG_OP_MEM and form == "combine":
            def site(r, a, n) -> int:
                stats.events_handled += 1
                if translates:
                    begin()
                twin(dest_reg, None, a, n, r[0], r[13])
                if translates:
                    return charge(instructions)
                stats.handler_instructions += instructions
                return cost
        elif event_type is _DEST_REG_OP_MEM:
            def site(r) -> int:
                stats.events_handled += 1
                if translates:
                    begin()
                twin(dest_reg, src_reg, r[5], size, r[0], r[13])
                if translates:
                    return charge(instructions)
                stats.handler_instructions += instructions
                return cost
        elif event_type is _MEM_LOAD or event_type is _MEM_STORE:
            def site(r, a) -> int:
                stats.events_handled += 1
                if translates:
                    begin()
                twin(a, size, r[0], r[13])
                if translates:
                    return charge(instructions)
                stats.handler_instructions += instructions
                return cost
        elif event_type is _ADDR_COMPUTE:
            def site(r, a) -> int:
                stats.events_handled += 1
                if translates:
                    begin()
                twin(base_reg, index_reg, r[0], r[13], a)
                if translates:
                    return charge(instructions)
                stats.handler_instructions += instructions
                return cost
        elif event_type is _COND_TEST or event_type is _INDIRECT_JUMP:
            def site(r, a) -> int:
                stats.events_handled += 1
                if translates:
                    begin()
                twin(src_reg, a, size, r[0], r[13])
                if translates:
                    return charge(instructions)
                stats.handler_instructions += instructions
                return cost
        else:
            # A twin for an event type without a scalar-argument contract.
            return self._generic_site(
                entry, event_type, form, dest_reg, src_reg, size, base_reg, index_reg
            )
        return site

    def _generic_site(self, entry, event_type, form, dest_reg, src_reg, size,
                      base_reg, index_reg):
        """A site running the registered handler on a DeliveredEvent."""
        stats = self._stats
        begin = self._begin
        charge = self._charge
        handler = entry.handler
        instructions = entry.handler_instructions

        def deliver(event: DeliveredEvent) -> int:
            stats.events_handled += 1
            begin()
            handler(event)
            return charge(instructions)

        # DeliveredEvent fields: (event_type, pc, dest_reg, src_reg,
        # dest_addr, src_addr, size, thread_id, base_reg, index_reg,
        # payload, origin)
        if form == "clean":
            return lambda r: deliver(DeliveredEvent(
                event_type, r[0], dest_reg, None, r[4], r[5], size, r[13],
                base_reg, index_reg, None, r,
            ))
        if form == "copy":
            return lambda r, a: deliver(DeliveredEvent(
                event_type, r[0], dest_reg, None, r[4], a, size, r[13],
                base_reg, index_reg, None, r,
            ))
        if form == "combine":
            return lambda r, a, n: deliver(DeliveredEvent(
                event_type, r[0], dest_reg, None, r[4], a, n, r[13],
                base_reg, index_reg, None, r,
            ))
        if event_type is _MEM_LOAD:
            return lambda r, a: deliver(DeliveredEvent(
                event_type, r[0], None, None, a, a, size, r[13],
                base_reg, index_reg, None, r,
            ))
        if event_type is _MEM_STORE or event_type is _ADDR_COMPUTE:
            return lambda r, a: deliver(DeliveredEvent(
                event_type, r[0], None, None, a, None, size, r[13],
                base_reg, index_reg, None, r,
            ))
        if event_type is _COND_TEST or event_type is _INDIRECT_JUMP:
            return lambda r, a: deliver(DeliveredEvent(
                event_type, r[0], None, src_reg, a, a, size, r[13],
                None, None, None, r,
            ))
        return lambda r: deliver(DeliveredEvent(
            event_type, r[0], dest_reg, src_reg, r[4], r[5], size, r[13],
            base_reg, index_reg, None, r,
        ))

    def _make_flush(self) -> Optional[Callable]:
        """``flush(reg, it_entry, record) -> cycles``: deliver ``mem_to_reg``.

        The twin of ``InheritanceTracker._flush_register`` plus delivery;
        the caller checked that the entry is in the ``addr`` state and
        bumps whichever IT counter the reference bumps.
        """
        it = self._it
        if it is None:
            return None
        acc_stats = self._acc_stats
        entry = self._registered(_MEM_TO_REG)
        if entry is None:
            def flush(reg: int, it_entry, record) -> int:
                it._addr_count -= 1
                it_entry.state = _IN_LIFEGUARD
                it_entry.address = None
                it_entry.size = 0
                return 0
            return flush
        stats = self._stats
        begin = self._begin
        charge = self._charge
        handler = entry.handler
        instructions = entry.handler_instructions
        twin, translates = self._fast_handlers.get(_MEM_TO_REG, (None, False))
        cost = NLBA_CYCLES + instructions

        def flush(reg: int, it_entry, record) -> int:
            address = it_entry.address
            size = it_entry.size
            it._addr_count -= 1
            it_entry.state = _IN_LIFEGUARD
            it_entry.address = None
            it_entry.size = 0
            acc_stats.propagation_events_delivered += 1
            stats.events_handled += 1
            if twin is None:
                begin()
                handler(DeliveredEvent(
                    _MEM_TO_REG, record[0], reg, None, None, address, size,
                    record[13], None, None, None, record,
                ))
                return charge(instructions)
            if translates:
                begin()
            twin(reg, address, size)
            if translates:
                return charge(instructions)
            stats.handler_instructions += instructions
            return cost

        return flush

    def _make_conflicts(self) -> Optional[Callable]:
        """``conflicts(address, size, exclude, record) -> cycles``.

        Twin of ``InheritanceTracker._conflict_events``; the caller checked
        that some register is in the ``addr`` state and that the store has
        an address and a positive size.
        """
        it = self._it
        if it is None:
            return None
        entries = list(enumerate(it._table))
        flush = self._flush
        it_stats = it.stats

        def conflicts(address: int, size: int, exclude, record) -> int:
            high = address + size
            cycles = 0
            for reg, entry in entries:
                if reg == exclude or entry.state is not _ADDR:
                    continue
                own = entry.address
                if own is None or not (address < own + (entry.size or 1) and own < high):
                    continue
                cycles += flush(reg, entry, record)
                it_stats.conflict_flushes += 1
            return cycles

        return conflicts

    # ------------------------------------------------------------------ translation

    def _translate(self, record: InstructionRecord) -> Step:
        """Build the step for ``record``'s shape (nothing dynamic is bound)."""
        event_type = record[1]
        parts = []
        if self._uses_propagation and (PROPAGATION_ORDINAL_MASK >> event_type.ordinal) & 1:
            if self._it is not None:
                prop = self._propagation_it(record)
            else:
                prop = self._propagation_plain(record)
            if prop is not None:
                parts.append(prop)
        if record[7] or record[8] or record[11] or record[12]:
            parts.extend(self._checks(record))
        return self._compose(parts)

    @staticmethod
    def _compose(parts) -> Step:
        """One step running ``parts`` in order and summing their cycles."""
        if not parts:
            return _no_events
        if len(parts) == 1:
            return parts[0]
        if len(parts) == 2:
            first, second = parts
            return lambda record: first(record) + second(record)
        if len(parts) == 3:
            first, second, third = parts
            return lambda record: first(record) + second(record) + third(record)
        parts = tuple(parts)

        def step(record) -> int:
            cycles = 0
            for part in parts:
                cycles += part(record)
            return cycles

        return step

    # ------------------------------------------------------------------ propagation

    def _propagation_plain(self, record: InstructionRecord) -> Step:
        """IT disabled: every propagation event is delivered if registered."""
        acc_stats = self._acc_stats
        site = self._site(record[1], record)
        if site is None:
            def prop(r) -> int:
                acc_stats.propagation_events_in += 1
                return 0
        else:
            def prop(r) -> int:
                acc_stats.propagation_events_in += 1
                acc_stats.propagation_events_delivered += 1
                return site(r)
        return prop

    def _propagation_it(self, record: InstructionRecord) -> Step:
        """The Figure 5 transition of the shape's event type, IT enabled."""
        event_type = record[1]
        dest_reg, src_reg, size = record[2], record[3], record[6]
        it = self._it
        table = it._table
        it_stats = it.stats
        acc_stats = self._acc_stats
        conflicts = self._conflicts
        flush = self._flush
        dest = table[dest_reg] if dest_reg is not None and dest_reg < len(table) else None
        # stores with an address and a positive size can conflict
        conflicting = record[4] is not None and size > 0

        if event_type is _IMM_TO_REG:
            def prop(r) -> int:
                acc_stats.propagation_events_in += 1
                it_stats.events_seen += 1
                if dest is not None:
                    if dest.state is _ADDR:
                        it._addr_count -= 1
                    dest.state = _CLEAR
                    dest.address = None
                    dest.size = 0
                it_stats.events_discarded += 1
                return 0
            return prop

        if event_type is _REG_SELF or event_type is _MEM_SELF:
            def prop(r) -> int:
                acc_stats.propagation_events_in += 1
                it_stats.events_seen += 1
                it_stats.events_discarded += 1
                return 0
            return prop

        if event_type is _MEM_TO_REG:
            inherited_size = max(size, 1)
            if dest is None or record[5] is None:
                def prop(r) -> int:
                    acc_stats.propagation_events_in += 1
                    it_stats.events_seen += 1
                    it_stats.events_discarded += 1
                    return 0
            else:
                def prop(r) -> int:
                    acc_stats.propagation_events_in += 1
                    it_stats.events_seen += 1
                    if dest.state is not _ADDR:
                        it._addr_count += 1
                        dest.state = _ADDR
                    dest.address = r[5]
                    dest.size = inherited_size
                    it_stats.events_discarded += 1
                    return 0
            return prop

        if event_type is _IMM_TO_MEM or event_type is _MEM_TO_MEM:
            site = self._site(event_type, record)

            def prop(r) -> int:
                acc_stats.propagation_events_in += 1
                it_stats.events_seen += 1
                cycles = 0
                if conflicting and it._addr_count:
                    cycles = conflicts(r[4], size, None, r)
                it_stats.events_delivered += 1
                if site is not None:
                    acc_stats.propagation_events_delivered += 1
                    cycles += site(r)
                return cycles
            return prop

        if event_type is _OTHER:
            site = self._site(event_type, record)
            entries = list(enumerate(table))

            def prop(r) -> int:
                acc_stats.propagation_events_in += 1
                it_stats.events_seen += 1
                cycles = 0
                if it._addr_count:
                    for reg, entry in entries:
                        if entry.state is _ADDR:
                            cycles += flush(reg, entry, r)
                            it_stats.other_flushes += 1
                it_stats.events_delivered += 1
                if site is not None:
                    acc_stats.propagation_events_delivered += 1
                    cycles += site(r)
                return cycles
            return prop

        if event_type is _DEST_REG_OP_MEM:
            site = self._site(event_type, record)

            def prop(r) -> int:
                acc_stats.propagation_events_in += 1
                it_stats.events_seen += 1
                it_stats.events_delivered += 1
                if dest is not None:
                    if dest.state is _ADDR:
                        it._addr_count -= 1
                    dest.state = _CLEAR
                    dest.address = None
                    dest.size = 0
                if site is None:
                    return 0
                acc_stats.propagation_events_delivered += 1
                return site(r)
            return prop

        # The remaining transitions read the source register's IT state; a
        # missing source register reads as ``clear``.
        if src_reg is None:
            src = None
        else:
            src = table[src_reg]

        if event_type is _REG_TO_REG:
            site = self._site(event_type, record)

            def prop(r) -> int:
                acc_stats.propagation_events_in += 1
                it_stats.events_seen += 1
                state = src.state if src is not None else _CLEAR
                if state is _CLEAR:
                    if dest is not None:
                        if dest.state is _ADDR:
                            it._addr_count -= 1
                        dest.state = _CLEAR
                        dest.address = None
                        dest.size = 0
                    it_stats.events_discarded += 1
                    return 0
                if state is _ADDR:
                    if dest is not None:
                        if dest.state is not _ADDR:
                            it._addr_count += 1
                            dest.state = _ADDR
                        dest.address = src.address
                        dest.size = max(src.size, 1)
                    it_stats.events_discarded += 1
                    return 0
                if dest is not None:
                    if dest.state is _ADDR:
                        it._addr_count -= 1
                    dest.state = _IN_LIFEGUARD
                    dest.address = None
                    dest.size = 0
                it_stats.events_delivered += 1
                if site is None:
                    return 0
                acc_stats.propagation_events_delivered += 1
                return site(r)
            return prop

        if event_type is _REG_TO_MEM:
            site_clean = self._site(_IMM_TO_MEM, record, "clean")
            site_copy = self._site(_MEM_TO_MEM, record, "copy")
            site_plain = self._site(event_type, record)

            def prop(r) -> int:
                acc_stats.propagation_events_in += 1
                it_stats.events_seen += 1
                cycles = 0
                if conflicting and it._addr_count:
                    cycles = conflicts(r[4], size, src_reg, r)
                state = src.state if src is not None else _CLEAR
                if state is _CLEAR:
                    it_stats.events_transformed += 1
                    if site_clean is not None:
                        acc_stats.propagation_events_delivered += 1
                        cycles += site_clean(r)
                elif state is _ADDR:
                    it_stats.events_transformed += 1
                    if site_copy is not None:
                        acc_stats.propagation_events_delivered += 1
                        cycles += site_copy(r, src.address)
                else:
                    it_stats.events_delivered += 1
                    if site_plain is not None:
                        acc_stats.propagation_events_delivered += 1
                        cycles += site_plain(r)
                return cycles
            return prop

        if event_type is _DEST_REG_OP_REG:
            site_mem = self._site(_DEST_REG_OP_MEM, record, "combine")
            site_plain = self._site(event_type, record)

            def prop(r) -> int:
                acc_stats.propagation_events_in += 1
                it_stats.events_seen += 1
                state = src.state if src is not None else _CLEAR
                if state is _CLEAR:
                    # Known-clean source: the destination metadata is unchanged.
                    it_stats.events_discarded += 1
                    return 0
                if state is _ADDR:
                    address = src.address
                    inherited = src.size
                    it_stats.events_transformed += 1
                else:
                    it_stats.events_delivered += 1
                # A non-unary result is treated as clean (Section 4.2).
                if dest is not None:
                    if dest.state is _ADDR:
                        it._addr_count -= 1
                    dest.state = _CLEAR
                    dest.address = None
                    dest.size = 0
                if state is _ADDR:
                    if site_mem is None:
                        return 0
                    acc_stats.propagation_events_delivered += 1
                    return site_mem(r, address, inherited)
                if site_plain is None:
                    return 0
                acc_stats.propagation_events_delivered += 1
                return site_plain(r)
            return prop

        if event_type is _DEST_MEM_OP_REG:
            site = self._site(event_type, record)

            def prop(r) -> int:
                acc_stats.propagation_events_in += 1
                it_stats.events_seen += 1
                state = src.state if src is not None else _CLEAR
                if state is _CLEAR:
                    # Destination memory metadata unchanged: no conflict.
                    it_stats.events_discarded += 1
                    return 0
                cycles = 0
                if conflicting and it._addr_count:
                    cycles = conflicts(r[4], size, src_reg, r)
                if state is _ADDR:
                    cycles += flush(src_reg, src, r)
                    it_stats.conflict_flushes += 1
                it_stats.events_delivered += 1
                if site is not None:
                    acc_stats.propagation_events_delivered += 1
                    cycles += site(r)
                return cycles
            return prop

        raise ValueError(f"IT received a non-propagation event: {event_type}")

    # ------------------------------------------------------------------ checks

    def _checks(self, record: InstructionRecord):
        """The shape's check events in reference order, one step each."""
        is_load, is_store = record[7], record[8]
        has_dest = record[4] is not None
        has_src = record[5] is not None
        src_reg, size = record[3], record[6]
        base_reg, index_reg = record[9], record[10]
        steps = []
        if is_load and has_src:
            step = self._check(_MEM_LOAD, record, 5, size, ())
            if step is not None:
                steps.append(step)
        if is_store and has_dest:
            step = self._check(_MEM_STORE, record, 4, size, ())
            if step is not None:
                steps.append(step)
        if (is_load or is_store) and (base_reg is not None or index_reg is not None):
            address_index = 4 if has_dest else 5 if has_src else None
            step = self._check(
                _ADDR_COMPUTE, record, address_index, size, (base_reg, index_reg)
            )
            if step is not None:
                steps.append(step)
        if record[11]:
            step = self._check(_COND_TEST, record, 5 if has_src else None, size, (src_reg,))
            if step is not None:
                steps.append(step)
        if record[12]:
            step = self._check(
                _INDIRECT_JUMP, record, 5 if has_src else None, size or 4, (src_reg,)
            )
            if step is not None:
                steps.append(step)
        return steps

    def _check(self, event_type: EventType, record: InstructionRecord,
               address_index: Optional[int], size: int, flush_regs) -> Optional[Step]:
        """One check event of a shape: register flushes, filter, delivery.

        ``address_index`` is the record field holding the address the check
        concerns (its filter-key address), ``size`` the event's size and
        ``flush_regs`` the registers whose IT ``addr`` state the check
        flushes first (empty for loads and stores).
        """
        site = self._site(event_type, record, "check")
        if site is None:
            return None
        entry = self._registered(event_type)
        acc_stats = self._acc_stats
        it = self._it
        flush = self._flush
        flushes = ()
        if it is not None:
            num_regs = len(it._table)
            flushes = tuple(
                (reg, it._table[reg])
                for reg in flush_regs
                if reg is not None and reg < num_regs
            )
        filt = self._filter
        filtered = filt is not None and entry.cacheable
        if filtered:
            # keys built exactly as ETCT.filter_key builds them for this event
            lookup_insert = filt.lookup_insert
            category = entry.check_category
            mode = entry.filter_mode
            fields = entry.cacheable_fields

        def check(r) -> int:
            cycles = 0
            if flushes and it._addr_count:
                for reg, it_entry in flushes:
                    if it_entry.state is _ADDR:
                        cycles += flush(reg, it_entry, r)
            acc_stats.check_events_in += 1
            address = r[address_index] if address_index is not None else None
            if filtered:
                if mode == 1:
                    key = (category, address, size)
                elif mode == 2:
                    key = (category, address, size, r[13])
                else:
                    values = {"address": address, "size": size, "thread_id": r[13]}
                    key = (category, *(values[name] for name in fields))
                if lookup_insert(key):
                    acc_stats.check_events_filtered += 1
                    return cycles
            acc_stats.check_events_delivered += 1
            return cycles + site(r, address)

        return check

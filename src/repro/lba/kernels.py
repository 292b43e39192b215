"""Optional NumPy kernel tier for the columnar dispatch engine.

The run tables that :class:`~repro.trace.codec.RecordColumns` builds during
decode group thousands of same-ordinal, same-bitmap records -- exactly the
array shape NumPy consumes.  This module vectorizes the span fast handlers
over whole runs: bulk shadow-map range tests for MemCheck/AddrCheck,
idempotent-filter probes as vectorized membership over address columns,
M-TLB translation batches as arithmetic over page-aligned spans, and the
untainted-common-case TaintCheck store fill.

Every kernel follows one contract: *admit, then commit*.  The admission
phase inspects the run without mutating any state and returns ``None``
(decline) whenever the run contains anything the vectorized path cannot
reproduce bit-identically -- a row that would emit an error report, flush an
Inheritance-Tracking register, hit the Idempotent Filter, wrap outside
int64, or touch an unmaterialised shadow chunk.  Declined runs fall back to
the engine's scalar step, so reports, stats, cycles and accelerator state
(``state_signature()``) are identical with and without the tier.

NumPy is strictly optional: :data:`HAVE_NUMPY` is the single gate, and
:func:`build_tier` returns ``None`` on hosts without it, leaving the engine
on today's scalar paths.
"""

from __future__ import annotations

from collections import OrderedDict as _OrderedDict

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less hosts
    _np = None

#: Single optional-dependency gate: everything numpy-conditional in the
#: package keys off this flag (tests skip, the engine falls back).
HAVE_NUMPY = _np is not None

from repro.core.events import (
    F_BASE_REG,
    F_DEST_ADDR,
    F_DEST_REG,
    F_INDEX_REG,
    F_SRC_ADDR,
    F_SRC_REG,
    EventType,
)
from repro.core.inheritance_tracking import ITState
from repro.lba.dispatch import NLBA_CYCLES

_ORD_MEM_TO_REG = EventType.MEM_TO_REG.ordinal
_ORD_IMM_TO_MEM = EventType.IMM_TO_MEM.ordinal

#: Presence pair a ``mem_to_reg`` inheritance needs (twin of columnar.py).
_DREG_SADDR = F_DEST_REG | F_SRC_ADDR

#: Minimum run length a kernel admits.  Shorter runs go straight to the
#: scalar step: the fixed cost of array materialisation only amortises over
#: long runs, and real traces are dominated by short ones.
KERNEL_MIN_RUN = 16

#: Overflow guards for in-kernel int64 arithmetic (``addr + size`` must not
#: wrap).  Columns already outside int64 never reach a kernel at all --
#: ``RecordColumns.typed_column`` returns ``None`` for them.
_ADDR_CEILING = 2 ** 62
_SIZE_CEILING = 2 ** 32


def build_tier(lifeguard):
    """The lifeguard's kernel tier, or ``None`` when unavailable.

    Returns ``None`` on numpy-less hosts and for lifeguards that do not
    advertise kernel capabilities via ``columnar_kernels()`` -- the engine
    then runs exactly today's scalar paths.
    """
    if _np is None:
        return None
    getter = getattr(lifeguard, "columnar_kernels", None)
    if getter is None or not callable(getter):
        return None
    caps = getter()
    if not caps:
        return None
    return KernelTier(lifeguard, caps)


def _make_wrapper(engine, kernel, orig):
    """Per-ordinal step wrapper: numpy kernel -> scalar step fallback."""

    def step(cols, i, j, f):
        if j - i >= KERNEL_MIN_RUN:
            cycles = kernel(cols, i, j, f)
            if cycles is not None:
                engine.kernel_runs += 1
                return cycles
            engine.kernel_fallbacks += 1
        return orig(cols, i, j, f)

    return step


class KernelTier:
    """Vectorized run kernels bound to one lifeguard's capabilities.

    Built from the capability dict a lifeguard returns from
    ``columnar_kernels()`` (see :meth:`Lifeguard.columnar_kernels`); the
    engine calls :meth:`install` at every batch entry to wrap the scalar
    steps whose shapes the tier can vectorize.
    """

    def __init__(self, lifeguard, caps) -> None:
        self._lifeguard = lifeguard
        #: "memcheck" / "addrcheck": which bulk load/store check to run
        self._check_kind = caps.get("check")
        #: "initialized_or" / "clear_element": which imm_to_mem fill to run
        self._fill_kind = caps.get("fill")
        #: "register_meta": the cond-test check is a register-flag lookup
        self._cond_test = caps.get("cond_test")
        self._shadow = caps.get("shadow")
        self._heap_base = caps.get("heap_base", 0)
        self._heap_limit = caps.get("heap_limit", 0)
        self._register_meta = caps.get("register_meta")
        self._reg_flagged = caps.get("reg_flagged")
        acc = caps.get("accessible_masks")
        init = caps.get("initialized_masks")
        self._acc_lut = None if acc is None else _np.asarray(acc, dtype=_np.int64)
        self._init_lut = None if init is None else _np.asarray(init, dtype=_np.int64)
        self._engine = None
        self._mapper = None
        self._cols = None
        self._cache = {}

    # ------------------------------------------------------------------ wiring

    def install(self, engine, steps) -> None:
        """Wrap the scalar steps this tier vectorizes (called by ``_refresh``)."""
        self._engine = engine
        self._mapper = engine.lifeguard.mapper()
        self._cols = None
        self._cache = {}
        checks_only = engine._step_checks_only
        for ordinal, step in enumerate(steps):
            if step == checks_only:
                steps[ordinal] = _make_wrapper(engine, self._k_checks, step)
        if steps[_ORD_MEM_TO_REG] == engine._step_mem_to_reg:
            steps[_ORD_MEM_TO_REG] = _make_wrapper(
                engine, self._k_mem_to_reg, engine._step_mem_to_reg
            )
        if steps[_ORD_IMM_TO_MEM] == engine._step_imm_to_mem:
            steps[_ORD_IMM_TO_MEM] = _make_wrapper(
                engine, self._k_imm_to_mem, engine._step_imm_to_mem
            )

    # ------------------------------------------------------------------ columns

    def release_columns(self) -> None:
        """Drop the cached array views of the last column set.

        ``np.frombuffer`` views of memoryview-backed columns export the
        shared-memory buffer; while one is alive the segment cannot be
        closed (``BufferError``).
        """
        self._cols = None
        self._cache = {}

    def _arr(self, cols, name):
        """Int64 array view of one column (cached per column set).

        Returns ``None`` when the column holds values outside int64 --
        ``typed_column`` refuses to build the typed buffer then, so no
        silent ``np.asarray`` wraparound can occur.  Memoryview-backed
        columns (shared-memory ``from_buffers``) feed ``np.frombuffer``
        zero-copy.
        """
        if cols is not self._cols:
            self._cols = cols
            self._cache = {}
        cache = self._cache
        try:
            return cache[name]
        except KeyError:
            pass
        buf = cols.typed_column(name)
        value = None if buf is None else _np.frombuffer(buf, dtype=_np.int64)
        cache[name] = value
        return value

    # ------------------------------------------------------------------ shared pieces

    def _gather(self, shadow, a):
        """Bulk ``read_element`` over a two-level shadow map (no stats).

        Returns ``None`` when any covered chunk is unmaterialised (a scalar
        read would return 0, i.e. a missing-metadata report the kernels
        never admit).  The caller accounts ``shadow.reads`` on commit.
        """
        a32 = a & 0xFFFFFFFF
        l1 = a32 >> shadow._l1_shift
        l2 = (a32 >> shadow.offset_bits) & shadow._l2_mask
        out = _np.empty(len(a), dtype=_np.int64)
        for page in _np.unique(l1).tolist():
            chunk = shadow.chunk_buffer(page)
            if chunk is None:
                return None
            sel = l1 == page
            out[sel] = _np.frombuffer(chunk, dtype=_np.uint8)[l2[sel]]
        return out

    def _translate_run(self, a, instr, n):
        """Row-order metadata translations for a run, batched where exact.

        Only the first row of each consecutive-equal-page segment performs a
        real ``mapper.translate`` (preserving M-TLB LRU order, fills and the
        miss-handler's chunk-base assignments); follower rows are guaranteed
        MRU hits whose ``move_to_end`` is a no-op, so their stats fold in
        bulk.  Returns the total cycle charge of the run's deliveries and
        accounts the engine's handler/mapping/miss instruction counters.
        """
        e = self._engine
        mapper = self._mapper
        mtlb = mapper.mtlb
        pages = (a & 0xFFFFFFFF) >> mtlb._l1_shift
        heads = _np.empty(n, dtype=bool)
        heads[0] = True
        _np.not_equal(pages[1:], pages[:-1], out=heads[1:])
        head_rows = _np.flatnonzero(heads)
        begin_event = e._begin_event
        usage = e._usage
        translate = mapper.translate
        misses = 0
        for k in head_rows.tolist():
            begin_event()
            translate(int(a[k]))
            misses += usage.mtlb_misses
        hits = n - len(head_rows)
        if hits:
            mtlb_stats = mtlb.stats
            mtlb_stats.lookups += hits
            mtlb_stats.hits += hits
            mapper_stats = mapper.stats
            mapper_stats.translations += hits
            mapper_stats.mtlb_hits += hits
        tr_instr = e._translation_instr
        miss_cost = e._miss_cost
        e._c_handler_instr += instr * n
        e._c_mapping_instr += tr_instr * n
        e._c_miss_instr += misses * miss_cost
        return n * (NLBA_CYCLES + instr + tr_instr + 1) + misses * miss_cost

    def _filter_admit(self, cc, a, n):
        """Admission half of a bulk mode-1 Idempotent-Filter pass.

        Returns the (single) set's OrderedDict when every key in the run is
        a guaranteed miss -- addresses unique within the run and absent from
        the resident ``check_category`` keys -- else ``None`` to decline.
        Mutates nothing except materialising the empty set dict, which the
        first scalar probe would create identically.
        """
        e = self._engine
        if e._if_num_sets != 1:
            return None
        sets = e._if_sets
        entries = sets.get(0)
        if entries is None:
            entries = sets[0] = _OrderedDict()
        if _np.unique(a).size != n:
            return None
        if entries:
            existing = [key[1] for key in entries if key[0] == cc]
            if existing:
                try:
                    resident = _np.asarray(existing, dtype=_np.int64)
                except (OverflowError, TypeError, ValueError):
                    return None
                if bool(_np.isin(a, resident).any()):
                    return None
        return entries

    def _filter_insert_run(self, entries, cc, a, s, n):
        """Commit half: insert the run's keys with scalar eviction order."""
        e = self._engine
        ways = e._if_ways
        evictions = len(entries) + n - ways
        if evictions < 0:
            evictions = 0
        if n >= ways:
            entries.clear()
            start = n - ways
        else:
            for _ in range(evictions):
                entries.popitem(last=False)
            start = 0
        addr_list = a.tolist()
        size_list = s.tolist()
        for k in range(start, n):
            entries[(cc, addr_list[k], size_list[k])] = None
        e._c_if_misses += n
        e._c_if_evictions += evictions

    def _it_bulk_write(self, it, regs, addrs, sizes):
        """Last-writer-wins bulk ``mem_to_reg`` table write (regs >= 0)."""
        table = it._table
        num_regs = len(table)
        sel = regs < num_regs
        if not bool(sel.any()):
            return
        vreg = regs[sel]
        vaddr = addrs[sel]
        vsize = sizes[sel]
        uniq, idx = _np.unique(vreg[::-1], return_index=True)
        last = len(vreg) - 1 - idx
        addr_state = ITState.ADDR
        for reg, k in zip(uniq.tolist(), last.tolist()):
            entry = table[reg]
            if entry.state is not addr_state:
                it._addr_count += 1
                entry.state = addr_state
            entry.address = int(vaddr[k])
            entry.size = int(vsize[k]) or 1

    # ------------------------------------------------------------------ check kernels

    def _k_checks(self, cols, i, j, f):
        """Kernel twin of ``_step_checks_only``."""
        e = self._engine
        n = j - i
        if not f & e._check_mask:
            e._c_records += n
            return 0
        ctx = e._check_ctx(f)
        if ctx is None:
            e._c_records += n
            return 0
        if (
            ctx[0] == 1
            and ctx[18] is not None
            and ctx[21] is not None
            and not ctx[22]
            and not ctx[19]
        ):
            return self._ct_run(cols, i, j, f, ctx)
        return self._access_run(cols, i, j, f, ctx)

    def _ct_run(self, cols, i, j, f, ctx):
        """Fused cond-test runs whose register lookups can't report or flush."""
        if self._cond_test != "register_meta" or f & F_SRC_ADDR:
            return None
        e = self._engine
        n = j - i
        if f & F_SRC_REG:
            regs = self._arr(cols, "src_reg")
            if regs is None:
                return None
            regs = regs[i:j]
            if int(regs.min()) < 0:
                return None
            meta = self._register_meta
            flagged = self._reg_flagged
            it = e.it
            flushy = it is not None and it._addr_count
            if flushy:
                table = it._table
                nregs = e._it_nregs
                addr_state = ITState.ADDR
            for reg in _np.unique(regs).tolist():
                if meta.get(reg) == flagged:
                    return None
                if flushy and reg < nregs and table[reg].state is addr_state:
                    return None
        ct_instr = ctx[20]
        e._c_records += n
        e._c_check_in += n
        e._c_check_delivered += n
        e._c_handled += n
        e._c_handler_instr += ct_instr * n
        return n * (NLBA_CYCLES + ct_instr)

    def _access_run(self, cols, i, j, f, ctx):
        """Single load-or-store check runs over an all-clean shadow range."""
        kind = self._check_kind
        if kind is None or ctx[0] != 1:
            return None
        if ctx[1] is not None:
            mode, cc, instr, fast, fast_tr = ctx[2], ctx[3], ctx[4], ctx[5], ctx[6]
            addr_name = "src_addr"
        elif ctx[7] is not None:
            mode, cc, instr, fast, fast_tr = ctx[8], ctx[9], ctx[10], ctx[11], ctx[12]
            addr_name = "dest_addr"
        else:
            return None
        if fast is None or not fast_tr or mode not in (0, 1):
            return None
        shadow = self._shadow
        if shadow is None or shadow.element_size != 1:
            return None
        mapper = self._mapper
        mtlb = mapper.mtlb
        if mtlb is None or mtlb.lma_config_register is None:
            return None
        e = self._engine
        n = j - i
        a = self._arr(cols, addr_name)
        s = self._arr(cols, "size")
        if a is None or s is None:
            return None
        a = a[i:j]
        s = s[i:j]
        if int(a.min()) < 0 or int(s.min()) < 0:
            return None
        per = shadow.app_bytes_per_element
        if int(s.max()) > per:
            return None
        span = _np.maximum(s, 1)
        off = a % per
        if int((off + span).max()) > per:
            return None
        heap = (a >= self._heap_base) & (a < self._heap_limit)
        if kind == "memcheck":
            if self._acc_lut is None:
                return None
            n_heap = int(heap.sum())
            if n_heap == 0:
                # MemCheck ignores non-heap accesses: no translation, no
                # metadata touch -- a pure handler-cycle run (the filter
                # still sees every key).
                entries = None
                if mode == 1:
                    entries = self._filter_admit(cc, a, n)
                    if entries is None:
                        return None
                e._c_records += n
                e._c_check_in += n
                if entries is not None:
                    self._filter_insert_run(entries, cc, a, s, n)
                e._c_check_delivered += n
                e._c_handled += n
                e._c_handler_instr += instr * n
                return n * (NLBA_CYCLES + instr)
            if n_heap != n:
                return None
            elements = self._gather(shadow, a)
            if elements is None:
                return None
            masks = self._acc_lut[span] << (off * 2)
            if not bool(((elements & masks) == masks).all()):
                return None
            entries = None
            if mode == 1:
                entries = self._filter_admit(cc, a, n)
                if entries is None:
                    return None
            e._c_records += n
            e._c_check_in += n
            if entries is not None:
                self._filter_insert_run(entries, cc, a, s, n)
            cycles = self._translate_run(a, instr, n)
            shadow.reads += n
            e._c_check_delivered += n
            e._c_handled += n
            return cycles
        if kind == "addrcheck":
            # AddrCheck probes (translates + reads) the first element of
            # every access, heap or not; only heap rows can report.
            extra_reads = 0
            if bool(heap.any()):
                heap_a = a[heap]
                elements = self._gather(shadow, heap_a)
                if elements is None:
                    return None
                heap_span = span[heap]
                masks = ((1 << heap_span) - 1) << off[heap]
                if not bool(((elements & masks) == masks).all()):
                    return None
                extra_reads = int((s[heap] > 1).sum())
            entries = None
            if mode == 1:
                entries = self._filter_admit(cc, a, n)
                if entries is None:
                    return None
            e._c_records += n
            e._c_check_in += n
            if entries is not None:
                self._filter_insert_run(entries, cc, a, s, n)
            cycles = self._translate_run(a, instr, n)
            shadow.reads += n + extra_reads
            e._c_check_delivered += n
            e._c_handled += n
            return cycles
        return None

    # ------------------------------------------------------------------ propagation kernels

    def _k_mem_to_reg(self, cols, i, j, f):
        """Kernel twin of ``_step_mem_to_reg``."""
        e = self._engine
        ctx = e._check_ctx(f) if f & e._check_mask else None
        if ctx is None:
            return self._absorb_run(cols, i, j, f)
        if ctx[28] and f & _DREG_SADDR == _DREG_SADDR and not f & F_DEST_ADDR:
            return self._fused_load_kernel(cols, i, j, f, ctx)
        return None

    def _absorb_run(self, cols, i, j, f):
        """Check-less ``mem_to_reg`` runs: bulk IT table write, never delivered."""
        e = self._engine
        it = e.it
        n = j - i
        if f & _DREG_SADDR != _DREG_SADDR:
            it.stats.events_seen += n
            it.stats.events_discarded += n
            e._c_rows_absorbed += n
            return 0
        regs = self._arr(cols, "dest_reg")
        addrs = self._arr(cols, "src_addr")
        sizes = self._arr(cols, "size")
        if regs is None or addrs is None or sizes is None:
            return None
        regs = regs[i:j]
        if int(regs.min()) < 0:
            return None
        self._it_bulk_write(it, regs, addrs[i:j], sizes[i:j])
        it.stats.events_seen += n
        it.stats.events_discarded += n
        e._c_rows_absorbed += n
        return 0

    def _fused_load_kernel(self, cols, i, j, f, ctx):
        """Fully fused MemCheck load runs (IT write + IF miss + clean check)."""
        if self._check_kind != "memcheck" or self._acc_lut is None:
            return None
        shadow = self._shadow
        if shadow is None or shadow.element_size != 1:
            return None
        mapper = self._mapper
        mtlb = mapper.mtlb
        if mtlb is None or mtlb.lma_config_register is None:
            return None
        e = self._engine
        n = j - i
        regs = self._arr(cols, "dest_reg")
        a = self._arr(cols, "src_addr")
        s = self._arr(cols, "size")
        if regs is None or a is None or s is None:
            return None
        regs = regs[i:j]
        a = a[i:j]
        s = s[i:j]
        if int(regs.min()) < 0 or int(a.min()) < 0 or int(s.min()) < 0:
            return None
        if int(a.min()) < self._heap_base or int(a.max()) >= self._heap_limit:
            return None
        per = shadow.app_bytes_per_element
        if int(s.max()) > per:
            return None
        span = _np.maximum(s, 1)
        off = a % per
        if int((off + span).max()) > per:
            return None
        elements = self._gather(shadow, a)
        if elements is None:
            return None
        masks = self._acc_lut[span] << (off * 2)
        if not bool(((elements & masks) == masks).all()):
            return None
        it = e.it
        table = it._table
        num_regs = len(table)
        entry_ac = ctx[13]
        if entry_ac is not None:
            # The per-row addr-compute fast path consults base/index
            # registers: admit only runs where no consulted register is
            # flagged, already inheriting, or written by this very run.
            meta = self._register_meta
            flagged = self._reg_flagged
            nregs = e._it_nregs
            addr_state = ITState.ADDR
            written = set(regs[regs < num_regs].tolist())
            for name, present in (
                ("base_reg", f & F_BASE_REG),
                ("index_reg", f & F_INDEX_REG),
            ):
                if not present:
                    continue
                col = self._arr(cols, name)
                if col is None:
                    return None
                vals = col[i:j]
                if int(vals.min()) < 0:
                    return None
                for reg in _np.unique(vals).tolist():
                    if meta.get(reg) == flagged:
                        return None
                    if reg < nregs and (
                        reg in written or table[reg].state is addr_state
                    ):
                        return None
        entries = self._filter_admit(ctx[3], a, n)
        if entries is None:
            return None
        # ---- commit ------------------------------------------------------
        self._it_bulk_write(it, regs, a, s)
        self._filter_insert_run(entries, ctx[3], a, s, n)
        cycles = self._translate_run(a, ctx[4], n)
        shadow.reads += n
        delivered = n
        if entry_ac is not None:
            ac_instr = ctx[15]
            e._c_handler_instr += ac_instr * n
            cycles += n * (NLBA_CYCLES + ac_instr)
            delivered += n
        e._c_rows_absorbed += n
        e._c_it_seen += n
        e._c_it_discarded += n
        e._c_check_in += ctx[0] * n
        e._c_check_delivered += delivered
        e._c_handled += delivered
        return cycles

    def _k_imm_to_mem(self, cols, i, j, f):
        """Kernel twin of ``_step_imm_to_mem`` (constant-store fill runs)."""
        e = self._engine
        if f & e._check_mask and e._check_ctx(f) is not None:
            return None
        n = j - i
        entry_i2m = e._entry_i2m
        fill = self._fill_kind
        if not f & F_DEST_ADDR:
            # No destination: the fast fill is a no-op, the conflict gate
            # never fires -- a pure counter run.
            if entry_i2m is None:
                e._c_rows_seen_delivered += n
                return 0
            if e._fast_i2m is None or fill is None:
                return None
            instr = entry_i2m.handler_instructions
            e._c_rows_seen_delivered += n
            e._c_prop_delivered += n
            e._c_handled += n
            e._c_handler_instr += instr * n
            return n * (NLBA_CYCLES + instr)
        if (
            entry_i2m is None
            or e._fast_i2m is None
            or not e._fast_i2m_tr
            or fill is None
        ):
            return None
        shadow = self._shadow
        if shadow is None or shadow.element_size != 1:
            return None
        mapper = self._mapper
        mtlb = mapper.mtlb
        if mtlb is None or mtlb.lma_config_register is None:
            return None
        d = self._arr(cols, "dest_addr")
        s = self._arr(cols, "size")
        if d is None or s is None:
            return None
        d = d[i:j]
        s = s[i:j]
        if int(d.min()) < 0 or int(s.min()) < 0:
            return None
        if int(d.max()) >= _ADDR_CEILING or int(s.max()) >= _SIZE_CEILING:
            return None
        it = e.it
        if it._addr_count:
            # Conflict-flush admission: no store row may overlap a live
            # addr-state register's inherited range.
            writes = s > 0
            if bool(writes.any()):
                store_lo = d[writes]
                store_hi = store_lo + s[writes]
                addr_state = ITState.ADDR
                try:
                    for entry in it._table:
                        if entry.state is addr_state and entry.address is not None:
                            own_lo = entry.address
                            own_hi = own_lo + (entry.size or 1)
                            if bool(
                                ((store_lo < own_hi) & (store_hi > own_lo)).any()
                            ):
                                return None
                except OverflowError:
                    # IT addresses outside int64 (absorbed by scalar runs):
                    # comparison is unrepresentable, decline.
                    return None
        per = shadow.app_bytes_per_element
        instr = entry_i2m.handler_instructions
        a32 = d & 0xFFFFFFFF
        l1 = a32 >> shadow._l1_shift
        l2 = (a32 >> shadow.offset_bits) & shadow._l2_mask
        if fill == "initialized_or":
            if self._init_lut is None:
                return None
            if int(s.max()) > per:
                return None
            size_eff = _np.maximum(s, 1)
            off = d % per
            if int((off + size_eff).max()) > per:
                return None
            if int(d.min()) < self._heap_base:
                return None
            if _np.unique((a32 >> shadow.offset_bits)).size != n:
                return None
            # ---- commit: scalar order is write (allocates) then translate,
            # so chunk buffers and bases materialise in first-touch row
            # order before the batched translations.
            masks = (self._init_lut[size_eff] << (off * 2)).astype(_np.uint8)
            pages, first = _np.unique(l1, return_index=True)
            for page in pages[_np.argsort(first)].tolist():
                view = _np.frombuffer(
                    shadow.chunk_buffer(page, materialize=True), dtype=_np.uint8
                )
                sel = l1 == page
                view[l2[sel]] |= masks[sel]
            shadow.reads += n
            shadow.writes += n
            cycles = self._translate_run(d, instr, n)
            e._c_rows_seen_delivered += n
            e._c_prop_delivered += n
            e._c_handled += n
            return cycles
        if fill == "clear_element":
            if not bool((_np.maximum(s, 1) == per).all()) or bool((d % per).any()):
                return None
            # ---- commit: scalar order is translate (the miss handler
            # assigns chunk bases in row order) then fill.
            cycles = self._translate_run(d, instr, n)
            pages, first = _np.unique(l1, return_index=True)
            for page in pages[_np.argsort(first)].tolist():
                view = _np.frombuffer(
                    shadow.chunk_buffer(page, materialize=True), dtype=_np.uint8
                )
                view[l2[l1 == page]] = 0
            shadow.writes += n
            shadow.fill_fast_elements += n
            e._c_rows_seen_delivered += n
            e._c_prop_delivered += n
            e._c_handled += n
            return cycles
        return None

"""Functional simulator for the IA32-flavoured ISA.

The machine executes a :class:`repro.isa.program.Program` against a shared
:class:`repro.memory.address_space.AddressSpace` and
:class:`repro.memory.allocator.HeapAllocator`, and emits one
:class:`repro.core.events.InstructionRecord` per retired instruction (plus
:class:`repro.core.events.AnnotationRecord` objects for the rare high-level
events).  The emitted stream is the input to the LBA log capture layer.

Each static instruction is translated once, on its first execution, into a
closure specialised on its opcode and operand shape (a translation cache in
the style of Shade and Dynamo).  The closure has the record's static fields
-- event type, register numbers, size, flags, immediate, thread id -- bound
in, so a retirement computes only addresses, values and the branch target.
Annotation pseudo-instructions keep their interpretive code.

Faulty behaviour of the *monitored program* (double frees, out-of-bounds
accesses to unallocated heap memory, reads of uninitialised data, tainted
jump targets) is deliberately allowed to proceed functionally -- detecting
it is the lifeguard's job, not the machine's.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

from repro.core.events import AnnotationRecord, EventType, InstructionRecord
from repro.isa.instructions import (
    Cond,
    Imm,
    Instruction,
    Mem,
    Opcode,
    Operand,
    Reg,
    SyscallKind,
)
from repro.isa.program import INSTRUCTION_BYTES, Program
from repro.isa.registers import Register, RegisterFile, WORD_MASK
from repro.memory.address_space import AddressSpace, SegmentLayout
from repro.memory.allocator import AllocationError, HeapAllocator

Record = Union[InstructionRecord, AnnotationRecord]
RecordObserver = Callable[[Record], None]
#: A translated instruction: executes one retirement of it on the machine
#: it is given and returns the records it emitted.
Translation = Callable[["Machine"], List[Record]]

#: Default heap size given to machines that create their own allocator.
DEFAULT_HEAP_SIZE = 64 * 1024 * 1024
#: Default per-thread stack size.
DEFAULT_STACK_SIZE = 1 * 1024 * 1024


class MachineError(RuntimeError):
    """Base class for machine execution errors."""


class Trap(MachineError):
    """An unrecoverable fault in the monitored program (e.g. heap exhaustion)."""


class ExecutionLimitExceeded(MachineError):
    """Raised when a run exceeds its instruction budget (runaway program)."""


@dataclass
class MachineStats:
    """Aggregate execution statistics for one machine/thread."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    annotations: int = 0
    mallocs: int = 0
    frees: int = 0
    syscalls: int = 0
    branches_taken: int = 0


def _signed32(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 32) if value & 0x8000_0000 else value


def _default_input_provider(size: int) -> bytes:
    """Deterministic 'network input' used by read/recv system calls."""
    return bytes((0x55 + i) & 0xFF for i in range(size))


class Machine:
    """Executes one thread of a monitored program.

    Args:
        program: the program to execute.
        address_space: shared application memory (created if omitted).
        allocator: shared heap allocator (created if omitted).
        thread_id: identifier carried in every emitted record.
        stack_size: size of this thread's stack.
        lock_manager: optional shared lock table; when provided, ``LOCK``
            instructions block (``self.blocked`` becomes True) instead of
            proceeding while another thread holds the lock.
        input_provider: callable returning the bytes produced by ``read`` /
            ``recv`` system calls.
    """

    def __init__(
        self,
        program: Program,
        address_space: Optional[AddressSpace] = None,
        allocator: Optional[HeapAllocator] = None,
        thread_id: int = 0,
        stack_size: int = DEFAULT_STACK_SIZE,
        lock_manager: Optional["LockManagerProtocol"] = None,
        input_provider: Callable[[int], bytes] = _default_input_provider,
    ) -> None:
        self.program = program
        self.memory = address_space or AddressSpace()
        layout = self.memory.layout
        self.allocator = allocator or HeapAllocator(layout.heap_base, DEFAULT_HEAP_SIZE)
        self.thread_id = thread_id
        self.lock_manager = lock_manager
        self.input_provider = input_provider
        self.registers = RegisterFile()
        self.stats = MachineStats()
        self.halted = False
        self.blocked = False
        self._index = 0
        #: translation cache, one entry per static instruction, filled on
        #: first execution (entries never refer back to the machine)
        self._translations: List[Optional[Translation]] = [None] * len(program)
        stack_top = layout.stack_top - thread_id * (stack_size + 4096)
        self.stack_base = stack_top - stack_size
        self.registers.write(Register.ESP, stack_top)
        self.registers.write(Register.EBP, stack_top)

    # ------------------------------------------------------------------ driving

    def run(
        self,
        observer: Optional[RecordObserver] = None,
        max_instructions: int = 5_000_000,
    ) -> MachineStats:
        """Run until the program halts, calling ``observer`` per record.

        Raises:
            ExecutionLimitExceeded: if the instruction budget is exhausted.
        """
        while not self.halted:
            if self.stats.instructions >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"{self.program.name}: exceeded {max_instructions} instructions"
                )
            for record in self.step():
                if observer is not None:
                    observer(record)
        return self.stats

    def trace(self, max_instructions: int = 5_000_000) -> List[Record]:
        """Run to completion and return the full record trace as a list."""
        records: List[Record] = []
        self.run(records.append, max_instructions=max_instructions)
        return records

    def step(self) -> List[Record]:
        """Execute one instruction and return the records it emitted.

        Returns an empty list without advancing when the thread is blocked on
        a lock held by another thread, or when the program has halted.
        """
        index = self._index
        if self.halted or index >= len(self._translations):
            self.halted = True
            return []
        self.registers.eip = self.program.code_base + index * INSTRUCTION_BYTES
        translation = self._translations[index]
        if translation is None:
            translation = self._translate(index)
        return translation(self)

    def _translate(self, index: int) -> Translation:
        """Translate the instruction at ``index`` and cache the translation."""
        instruction = self.program.instructions[index]
        pc = self.program.pc_of(index)
        if instruction.opcode is Opcode.LOCK and self.lock_manager is not None:
            translation = _translate_blocking_lock(instruction, pc)
        elif instruction.opcode.is_annotation:
            translation = _translate_annotation(instruction, pc, index + 1, self.stats)
        else:
            context = _Context(
                self.registers.values, self.registers, self.memory, self.stats,
                self.thread_id, self.program,
            )
            try:
                translation = _translate_regular(instruction, pc, index + 1, context)
            except Exception:
                # A malformed instruction fails when it executes, after it
                # retires, like any other that raises; nothing is cached.
                self._index = index + 1
                self.stats.instructions += 1
                raise
        self._translations[index] = translation
        return translation

    def _acquire_lock(self, instruction: Instruction, pc: int) -> List[Record]:
        """``LOCK`` under a lock manager: block (retiring nothing) while contended."""
        lock_addr = self._operand_value(instruction.operands[0])
        if not self.lock_manager.try_acquire(lock_addr, self.thread_id):
            self.blocked = True
            return []
        self.blocked = False
        self._index += 1
        self.stats.instructions += 1
        self.stats.annotations += 1
        return [
            AnnotationRecord(
                EventType.LOCK, address=lock_addr, thread_id=self.thread_id, pc=pc
            )
        ]

    # -------------------------------------------------------------- operand access

    def effective_address(self, operand: Mem) -> int:
        """Compute the effective address of a memory operand."""
        address = operand.disp
        if operand.base is not None:
            address += self.registers.read(operand.base)
        if operand.index is not None:
            address += self.registers.read(operand.index) * operand.scale
        return address & WORD_MASK

    def _operand_value(self, operand: Operand) -> int:
        if isinstance(operand, Imm):
            return operand.value & WORD_MASK
        if isinstance(operand, Reg):
            return self.registers.read(operand.reg)
        if isinstance(operand, Mem):
            return self.memory.read_uint(self.effective_address(operand), operand.size)
        raise MachineError(f"unsupported operand {operand!r}")

    def _jump_to_address(self, target: int) -> None:
        offset = target - self.program.code_base
        index, remainder = divmod(offset, INSTRUCTION_BYTES)
        if remainder or not 0 <= index <= len(self.program):
            # A wild jump (e.g. a corrupted return address in an exploit
            # scenario).  Halt rather than crash: by this point the lifeguard
            # has already had the chance to flag the tainted target.
            self.halted = True
            return
        self._index = index

    # -------------------------------------------------------------- annotations

    def _execute_annotation(self, instruction: Instruction, pc: int) -> List[Record]:
        self.stats.annotations += 1
        opcode = instruction.opcode
        if opcode is Opcode.MALLOC:
            size = self._operand_value(instruction.operands[0])
            try:
                block = self.allocator.malloc(size)
            except AllocationError as exc:
                raise Trap(str(exc)) from exc
            self.registers.write(Register.EAX, block.address)
            self.stats.mallocs += 1
            return [
                AnnotationRecord(
                    EventType.MALLOC, address=block.address, size=size,
                    thread_id=self.thread_id, pc=pc,
                )
            ]
        if opcode is Opcode.FREE:
            address = self._operand_value(instruction.operands[0])
            size = 0
            try:
                block = self.allocator.free(address)
                size = block.size
            except AllocationError:
                # Invalid/double free: the program proceeds; the lifeguard flags it.
                pass
            self.stats.frees += 1
            return [
                AnnotationRecord(
                    EventType.FREE, address=address, size=size,
                    thread_id=self.thread_id, pc=pc,
                )
            ]
        if opcode is Opcode.REALLOC:
            old_address = self._operand_value(instruction.operands[0])
            new_size = self._operand_value(instruction.operands[1])
            try:
                old_block, new_block = self.allocator.realloc(old_address, new_size)
            except AllocationError as exc:
                raise Trap(str(exc)) from exc
            copy_size = min(old_block.size, new_size)
            self.memory.copy(new_block.address, old_address, copy_size)
            self.registers.write(Register.EAX, new_block.address)
            return [
                AnnotationRecord(
                    EventType.REALLOC, address=new_block.address, size=new_size,
                    thread_id=self.thread_id, pc=pc, payload=old_address,
                )
            ]
        if opcode is Opcode.LOCK:
            address = self._operand_value(instruction.operands[0])
            if self.lock_manager is not None:
                self.lock_manager.try_acquire(address, self.thread_id)
            return [
                AnnotationRecord(EventType.LOCK, address=address, thread_id=self.thread_id, pc=pc)
            ]
        if opcode is Opcode.UNLOCK:
            address = self._operand_value(instruction.operands[0])
            if self.lock_manager is not None:
                self.lock_manager.release(address, self.thread_id)
            return [
                AnnotationRecord(EventType.UNLOCK, address=address, thread_id=self.thread_id, pc=pc)
            ]
        if opcode is Opcode.SYSCALL:
            return self._exec_syscall(instruction, pc)
        if opcode is Opcode.PRINTF:
            fmt_operand = instruction.operands[0]
            fmt_address = (
                self.effective_address(fmt_operand)
                if isinstance(fmt_operand, Mem)
                else self._operand_value(fmt_operand)
            )
            return [
                AnnotationRecord(
                    EventType.PRINTF, address=fmt_address, thread_id=self.thread_id, pc=pc,
                )
            ]
        raise MachineError(f"unimplemented annotation opcode {opcode}")

    def _exec_syscall(self, instruction: Instruction, pc: int) -> List[Record]:
        buf = self._operand_value(instruction.operands[0])
        length = self._operand_value(instruction.operands[1])
        kind = instruction.syscall or SyscallKind.OTHER
        self.stats.syscalls += 1
        if kind in (SyscallKind.READ, SyscallKind.RECV):
            data = self.input_provider(length)[:length]
            if data:
                self.memory.write(buf, data)
            event = EventType.SYSCALL_READ if kind is SyscallKind.READ else EventType.SYSCALL_RECV
        elif kind is SyscallKind.WRITE:
            event = EventType.SYSCALL_WRITE
        else:
            event = EventType.SYSCALL_OTHER
        return [
            AnnotationRecord(event, address=buf, size=length, thread_id=self.thread_id, pc=pc)
        ]


class LockManagerProtocol:
    """Interface expected from lock managers (see :mod:`repro.isa.threads`)."""

    def try_acquire(self, address: int, thread_id: int) -> bool:  # pragma: no cover - protocol
        raise NotImplementedError

    def release(self, address: int, thread_id: int) -> None:  # pragma: no cover - protocol
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Translation.
#
# ``_translate_regular`` turns one static instruction into a closure over the
# machine's register list, register file, memory and statistics -- never the
# machine itself, which each call receives as its argument, so a machine and
# its translations form no reference cycle.  Every closure first retires its
# instruction (next index, instruction count), then reads its operands,
# writes its results and only then counts loads and stores, so an exception
# leaves the same state whichever shape raised it.  Records are built from
# the static fields bound at translation time plus the dynamic addresses
# (``head + addresses + tail``).
# ---------------------------------------------------------------------------

_new_record = tuple.__new__
_ESP = int(Register.ESP)
_ESI = int(Register.ESI)
_EDI = int(Register.EDI)

_ALU_OPS = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.MUL: operator.mul,
}

#: Branch predicates over the last compare result.
_CONDITIONS = {
    Cond.EQ: (0).__eq__,  # compare == 0
    Cond.NE: (0).__ne__,  # compare != 0
    Cond.LT: (0).__gt__,  # compare < 0
    Cond.LE: (0).__ge__,  # compare <= 0
    Cond.GT: (0).__lt__,  # compare > 0
    Cond.GE: (0).__le__,  # compare >= 0
}


class _Context(NamedTuple):
    """The machine state translations bind (everything but the machine)."""

    regs: List[int]
    registers: RegisterFile
    memory: AddressSpace
    stats: MachineStats
    thread_id: int
    program: Program

    def template(self, pc: int, event_type: EventType, **fields) -> InstructionRecord:
        """The record of an instruction, with its dynamic addresses left ``None``."""
        return InstructionRecord(pc, event_type, thread_id=self.thread_id, **fields)


def _slots(template: InstructionRecord, dest: bool, src: bool) -> Tuple[tuple, tuple]:
    """Split a record template around its dynamic ``dest_addr``/``src_addr`` fields."""
    return template[: 4 if dest else 5], template[6 if src else 5 :]


def _regno(reg: Optional[Register]) -> Optional[int]:
    return None if reg is None else int(Register(reg))


def _reg_of(operand: Optional[Operand]) -> Optional[int]:
    """Register number of a register operand (``None`` for any other operand)."""
    return _regno(operand.reg) if isinstance(operand, Reg) else None


def _mem_regs(mem: Mem) -> dict:
    """Record fields naming the address registers of a memory operand."""
    return {"base_reg": _regno(mem.base), "index_reg": _regno(mem.index)}


def _source_fields(src: Union[Reg, Imm]) -> dict:
    """Record fields naming a register or immediate source operand."""
    return {"src_reg": _reg_of(src)} if isinstance(src, Reg) else {"immediate": src.value}


def _address(mem: Mem, regs: List[int]) -> Callable[[], int]:
    """Effective-address closure of a memory operand."""
    disp, base, index, scale = mem.disp, _regno(mem.base), _regno(mem.index), mem.scale
    if index is None:
        if base is None:
            address = disp & WORD_MASK
            return lambda: address
        return lambda: (disp + regs[base]) & WORD_MASK
    if base is None:
        return lambda: (disp + regs[index] * scale) & WORD_MASK
    return lambda: (disp + regs[base] + regs[index] * scale) & WORD_MASK


def _reader(operand: Optional[Operand], cx: _Context) -> Callable[[], int]:
    """Closure reading an operand's value (raising for an unreadable operand)."""
    if isinstance(operand, Imm):
        value = operand.value & WORD_MASK
        return lambda: value
    regs = cx.regs
    if isinstance(operand, Reg):
        reg = _regno(operand.reg)
        return lambda: regs[reg]
    if isinstance(operand, Mem):
        address, size, read = _address(operand, regs), operand.size, cx.memory.read_uint
        return lambda: read(address(), size)

    def unreadable() -> int:
        raise MachineError(f"unsupported operand {operand!r}")

    return unreadable


def _writer(operand: Optional[Operand], cx: _Context) -> Callable[[int], None]:
    """Closure writing an operand (raising for an unwritable operand)."""
    regs = cx.regs
    if isinstance(operand, Reg):
        reg = _regno(operand.reg)

        def write_reg(value: int) -> None:
            regs[reg] = value & WORD_MASK

        return write_reg
    if isinstance(operand, Mem):
        address, size, write = _address(operand, regs), operand.size, cx.memory.write_uint
        return lambda value: write(address(), value, size)

    def unwritable(value: int) -> None:
        raise MachineError(f"cannot write to operand {operand!r}")

    return unwritable


def _translate_regular(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    translator = _TRANSLATORS.get(instruction.opcode)
    if translator is None:
        raise MachineError(f"unimplemented opcode {instruction.opcode}")
    return translator(instruction, pc, nxt, cx)


def _translate_mov(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    dest, src = instruction.dest, instruction.src
    regs, stats = cx.regs, cx.stats
    read, write = cx.memory.read_uint, cx.memory.write_uint
    if isinstance(dest, Reg) and isinstance(src, (Reg, Imm)):
        d, value_of = _reg_of(dest), _reader(src, cx)
        event = EventType.REG_TO_REG if isinstance(src, Reg) else EventType.IMM_TO_REG
        record = cx.template(pc, event, dest_reg=d, **_source_fields(src))

        def mov_to_reg(machine: Machine) -> List[Record]:
            machine._index = nxt
            stats.instructions += 1
            regs[d] = value_of()
            return [record]

        return mov_to_reg
    if isinstance(dest, Reg) and isinstance(src, Mem):
        d, size, address = _reg_of(dest), src.size, _address(src, regs)
        # Known defect, kept bit-identical: when the destination is also an
        # address register, the logged address is recomputed after the load
        # wrote it, instead of being the address that was read.
        stale = d in (_regno(src.base), _regno(src.index))
        head, tail = _slots(cx.template(
            pc, EventType.MEM_TO_REG, dest_reg=d, size=size, is_load=True, **_mem_regs(src)
        ), dest=False, src=True)

        def mov_reg_mem(machine: Machine) -> List[Record]:
            machine._index = nxt
            stats.instructions += 1
            addr = address()
            regs[d] = read(addr, size) & WORD_MASK
            if stale:
                addr = address()
            stats.loads += 1
            return [_new_record(InstructionRecord, head + (addr,) + tail)]

        return mov_reg_mem
    if isinstance(dest, Mem) and isinstance(src, (Reg, Imm)):
        size, address, value_of = dest.size, _address(dest, regs), _reader(src, cx)
        event = EventType.REG_TO_MEM if isinstance(src, Reg) else EventType.IMM_TO_MEM
        head, tail = _slots(cx.template(
            pc, event, size=size, is_store=True, **_source_fields(src), **_mem_regs(dest)
        ), dest=True, src=False)

        def mov_to_mem(machine: Machine) -> List[Record]:
            machine._index = nxt
            stats.instructions += 1
            addr = address()
            write(addr, value_of(), size)
            stats.stores += 1
            return [_new_record(InstructionRecord, head + (addr,) + tail)]

        return mov_to_mem
    if isinstance(dest, Mem) and isinstance(src, Mem):
        dest_address, dest_size = _address(dest, regs), dest.size
        src_address, src_size = _address(src, regs), src.size
        head, tail = _slots(cx.template(
            pc, EventType.MEM_TO_MEM, size=dest_size, is_load=True, is_store=True,
            **_mem_regs(dest),
        ), dest=True, src=True)

        def mov_mem_mem(machine: Machine) -> List[Record]:
            machine._index = nxt
            stats.instructions += 1
            src_addr = src_address()
            value = read(src_addr, src_size)
            dest_addr = dest_address()
            write(dest_addr, value, dest_size)
            stats.loads += 1
            stats.stores += 1
            return [_new_record(InstructionRecord, head + (dest_addr, src_addr) + tail)]

        return mov_mem_mem
    value_of, store = _reader(src, cx), _writer(dest, cx)

    def mov_unsupported(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        store(value_of())  # one of the operands raises
        raise MachineError(f"unsupported mov operands {instruction.operands!r}")

    return mov_unsupported


def _translate_movs(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    count, regs, stats, memory = instruction.count, cx.regs, cx.stats, cx.memory
    head, tail = _slots(cx.template(
        pc, EventType.MEM_TO_MEM, size=count, is_load=True, is_store=True
    ), dest=True, src=True)

    def movs(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        src_addr, dest_addr = regs[_ESI], regs[_EDI]
        memory.copy(dest_addr, src_addr, count)
        regs[_ESI] = (src_addr + count) & WORD_MASK
        regs[_EDI] = (dest_addr + count) & WORD_MASK
        stats.loads += 1
        stats.stores += 1
        return [_new_record(InstructionRecord, head + (dest_addr, src_addr) + tail)]

    return movs


def _translate_lea(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    dest, src = instruction.dest, instruction.src
    assert isinstance(dest, Reg) and isinstance(src, Mem)
    regs, stats, d, address = cx.regs, cx.stats, _reg_of(dest), _address(src, cx.regs)
    # Address arithmetic produces a "clean" value: model as imm_to_reg.
    record = cx.template(pc, EventType.IMM_TO_REG, dest_reg=d)

    def lea(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        regs[d] = address()
        return [record]

    return lea


def _translate_alu(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    dest, src = instruction.dest, instruction.src
    op = _ALU_OPS[instruction.opcode]
    regs, registers, stats = cx.regs, cx.registers, cx.stats
    read, write = cx.memory.read_uint, cx.memory.write_uint
    if isinstance(dest, Reg) and isinstance(src, (Reg, Imm)):
        d, value_of = _reg_of(dest), _reader(src, cx)
        event = EventType.DEST_REG_OP_REG if isinstance(src, Reg) else EventType.REG_SELF
        record = cx.template(pc, event, dest_reg=d, **_source_fields(src))

        def alu_reg(machine: Machine) -> List[Record]:
            machine._index = nxt
            stats.instructions += 1
            regs[d] = result = op(regs[d], value_of()) & WORD_MASK
            registers.last_compare = _signed32(result)
            return [record]

        return alu_reg
    if isinstance(dest, Reg) and isinstance(src, Mem):
        d, size, address = _reg_of(dest), src.size, _address(src, regs)
        stale = d in (_regno(src.base), _regno(src.index))  # the defect of mov reg, mem
        head, tail = _slots(cx.template(
            pc, EventType.DEST_REG_OP_MEM, dest_reg=d, size=size, is_load=True,
            **_mem_regs(src),
        ), dest=False, src=True)

        def alu_reg_mem(machine: Machine) -> List[Record]:
            machine._index = nxt
            stats.instructions += 1
            addr = address()
            regs[d] = result = op(regs[d], read(addr, size)) & WORD_MASK
            registers.last_compare = _signed32(result)
            if stale:
                addr = address()
            stats.loads += 1
            return [_new_record(InstructionRecord, head + (addr,) + tail)]

        return alu_reg_mem
    if isinstance(dest, Mem) and isinstance(src, (Reg, Imm)):
        size, address, value_of = dest.size, _address(dest, regs), _reader(src, cx)
        event = EventType.DEST_MEM_OP_REG if isinstance(src, Reg) else EventType.MEM_SELF
        template = cx.template(
            pc, event, size=size, is_load=True, is_store=True, **_source_fields(src),
            **_mem_regs(dest),
        )
        head, tail = _slots(template, dest=True, src=False)

        def alu_mem(machine: Machine) -> List[Record]:
            machine._index = nxt
            stats.instructions += 1
            addr = address()
            result = op(read(addr, size), value_of()) & WORD_MASK
            write(addr, result, size)
            registers.last_compare = _signed32(result)
            stats.loads += 1
            stats.stores += 1
            return [_new_record(InstructionRecord, head + (addr,) + tail)]

        return alu_mem
    lhs_of, rhs_of, store = _reader(dest, cx), _reader(src, cx), _writer(dest, cx)

    def alu_unsupported(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        result = op(lhs_of(), rhs_of()) & WORD_MASK
        store(result)
        registers.last_compare = _signed32(result)
        raise MachineError(f"unsupported ALU operands {instruction.operands!r}")

    return alu_unsupported


def _translate_shift(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    dest, src = instruction.dest, instruction.src
    assert isinstance(src, Imm)
    op = operator.lshift if instruction.opcode is Opcode.SHL else operator.rshift
    amount, regs, stats = src.value & 31, cx.regs, cx.stats
    if isinstance(dest, Reg):
        d = _reg_of(dest)
        record = cx.template(pc, EventType.REG_SELF, dest_reg=d, immediate=src.value)

        def shift_reg(machine: Machine) -> List[Record]:
            machine._index = nxt
            stats.instructions += 1
            regs[d] = op(regs[d], amount) & WORD_MASK
            return [record]

        return shift_reg
    if not isinstance(dest, Mem):
        # Reading an immediate has no effect, so failing now is failing first.
        _reader(dest, cx)()
        raise MachineError(f"cannot write to operand {dest!r}")
    size, address = dest.size, _address(dest, regs)
    read, write = cx.memory.read_uint, cx.memory.write_uint
    head, tail = _slots(cx.template(
        pc, EventType.MEM_SELF, size=size, is_load=True, is_store=True,
        immediate=src.value, **_mem_regs(dest),
    ), dest=True, src=False)

    def shift_mem(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        addr = address()
        write(addr, op(read(addr, size), amount) & WORD_MASK, size)
        stats.loads += 1
        stats.stores += 1
        return [_new_record(InstructionRecord, head + (addr,) + tail)]

    return shift_mem


def _translate_compare(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    a, b = instruction.operands
    is_cmp = instruction.opcode is Opcode.CMP
    regs, registers, stats = cx.regs, cx.registers, cx.stats
    mem = a if isinstance(a, Mem) else (b if isinstance(b, Mem) else None)
    src = a if isinstance(a, Reg) else (b if isinstance(b, Reg) else None)
    template = cx.template(
        pc, EventType.COND_TEST, src_reg=_reg_of(src), size=mem.size if mem else 0,
        is_load=mem is not None, is_cond_test=True,
    )
    lhs_of, rhs_of = _reader(a, cx), _reader(b, cx)
    address = _address(mem, regs) if mem is not None else None
    head, tail = _slots(template, dest=False, src=True)

    def compare(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        lhs, rhs = lhs_of(), rhs_of()
        if is_cmp:
            registers.last_compare = _signed32(lhs) - _signed32(rhs)
        else:
            registers.last_compare = _signed32(lhs & rhs)
        if address is None:
            return [template]
        stats.loads += 1
        return [_new_record(InstructionRecord, head + (address(),) + tail)]

    return compare


def _translate_push(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    src = instruction.operands[0]
    regs, stats, write = cx.regs, cx.stats, cx.memory.write_uint
    value_of, address = _reader(src, cx), None
    if isinstance(src, Reg):
        template = cx.template(
            pc, EventType.REG_TO_MEM, src_reg=_reg_of(src), size=4, is_store=True
        )
    elif isinstance(src, Imm):
        template = cx.template(
            pc, EventType.IMM_TO_MEM, size=4, is_store=True, immediate=src.value
        )
    elif isinstance(src, Mem):
        template = cx.template(
            pc, EventType.MEM_TO_MEM, size=4, is_load=True, is_store=True, **_mem_regs(src)
        )
        address = _address(src, regs)
    else:
        value_of()  # raises: reading the operand is the push's first effect
    head, tail = _slots(template, dest=True, src=address is not None)

    def push(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        value = value_of()
        regs[_ESP] = esp = (regs[_ESP] - 4) & WORD_MASK
        write(esp, value, 4)
        stats.stores += 1
        if address is None:
            return [_new_record(InstructionRecord, head + (esp,) + tail)]
        # The source address is taken after the stack pointer moved.
        stats.loads += 1
        return [_new_record(InstructionRecord, head + (esp, address()) + tail)]

    return push


def _translate_pop(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    dest = instruction.operands[0]
    assert isinstance(dest, Reg)
    d, regs, stats, read = _reg_of(dest), cx.regs, cx.stats, cx.memory.read_uint
    head, tail = _slots(cx.template(
        pc, EventType.MEM_TO_REG, dest_reg=d, size=4, is_load=True
    ), dest=False, src=True)

    def pop(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        esp = regs[_ESP]
        regs[d] = read(esp, 4)
        regs[_ESP] = (esp + 4) & WORD_MASK
        stats.loads += 1
        return [_new_record(InstructionRecord, head + (esp,) + tail)]

    return pop


def _translate_jmp(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    target, stats = cx.program.index_of_label(instruction.target), cx.stats
    record = cx.template(pc, EventType.CONTROL)

    def jmp(machine: Machine) -> List[Record]:
        machine._index = target
        stats.instructions += 1
        stats.branches_taken += 1
        return [record]

    return jmp


def _translate_jcc(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    taken = _CONDITIONS.get(instruction.cond)
    if taken is None:
        raise MachineError(f"unknown condition {instruction.cond}")
    target, registers, stats = cx.program.index_of_label(instruction.target), cx.registers, cx.stats
    record = cx.template(pc, EventType.CONTROL)

    def jcc(machine: Machine) -> List[Record]:
        stats.instructions += 1
        compare = registers.last_compare
        if compare is None:
            machine._index = nxt
            raise MachineError("conditional jump before any compare")
        if taken(compare):
            machine._index = target
            stats.branches_taken += 1
        else:
            machine._index = nxt
        return [record]

    return jcc


def _translate_jmp_indirect(instruction: Instruction, pc: int, nxt: int,
                            cx: _Context) -> Translation:
    src = instruction.operands[0]
    target_of, stats = _reader(src, cx), cx.stats
    address = _address(src, cx.regs) if isinstance(src, Mem) else None
    template = cx.template(
        pc, EventType.INDIRECT_JUMP, src_reg=_reg_of(src),
        size=src.size if address is not None else 0, is_load=address is not None,
        is_indirect_jump=True,
    )
    head, tail = _slots(template, dest=False, src=True)

    def jmp_indirect(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        machine._jump_to_address(target_of())
        stats.branches_taken += 1
        if address is None:
            return [template]
        stats.loads += 1
        return [_new_record(InstructionRecord, head + (address(),) + tail)]

    return jmp_indirect


def _translate_call(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    target, regs, stats, write = (
        cx.program.index_of_label(instruction.target), cx.regs, cx.stats, cx.memory.write_uint
    )
    return_pc = pc + INSTRUCTION_BYTES
    head, tail = _slots(cx.template(
        pc, EventType.IMM_TO_MEM, size=4, is_store=True, immediate=return_pc
    ), dest=True, src=False)

    def call(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        regs[_ESP] = esp = (regs[_ESP] - 4) & WORD_MASK
        write(esp, return_pc, 4)
        machine._index = target
        stats.branches_taken += 1
        stats.stores += 1
        return [_new_record(InstructionRecord, head + (esp,) + tail)]

    return call


def _translate_call_indirect(instruction: Instruction, pc: int, nxt: int,
                             cx: _Context) -> Translation:
    src = instruction.operands[0]
    regs, stats, write = cx.regs, cx.stats, cx.memory.write_uint
    target_of = _reader(src, cx)
    address = _address(src, regs) if isinstance(src, Mem) else None
    return_pc = pc + INSTRUCTION_BYTES
    head, tail = _slots(cx.template(
        pc, EventType.INDIRECT_JUMP, src_reg=_reg_of(src), size=4,
        is_load=address is not None, is_store=True, is_indirect_jump=True,
    ), dest=True, src=address is not None)

    def call_indirect(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        target = target_of()
        regs[_ESP] = esp = (regs[_ESP] - 4) & WORD_MASK
        write(esp, return_pc, 4)
        machine._jump_to_address(target)
        stats.branches_taken += 1
        stats.stores += 1
        if address is None:
            return [_new_record(InstructionRecord, head + (esp,) + tail)]
        # The source address is taken after the stack pointer moved.
        stats.loads += 1
        return [_new_record(InstructionRecord, head + (esp, address()) + tail)]

    return call_indirect


def _translate_ret(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    regs, stats, read = cx.regs, cx.stats, cx.memory.read_uint
    head, tail = _slots(cx.template(
        pc, EventType.INDIRECT_JUMP, size=4, is_load=True, is_indirect_jump=True
    ), dest=False, src=True)

    def ret(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        esp = regs[_ESP]
        target = read(esp, 4)
        regs[_ESP] = (esp + 4) & WORD_MASK
        machine._jump_to_address(target)
        stats.branches_taken += 1
        stats.loads += 1
        return [_new_record(InstructionRecord, head + (esp,) + tail)]

    return ret


def _translate_xchg(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    a, b = instruction.operands
    stats = cx.stats
    read_a, read_b, store_a, store_b = _reader(a, cx), _reader(b, cx), _writer(a, cx), _writer(b, cx)
    mem = a if isinstance(a, Mem) else (b if isinstance(b, Mem) else None)
    address = _address(mem, cx.regs) if mem is not None else None
    template = cx.template(
        pc, EventType.OTHER, dest_reg=_reg_of(a), src_reg=_reg_of(b),
        size=mem.size if mem else 0, is_load=mem is not None, is_store=mem is not None,
    )
    head, tail = _slots(template, dest=True, src=False)

    def xchg(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        value_a, value_b = read_a(), read_b()
        store_a(value_b)
        store_b(value_a)
        if address is None:
            return [template]
        # The address is taken after both writes.
        stats.loads += 1
        stats.stores += 1
        return [_new_record(InstructionRecord, head + (address(),) + tail)]

    return xchg


def _translate_nop(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    stats, record = cx.stats, cx.template(pc, EventType.CONTROL)

    def nop(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        return [record]

    return nop


def _translate_halt(instruction: Instruction, pc: int, nxt: int, cx: _Context) -> Translation:
    stats, record = cx.stats, cx.template(pc, EventType.CONTROL)

    def halt(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        machine.halted = True
        return [record]

    return halt


def _translate_annotation(instruction: Instruction, pc: int, nxt: int,
                          stats: MachineStats) -> Translation:
    def annotation(machine: Machine) -> List[Record]:
        machine._index = nxt
        stats.instructions += 1
        return machine._execute_annotation(instruction, pc)

    return annotation


def _translate_blocking_lock(instruction: Instruction, pc: int) -> Translation:
    return lambda machine: machine._acquire_lock(instruction, pc)


_TRANSLATORS = {
    Opcode.MOV: _translate_mov,
    Opcode.MOVS: _translate_movs,
    Opcode.LEA: _translate_lea,
    Opcode.ADD: _translate_alu,
    Opcode.SUB: _translate_alu,
    Opcode.AND: _translate_alu,
    Opcode.OR: _translate_alu,
    Opcode.XOR: _translate_alu,
    Opcode.MUL: _translate_alu,
    Opcode.SHL: _translate_shift,
    Opcode.SHR: _translate_shift,
    Opcode.CMP: _translate_compare,
    Opcode.TEST: _translate_compare,
    Opcode.PUSH: _translate_push,
    Opcode.POP: _translate_pop,
    Opcode.JMP: _translate_jmp,
    Opcode.JCC: _translate_jcc,
    Opcode.JMP_INDIRECT: _translate_jmp_indirect,
    Opcode.CALL: _translate_call,
    Opcode.CALL_INDIRECT: _translate_call_indirect,
    Opcode.RET: _translate_ret,
    Opcode.XCHG: _translate_xchg,
    Opcode.NOP: _translate_nop,
    Opcode.HALT: _translate_halt,
}

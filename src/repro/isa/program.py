"""Programs and the label-resolving assembler.

A :class:`Program` is an immutable sequence of instructions for one
thread.  Programs are written through :class:`Assembler`, which offers
one method per opcode plus symbolic labels::

    asm = Assembler("spin")
    asm.li(1, LOCK_ADDR)
    asm.label("retry")
    asm.tas(2, base=1)
    asm.bne(2, 0, "retry")      # spin until TAS returned 0
    ...
    program = asm.build()
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

from repro.isa.instructions import FenceKind, Instruction, Opcode, WORD_BYTES


class AssemblyError(ValueError):
    """Raised for malformed programs (unknown label, bad alignment...)."""


_T = TypeVar("_T")

#: Instance-dict key of the derived-data cache (see Program.derived).
_DERIVED = "_derived"

#: Every live instruction the assembler has built, keyed by its fields
#: with the opcode as its value.  The values are weak references: an
#: entry goes when the last program (or assembler) holding its
#: instruction does, so a campaign of throwaway programs cannot grow it.
_interned: "weakref.WeakValueDictionary[tuple, Instruction]" = \
    weakref.WeakValueDictionary()


def _intern(op: Opcode, rd: int, rs: int, rt: int, ru: int, imm: int,
            fence: Optional[FenceKind], target: Optional[int]) -> Instruction:
    """The one live :class:`Instruction` with these fields.

    A repeat costs a tuple and a dict lookup: the key holds the opcode's
    value, not the member, whose hash is a Python-level call, and no
    ``Instruction`` is built (or validated) unless the fields are new.
    """
    key = (op._value_, rd, rs, rt, ru, imm, fence, target)
    instr = _interned.get(key)
    if instr is None:
        instr = _interned[key] = Instruction(op, rd, rs, rt, ru, imm, fence,
                                             target)
    return instr


@dataclass(frozen=True)
class Program:
    """An assembled, label-resolved instruction sequence for one thread."""

    name: str
    instructions: Tuple[Instruction, ...]
    #: label -> instruction index, read-only: one program object is
    #: shared by every plan that takes it from a memo (the standard
    #: suite, litmus compiles), so an edit would reach them all.
    labels: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels",
                           MappingProxyType(dict(self.labels)))

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def __iter__(self):
        return iter(self.instructions)

    def derived(self, key: str, build: Callable[["Program"], _T]) -> _T:
        """``build(self)``, computed once per program object and cached.

        The one rule for data derived from a program's text (the
        interpreter's dispatch pairs, superblock spans, the timing
        core's decode plan, the sweep's point digest): it is cached on
        the program under ``key``,
        stamped with the ``instructions`` tuple it was derived from.
        Replacing the tuple -- the only way to mutate a frozen
        ``Program``, via ``object.__setattr__`` -- invalidates every
        entry, so a rebuilt program never serves stale data.  The stamp
        holds a live reference to the old tuple, so the identity check
        cannot be fooled by ``id()`` reuse.

        Entries live in the instance dict, invisible to equality and
        repr, and never ride in a pickle or copy (see
        :meth:`__getstate__`).  Whatever ``build`` returns is shared by
        every user of this program object, so it must be immutable and
        hold nothing bound to one simulated machine.
        """
        cache = self.__dict__.get(_DERIVED)
        if cache is None:
            cache = self.__dict__[_DERIVED] = {}
        instructions = self.instructions
        entry = cache.get(key)
        if entry is not None and entry[0] is instructions:
            return entry[1]
        value = build(self)
        cache[key] = (instructions, value)
        return value

    def __getstate__(self) -> dict:
        # A decoded program pickles (and copies) exactly like a fresh
        # one: derived entries are rebuilt where they are used, and some
        # hold functions that cannot be pickled at all.  The labels
        # travel as a plain dict (a mapping proxy cannot be pickled) and
        # come back read-only.
        state = dict(self.__dict__)
        state.pop(_DERIVED, None)
        state["labels"] = dict(self.labels)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state,
                             labels=MappingProxyType(dict(state["labels"])))

    def listing(self) -> str:
        """Human-readable disassembly with labels."""
        by_index: Dict[int, List[str]] = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        lines = []
        for i, instr in enumerate(self.instructions):
            for label in by_index.get(i, []):
                lines.append(f"{label}:")
            lines.append(f"  {i:4d}  {instr}")
        return "\n".join(lines)

    def static_counts(self) -> Dict[str, int]:
        """Static instruction-mix counts (used by workload sanity tests)."""
        counts = {"load": 0, "store": 0, "atomic": 0, "fence": 0, "branch": 0, "alu": 0, "other": 0}
        for instr in self.instructions:
            if instr.is_load:
                counts["load"] += 1
            elif instr.is_store:
                counts["store"] += 1
            elif instr.is_atomic:
                counts["atomic"] += 1
            elif instr.is_fence:
                counts["fence"] += 1
            elif instr.is_branch:
                counts["branch"] += 1
            elif instr.is_alu:
                counts["alu"] += 1
            else:
                counts["other"] += 1
        return counts


class Assembler:
    """Builds a :class:`Program`, resolving labels at :meth:`build` time.

    Register operands are plain integers 0..31; register 0 always reads
    as zero.  Branch targets are label strings.
    """

    def __init__(self, name: str = "program"):
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._fixups: List[Tuple[int, str]] = []

    # ------------------------------------------------------------- labels

    def label(self, name: str) -> "Assembler":
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    def _emit(self, op: Opcode, rd: int = 0, rs: int = 0, rt: int = 0,
              ru: int = 0, imm: int = 0,
              fence: Optional[FenceKind] = None) -> "Assembler":
        self._instructions.append(_intern(op, rd, rs, rt, ru, imm, fence, None))
        return self

    def _emit_branch(self, op: Opcode, rs: int, rt: int, label: str) -> "Assembler":
        self._fixups.append((len(self._instructions), label))
        return self._emit(op, rs=rs, rt=rt)

    # ---------------------------------------------------------------- ALU

    def li(self, rd: int, imm: int) -> "Assembler":
        return self._emit(Opcode.LI, rd=rd, imm=imm)

    def mov(self, rd: int, rs: int) -> "Assembler":
        return self._emit(Opcode.MOV, rd=rd, rs=rs)

    def add(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._emit(Opcode.ADD, rd=rd, rs=rs, rt=rt)

    def addi(self, rd: int, rs: int, imm: int) -> "Assembler":
        return self._emit(Opcode.ADDI, rd=rd, rs=rs, imm=imm)

    def sub(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._emit(Opcode.SUB, rd=rd, rs=rs, rt=rt)

    def mul(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._emit(Opcode.MUL, rd=rd, rs=rs, rt=rt)

    def and_(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._emit(Opcode.AND, rd=rd, rs=rs, rt=rt)

    def or_(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._emit(Opcode.OR, rd=rd, rs=rs, rt=rt)

    def xor(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._emit(Opcode.XOR, rd=rd, rs=rs, rt=rt)

    def slt(self, rd: int, rs: int, rt: int) -> "Assembler":
        return self._emit(Opcode.SLT, rd=rd, rs=rs, rt=rt)

    def slti(self, rd: int, rs: int, imm: int) -> "Assembler":
        return self._emit(Opcode.SLTI, rd=rd, rs=rs, imm=imm)

    def exec_(self, cycles: int) -> "Assembler":
        """A block of pure computation taking ``cycles`` cycles."""
        return self._emit(Opcode.EXEC, imm=cycles)

    # ------------------------------------------------------------- memory

    @staticmethod
    def _check_offset(offset: int) -> None:
        if offset % WORD_BYTES != 0:
            raise AssemblyError(f"memory offset {offset} is not {WORD_BYTES}-byte aligned")

    def load(self, rd: int, base: int, offset: int = 0) -> "Assembler":
        self._check_offset(offset)
        return self._emit(Opcode.LOAD, rd=rd, rs=base, imm=offset)

    def store(self, value: int, base: int, offset: int = 0) -> "Assembler":
        """Store register ``value`` to ``[base + offset]``."""
        self._check_offset(offset)
        return self._emit(Opcode.STORE, rs=base, rt=value, imm=offset)

    def tas(self, rd: int, base: int, offset: int = 0) -> "Assembler":
        self._check_offset(offset)
        return self._emit(Opcode.TAS, rd=rd, rs=base, imm=offset)

    def swap(self, rd: int, base: int, value: int, offset: int = 0) -> "Assembler":
        self._check_offset(offset)
        return self._emit(Opcode.SWAP, rd=rd, rs=base, rt=value, imm=offset)

    def cas(self, rd: int, base: int, expected: int, new: int, offset: int = 0) -> "Assembler":
        self._check_offset(offset)
        return self._emit(Opcode.CAS, rd=rd, rs=base, rt=expected, ru=new,
                          imm=offset)

    def fetch_add(self, rd: int, base: int, addend: int, offset: int = 0) -> "Assembler":
        self._check_offset(offset)
        return self._emit(Opcode.FETCH_ADD, rd=rd, rs=base, rt=addend, imm=offset)

    # ----------------------------------------------------------- ordering

    def fence(self, kind: FenceKind = FenceKind.FULL) -> "Assembler":
        return self._emit(Opcode.FENCE, fence=kind)

    # ------------------------------------------------------------ control

    def beq(self, rs: int, rt: int, label: str) -> "Assembler":
        return self._emit_branch(Opcode.BEQ, rs, rt, label)

    def bne(self, rs: int, rt: int, label: str) -> "Assembler":
        return self._emit_branch(Opcode.BNE, rs, rt, label)

    def blt(self, rs: int, rt: int, label: str) -> "Assembler":
        return self._emit_branch(Opcode.BLT, rs, rt, label)

    def bge(self, rs: int, rt: int, label: str) -> "Assembler":
        return self._emit_branch(Opcode.BGE, rs, rt, label)

    def jmp(self, label: str) -> "Assembler":
        self._fixups.append((len(self._instructions), label))
        return self._emit(Opcode.JMP)

    def nop(self) -> "Assembler":
        return self._emit(Opcode.NOP)

    def halt(self) -> "Assembler":
        return self._emit(Opcode.HALT)

    # -------------------------------------------------------------- build

    def build(self) -> Program:
        """Resolve labels and freeze the program.

        Appends a trailing HALT if the program does not already end with
        one, so every thread terminates explicitly.  Equal instructions
        are one shared object, in this program and in every other live
        program the assembler built (see :func:`_intern`).
        """
        instructions = list(self._instructions)
        if not instructions or instructions[-1].op is not Opcode.HALT:
            instructions.append(_intern(Opcode.HALT, 0, 0, 0, 0, 0, None, None))
        for index, label in self._fixups:
            if label not in self._labels:
                raise AssemblyError(f"undefined label {label!r}")
            branch = instructions[index]
            instructions[index] = _intern(branch.op, 0, branch.rs, branch.rt, 0,
                                          0, None, self._labels[label])
        return Program(self.name, tuple(instructions), dict(self._labels))

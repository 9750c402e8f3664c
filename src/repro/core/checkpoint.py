"""Register checkpoints for post-retirement speculation.

InvisiFence needs exactly one architectural checkpoint per core (two in
some continuous-mode variants): registers + PC, taken at an instruction
boundary.  The memory side needs *no* checkpoint storage -- that is the
paper's central storage argument -- because speculative memory state is
tracked in the L1 itself via SR/SW bits and clean-before-write.
"""

from __future__ import annotations


class Checkpoint:
    """A snapshot of one core's architectural state.

    The checkpoint is *incremental*: the core journals (reg, old_value)
    pairs as it speculates and restores by replaying the undo log, so
    taking the checkpoint copies nothing but the PC.  The modelled
    hardware cost is unchanged -- a real implementation still shadows
    the full register file (``repro.core.storage.CHECKPOINT_BITS``).
    """

    __slots__ = ("pc", "taken_at_cycle", "taken_at_instruction")

    def __init__(self, pc: int, taken_at_cycle: int,
                 taken_at_instruction: int):
        self.pc = pc
        self.taken_at_cycle = taken_at_cycle
        self.taken_at_instruction = taken_at_instruction

    def __repr__(self) -> str:
        return (f"<Checkpoint pc={self.pc} cycle={self.taken_at_cycle} "
                f"instr={self.taken_at_instruction}>")

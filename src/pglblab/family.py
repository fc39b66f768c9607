"""Program generators: the two-phase selection family and seeded random programs.

The k-th selection family member polls a Boolean test focus in two rounds of up to
2^k negative tests each.  Round one stores a branch offset for register 1,
round two for register 2; the final chunk dereferences both registers to
reach one a<i>.run / ap<j>.run pair.  Offsets are laid out so that the
indirect jumps land exactly on the selected basic instruction.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .isa import (
    AuxSpec,
    BasicInstruction,
    BwdJump,
    FwdJump,
    Halt,
    IndBwdJump,
    IndFwdJump,
    InputError,
    Instruction,
    NegTest,
    Plain,
    PosTest,
    Program,
    RegSet,
    ToolParams,
)


@dataclass(frozen=True)
class FamilyParams:
    """Machine parameters of one family member."""

    k: int
    maxr: int
    maxn: int

    def tool_params(self, **overrides) -> ToolParams:
        defaults = dict(maxr=self.maxr, maxn=self.maxn, aux=AuxSpec())
        defaults.update(overrides)
        return ToolParams(**defaults)


#: Largest family index: member 16 has 786436 instructions, and the
#: length quadruples with every further step of 2.
MAX_FAMILY_K = 16

#: Longest random program: `gen_random` draws one instruction at a time.
MAX_RANDOM_LEN = 1_000_000


def gen_scaling_family(k: int) -> tuple[Program, FamilyParams]:
    """The k-th member of the selection family; length is 12*2^k + 4."""
    if not 1 <= k <= MAX_FAMILY_K:
        raise InputError(f"k must be in 1..{MAX_FAMILY_K}")
    n = 2 ** k
    test = BasicInstruction("bool1", "get")
    out: list[Instruction] = []
    # Two selection chunks: on the i-th True reply, store the offset of the
    # i-th branch target and jump to the next chunk; after 2^k False
    # replies, halt.
    for reg in (1, 2):
        for i in range(1, n + 1):
            out.append(NegTest(test))
            out.append(FwdJump(3))
            out.append(RegSet(reg, 2 * i - 1))
            out.append(FwdJump((n - i) * 4 + 2))
        out.append(Halt())
    # Dispatch chunk: indirect jumps through both registers.
    out.append(IndFwdJump(1))
    for i in range(1, n + 1):
        out.append(Plain(BasicInstruction(f"a{i}", "run")))
        out.append(FwdJump((n - i) * 2 + 1))
    out.append(IndFwdJump(2))
    for i in range(1, n + 1):
        out.append(Plain(BasicInstruction(f"ap{i}", "run")))
        out.append(Halt())
    program = Program(tuple(out))
    params = FamilyParams(
        k=k,
        maxr=2,
        maxn=2 * n + 1,
    )
    assert len(program) == 12 * n + 4
    return program, params


#: Relative draw weights per instruction kind for gen_random.
DEFAULT_KIND_WEIGHTS: dict[str, int] = {
    "plain": 4,
    "pos_test": 3,
    "neg_test": 2,
    "fwd_jump": 3,
    "bwd_jump": 1,
    "reg_set": 2,
    "ind_fwd_jump": 1,
    "ind_bwd_jump": 1,
    "halt": 2,
}

_RANDOM_FOCI = ("f", "g", "h")
_RANDOM_METHODS = ("m", "n")


def gen_random(
    seed: int,
    length: int,
    params: ToolParams,
    weights: dict[str, int] | None = None,
) -> Program:
    """Deterministic random program of exactly `length` instructions.

    Jump distances are drawn from [0, length], so out-of-range and
    distance-0 deadlocks occur; register indexes and literals respect
    params.maxr/maxn.
    """
    if not 1 <= length <= MAX_RANDOM_LEN:
        raise InputError(f"length must be in 1..{MAX_RANDOM_LEN}")
    table = dict(DEFAULT_KIND_WEIGHTS if weights is None else weights)
    kinds = list(table)
    kind_weights = [table[k] for k in kinds]
    rng = random.Random(seed)

    def basic() -> BasicInstruction:
        return BasicInstruction(rng.choice(_RANDOM_FOCI), rng.choice(_RANDOM_METHODS))

    out: list[Instruction] = []
    for _ in range(length):
        match rng.choices(kinds, kind_weights)[0]:
            case "plain":
                out.append(Plain(basic()))
            case "pos_test":
                out.append(PosTest(basic()))
            case "neg_test":
                out.append(NegTest(basic()))
            case "fwd_jump":
                out.append(FwdJump(rng.randint(0, length)))
            case "bwd_jump":
                out.append(BwdJump(rng.randint(0, length)))
            case "reg_set":
                out.append(RegSet(rng.randint(1, params.maxr), rng.randint(1, params.maxn)))
            case "ind_fwd_jump":
                out.append(IndFwdJump(rng.randint(1, params.maxr)))
            case "ind_bwd_jump":
                out.append(IndBwdJump(rng.randint(1, params.maxr)))
            case "halt":
                out.append(Halt())
    return Program(tuple(out))

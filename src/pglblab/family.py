"""Program generators: the two-phase selection family and seeded random programs.

The k-th selection family member polls a Boolean test focus in two rounds of up to
2^k negative tests each.  Round one stores a branch offset for register 1,
round two for register 2; the final chunk dereferences both registers to
reach one a<i>.run / ap<j>.run pair.  Offsets are laid out so that the
indirect jumps land exactly on the selected basic instruction.
"""
from __future__ import annotations

import random

from .isa import (
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


#: Largest family index: member 16 has 786436 instructions, and the
#: length quadruples with every further step of 2.
MAX_FAMILY_K = 16

#: Longest random program: `gen_random` draws one instruction at a time.
MAX_RANDOM_LEN = 1_000_000


def gen_scaling_family(k: int) -> tuple[Program, ToolParams]:
    """The k-th member of the selection family, length 12*2^k + 4, and the
    machine parameters it needs: two registers holding offsets up to 2^(k+1) + 1."""
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
    assert len(program) == 12 * n + 4
    return program, ToolParams(maxr=2, maxn=2 * n + 1)


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
    params.maxr/maxn.  `weights` maps kind names, the keys of
    DEFAULT_KIND_WEIGHTS, to relative draw weights.
    """
    if not 1 <= length <= MAX_RANDOM_LEN:
        raise InputError(f"length must be in 1..{MAX_RANDOM_LEN}")
    table = dict(DEFAULT_KIND_WEIGHTS if weights is None else weights)
    kinds = list(table)
    kind_weights = [table[k] for k in kinds]
    rng = random.Random(seed)

    def basic() -> BasicInstruction:
        return BasicInstruction(rng.choice(_RANDOM_FOCI), rng.choice(_RANDOM_METHODS))

    # One builder per kind name: each draws its operands after the kind.
    build = {
        "plain": lambda: Plain(basic()),
        "pos_test": lambda: PosTest(basic()),
        "neg_test": lambda: NegTest(basic()),
        "fwd_jump": lambda: FwdJump(rng.randint(0, length)),
        "bwd_jump": lambda: BwdJump(rng.randint(0, length)),
        "reg_set": lambda: RegSet(rng.randint(1, params.maxr), rng.randint(1, params.maxn)),
        "ind_fwd_jump": lambda: IndFwdJump(rng.randint(1, params.maxr)),
        "ind_bwd_jump": lambda: IndBwdJump(rng.randint(1, params.maxr)),
        "halt": Halt,
    }
    return Program(tuple(build[rng.choices(kinds, kind_weights)[0]]() for _ in range(length)))

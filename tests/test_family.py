from dataclasses import replace

import pytest
from oracles import reference_observable_events

from pglblab.family import DEFAULT_KIND_WEIGHTS, MAX_RANDOM_LEN, gen_scaling_family, gen_random
from pglblab.isa import Halt, ToolParams, parse_program, render_program, validate
from pglblab.vm import Scripted, Status, run

FAMILY_K1_TEXT = (
    "-bool1.get ; #3 ; set:1:1 ; #6 ; -bool1.get ; #3 ; set:1:3 ; #2 ; ! ; "
    "-bool1.get ; #3 ; set:2:1 ; #6 ; -bool1.get ; #3 ; set:2:3 ; #2 ; ! ; "
    "i#1 ; a1.run ; #3 ; a2.run ; #1 ; i#2 ; ap1.run ; ! ; ap2.run ; !"
)


@pytest.mark.parametrize("k", range(1, 11))
def test_family_length_formula(k):
    p, _ = gen_scaling_family(k)
    assert len(p) == 12 * 2**k + 4


def test_family_smallest_member_golden():
    p, _ = gen_scaling_family(1)
    assert render_program(p) == FAMILY_K1_TEXT


def test_family_params():
    p, params = gen_scaling_family(3)
    assert params == ToolParams(maxr=2, maxn=2 * 8 + 1)
    assert validate(p, params) == []


def test_family_is_deterministic():
    assert gen_scaling_family(4)[0] == gen_scaling_family(4)[0]


def test_family_rejects_k_below_one():
    with pytest.raises(ValueError):
        gen_scaling_family(0)


@pytest.mark.parametrize("k", [1, 2])
def test_family_selects_every_branch_pair(k):
    # The i-th True in round one and j-th True in round two must reach
    # exactly a<i>.run then ap<j>.run and terminate.
    p, params = gen_scaling_family(k)
    params = replace(params, cell_foci=frozenset())
    n = 2**k
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            script = (False,) * (i - 1) + (True,) + (False,) * (j - 1) + (True,)
            trace = run(p, params, Scripted(script))
            assert trace.final is Status.TERMINATED, (i, j)
            obs = reference_observable_events(trace.events, params.aux)
            non_test = [ev.focus for ev in obs if ev.focus != "bool1"]
            assert non_test == [f"a{i}", f"ap{j}"], (i, j)


def test_family_round_trips_through_the_parser():
    p, _ = gen_scaling_family(2)
    assert parse_program(render_program(p)) == p


# --- seeded random programs ---


def test_gen_random_is_deterministic_and_sized():
    params = ToolParams(maxr=2, maxn=3)
    a = gen_random(42, 12, params)
    b = gen_random(42, 12, params)
    assert a == b
    assert len(a) == 12
    assert gen_random(43, 12, params) != a


def test_gen_random_round_trips_and_validates():
    params = ToolParams(maxr=2, maxn=3)
    for seed in range(200):
        p = gen_random(seed, 12, params)
        assert parse_program(render_program(p)) == p
        assert validate(p, params) == []


def test_gen_random_honors_weight_table():
    params = ToolParams(maxr=2, maxn=3)
    p = gen_random(7, 20, params, weights={"halt": 1})
    assert all(u == Halt() for u in p.instructions)


def test_gen_random_default_weights_cover_all_kinds():
    # Over a long draw every kind in the default table appears.
    params = ToolParams(maxr=2, maxn=3)
    p = gen_random(3, 600, params)
    kinds = {type(u).__name__ for u in p.instructions}
    assert len(kinds) == len(DEFAULT_KIND_WEIGHTS)


def test_gen_random_rejects_bad_length():
    with pytest.raises(ValueError):
        gen_random(1, 0, ToolParams())


def test_gen_scaling_family_bounds_k():
    for k in (0, 17, 40):
        with pytest.raises(ValueError):
            gen_scaling_family(k)


def test_gen_random_rejects_lengths_above_the_cap():
    params = ToolParams(maxr=2, maxn=3)
    for length in (MAX_RANDOM_LEN + 1, 10**11):
        with pytest.raises(ValueError, match="length must be in 1..1000000"):
            gen_random(1, length, params)

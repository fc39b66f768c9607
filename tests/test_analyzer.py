import pytest
from hypothesis import given, settings, strategies as st
from oracles import brute_force_mid, reference_state_graph, replay_segment, tarjan_mid
from test_projector import service_loop

import pglblab.analyzer as analyzer
import pglblab.isa as isa
from pglblab.analyzer import (
    StateLimitExceeded,
    StateNode,
    build_state_graph,
    compute_mid,
    id_weight,
    program_mid,
)
from pglblab.family import gen_random, gen_scaling_family
from pglblab.isa import (
    AuxSpec,
    BasicInstruction,
    Halt,
    NegTest,
    PosTest,
    ToolParams,
    parse_program,
)
from pglblab.projector import dispatch_project, specialize, thread_jumps

NO_AUX = AuxSpec()
X_AUX = AuxSpec.parse("x.*")


def decoded_edges(graph):
    """{state: successor states in branch order}, decoded by `decoder()`."""
    node = graph.decoder()
    return {
        node(i): tuple(map(node, graph.successors(i)))
        for i in range(graph.node_count)
    }


def terminated(graph, edges):
    """States at a halt."""
    return {n for n in edges if type(graph.program.instructions[n.pc - 1]) is Halt}


def deadlocked(graph, edges):
    """States with an outcome that leaves the program or reads a zero jump
    distance: fewer successors than the instruction has branches."""
    branches = {Halt: 0, PosTest: 2, NegTest: 2}
    return {
        n for n, succs in edges.items()
        if len(succs) < branches.get(type(graph.program.instructions[n.pc - 1]), 1)
    }


def mid_of(text, params, aux=NO_AUX):
    p = parse_program(text)
    return compute_mid(build_state_graph(p, params), aux)


# --- the weight table ---


def test_id_weight_table():
    p = parse_program("f.m ; +f.m ; -f.m ; x.m ; +x.m ; #2 ; \\#1 ; set:1:1 ; i#1 ; i\\#1 ; !")
    weights = [id_weight(u, X_AUX) for u in p.instructions]
    assert weights == [0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 0]


# --- state graphs ---


def test_state_graph_of_register_program():
    p = parse_program("set:1:2 ; i#1 ; ! ; !")
    g = build_state_graph(p, ToolParams(maxr=1, maxn=2))
    assert g.node_count == 3
    edges = decoded_edges(g)
    assert set(edges) == {
        StateNode(1, (0,)),
        StateNode(2, (2,)),
        StateNode(4, (2,)),
    }
    assert terminated(g, edges) == {StateNode(4, (2,))}
    assert deadlocked(g, edges) == set()
    assert g.edge_count == 2


def test_state_graph_branches_on_tests():
    p = parse_program("+f.m ; ! ; #0")
    g = build_state_graph(p, ToolParams(maxr=1, maxn=1))
    assert g.node_count == 3
    edges = decoded_edges(g)
    assert edges[StateNode(1, (0,))] == (StateNode(2, (0,)), StateNode(3, (0,)))
    assert StateNode(3, (0,)) in deadlocked(g, edges)


def test_state_graph_respects_limit():
    p = parse_program("set:1:2 ; i#1 ; ! ; !")
    with pytest.raises(StateLimitExceeded, match="^state graph exceeds the configured limit of 2 nodes$"):
        build_state_graph(p, ToolParams(maxr=1, maxn=2, state_limit=2))
    # One refusal for every state limit, a typed input refusal.
    assert StateLimitExceeded is isa.StateLimitExceeded
    assert issubclass(StateLimitExceeded, isa.InputError)


def test_state_graph_rejects_invalid_program():
    with pytest.raises(ValueError):
        build_state_graph(parse_program("set:3:1 ; !"), ToolParams(maxr=2))


# --- finite MID ---


def test_mid_of_plain_sequence_is_zero():
    assert mid_of("f.m ; g.n ; !", ToolParams()).value == 0
    # Weight after the last anchor closes no segment.
    assert mid_of("f.m ; #0", ToolParams()).value == 0


def test_mid_counts_weights_between_observable_steps():
    # f.m (anchor) ; set 1 ; i# 2 ; f.m (anchor): interior weight 3.
    result = mid_of("f.m ; set:1:1 ; i#1 ; f.m ; !", ToolParams(maxr=1, maxn=1))
    assert result.value == 3
    assert [n.pc for n in result.witness] == [1, 2, 3, 4]


def test_mid_witness_replays_through_the_interpreter():
    p = parse_program("f.m ; set:1:1 ; i#1 ; f.m ; !")
    params = ToolParams(maxr=1, maxn=1)
    result = compute_mid(build_state_graph(p, params), params.aux)
    assert replay_segment(p, params, result.witness) == 3


def test_mid_takes_the_heavier_test_branch():
    # True branch pays one jump to the halt, False branch two to g.n.
    result = mid_of("+f.m ; #4 ; #1 ; #1 ; g.n ; !", ToolParams())
    assert result.value == 2


def test_mid_ignores_unreachable_weight():
    base = mid_of("f.m ; set:1:1 ; i#1 ; f.m ; !", ToolParams(maxr=1, maxn=7))
    padded = mid_of(
        "f.m ; set:1:1 ; i#1 ; f.m ; ! ; set:1:7 ; i\\#1 ; #2",
        ToolParams(maxr=1, maxn=7),
    )
    assert base.value == padded.value == 3


def test_mid_zero_when_no_anchor_reachable():
    result = mid_of("#1 ; \\#1", ToolParams())
    assert result.value == 0
    assert result.witness == ()


def test_aux_marking_turns_anchors_into_delay():
    plain = mid_of("f.m ; x.m ; f.m ; !", ToolParams())
    assert plain.value == 0
    marked = mid_of("f.m ; x.m ; f.m ; !", ToolParams(), aux=X_AUX)
    assert marked.value == 1


# --- unbounded MID ---


def test_unbounded_aux_loop():
    # x-test loop between two anchor candidates: f.m ... ! — the cycle
    # x.get / back-jump has positive weight and never meets an anchor.
    p = parse_program("f.m ; +x.get ; \\#1 ; !")
    params = ToolParams()
    result = compute_mid(build_state_graph(p, params), X_AUX)
    assert result.value is None
    assert result.stem and result.cycle and result.exit_path
    assert {n.pc for n in result.cycle} == {2, 3}


def test_unbounded_witness_replays():
    p = parse_program("f.m ; +x.get ; \\#1 ; !")
    params = ToolParams(aux=X_AUX)
    result = compute_mid(build_state_graph(p, params), params.aux)
    # One full lap of the cycle embedded in the witness is a genuine run
    # segment; its interior weight exceeds any single instruction's.
    assert replay_segment(p, params, result.witness) >= 3


def test_brute_force_grows_with_depth_on_unbounded_programs():
    p = parse_program("f.m ; +x.get ; \\#1 ; !")
    params = ToolParams(aux=X_AUX)
    values = [brute_force_mid(p, params, d) for d in (10, 20, 40)]
    assert values[0] < values[1] < values[2]


def test_positive_cycle_needs_anchors_on_both_sides():
    # The loop pumps weight but can never close at an anchor afterwards:
    # not an unbounded MID.
    result = mid_of("f.m ; #2 ; ! ; \\#2", ToolParams())
    assert result.value == 0
    assert result.cycle == ()


# --- the chain walk and the per-object decoding against the references ---

#: The aux marks each differential case is analysed under.
DIFF_AUX = ("", "f.*", "g.m", "bool1.*")

#: Positive cycles: a `g.m` or `f.*` loop with anchors on both sides, two
#: closing loops, a loop with no anchor after it, and a register loop.
HANDMADE_CYCLES = (
    "f.n ; +g.m ; \\#1 ; !",
    "h.m ; +g.m ; #2 ; f.n ; \\#3 ; h.n ; !",
    "h.n ; -g.m ; \\#1 ; +f.m ; \\#1 ; g.n ; h.m ; !",
    "h.m ; +g.m ; \\#1",
    "h.m ; set:1:2 ; +f.m ; i\\#1 ; g.n ; \\#4 ; !",
)


def differential_cases():
    """(program, params): seeded random programs, family members k=1..6,
    service loops k=1..3 and the hand-made positive cycles."""
    random_params = ToolParams(maxr=2, maxn=3)
    for seed in range(2000):
        yield gen_random(seed, 3 + seed % 12, random_params), random_params
    for k in range(1, 7):
        yield gen_scaling_family(k)
    for k in range(1, 4):
        yield service_loop(k)
    for text in HANDMADE_CYCLES:
        yield parse_program(text), ToolParams(maxr=1, maxn=2)


def test_chain_walk_matches_the_tarjan_reference():
    """Graph and MidResult equal the references' under every aux of
    DIFF_AUX, on each case and on its dispatch output (the branching side:
    its register cells are aux-marked tests)."""
    unbounded = 0
    for p, params in differential_cases():
        report = dispatch_project(p, params)
        cells = AuxSpec.of_foci(report.aux_foci)
        for program, extra, graph_params in (
            (p, AuxSpec(), params),
            (report.output, cells, report.output_params(params)),
        ):
            graph = build_state_graph(program, graph_params)
            ref = reference_state_graph(program, graph_params)
            assert (graph.node_count, graph.edge_count) == (ref.node_count, ref.edge_count)
            assert (graph.codes, graph.offsets, graph.targets) == (ref.codes, ref.offsets, ref.targets)
            for text in DIFF_AUX:
                aux = AuxSpec.parse(text).union(extra)
                result = compute_mid(graph, aux)
                assert result == tarjan_mid(ref, aux), (str(program), text)
                unbounded += result.value is None
    # The cases reach the SCC pass's unbounded verdict, not only chains.
    assert unbounded >= 100


def test_weights_are_decoded_once_per_instruction_object(monkeypatch):
    p, params = gen_scaling_family(5)
    report = specialize(build_state_graph(p, params))
    threaded = thread_jumps(report.output)
    calls = []

    def counting(u, aux):
        calls.append(u)
        return id_weight(u, aux)

    monkeypatch.setattr(analyzer, "id_weight", counting)
    assert program_mid(threaded, report.output_params(params)).value == 1
    assert 0 < len(calls) <= len({id(u) for u in threaded.instructions}) < len(threaded)


# --- the brute-force differential oracle ---


def test_brute_force_agrees_on_handmade_example():
    p = parse_program("f.m ; set:1:1 ; i#1 ; f.m ; !")
    params = ToolParams(maxr=1, maxn=1)
    assert brute_force_mid(p, params, 60) == 3


def test_brute_force_matches_analysis_on_acyclic_random_programs(is_acyclic):
    params = ToolParams(maxr=2, maxn=3)
    checked = 0
    seed = 0
    while checked < 150:
        seed += 1
        p = gen_random(seed, 3 + seed % 13, params)
        g = build_state_graph(p, params)
        if not is_acyclic(g):
            continue
        checked += 1
        expected = compute_mid(g, params.aux).value
        assert brute_force_mid(p, params, g.node_count + 1) == expected, (seed, str(p))


def test_brute_force_is_a_lower_bound_in_general():
    params = ToolParams(maxr=2, maxn=3)
    for seed in range(40):
        p = gen_random(5000 + seed, 3 + seed % 11, params)
        g = build_state_graph(p, params)
        result = compute_mid(g, params.aux)
        value = result.value
        brute = brute_force_mid(p, params, 40)
        if value is not None:
            assert brute <= value, (seed, str(p))


# --- aux monotonicity, refined ---


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_enlarging_aux_only_lowers_mid_by_consuming_anchors(seed, length):
    params = ToolParams(maxr=2, maxn=3)
    p = gen_random(seed, length, params)
    g = build_state_graph(p, params)
    small = AuxSpec()
    big = AuxSpec.parse("f.*")

    def anchor_pcs(aux):
        return {pc for pc in g.pcs() if id_weight(p.instructions[pc - 1], aux) == 0}

    before = compute_mid(g, small).value
    after = compute_mid(g, big).value
    if anchor_pcs(small) == anchor_pcs(big):
        # Weights only grow, so with identical segment boundaries the
        # maximum cannot drop (and unbounded stays unbounded).
        if before is None:
            assert after is None
        elif after is not None:
            assert after >= before

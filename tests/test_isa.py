import random
import re
from typing import get_args

import pytest
from hypothesis import given, strategies as st

from pglblab import isa
from pglblab.isa import (
    AuxSpec,
    BasicInstruction,
    BwdJump,
    Diagnostic,
    FwdJump,
    Halt,
    IndBwdJump,
    IndFwdJump,
    Instruction,
    MOVES,
    NegTest,
    ParseError,
    Plain,
    PosTest,
    Program,
    RegSet,
    ToolParams,
    is_pglb,
    parse_program,
    render_instruction,
    render_program,
    validate,
)

ALL_KINDS_TEXT = "f.m ; +f.m ; -g.n ; #3 ; \\#1 ; set:1:3 ; i#1 ; i\\#2 ; !"


def test_parse_all_instruction_kinds():
    p = parse_program(ALL_KINDS_TEXT)
    assert p.instructions == (
        Plain(BasicInstruction("f", "m")),
        PosTest(BasicInstruction("f", "m")),
        NegTest(BasicInstruction("g", "n")),
        FwdJump(3),
        BwdJump(1),
        RegSet(1, 3),
        IndFwdJump(1),
        IndBwdJump(2),
        Halt(),
    )


def test_moves_holds_every_instruction_kind():
    assert set(MOVES) == set(get_args(Instruction))


def test_render_round_trip_canonical():
    p = parse_program(ALL_KINDS_TEXT)
    assert render_program(p) == ALL_KINDS_TEXT
    assert parse_program(render_program(p)) == p


def test_parse_accepts_newlines_and_comments():
    text = """
    // selection header
    -bool1.get ; #3 ;
    set:1:1 ; // stores the offset
    !
    """
    p = parse_program(text)
    assert render_program(p) == "-bool1.get ; #3 ; set:1:1 ; !"


def test_parse_methods_with_colon_segments():
    p = parse_program("bool1.set:T ; bool1.set:F ; !")
    assert p.instructions[0] == Plain(BasicInstruction("bool1", "set:T"))
    assert p.instructions[1].basic.method == "set:F"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("f.m ;\n  ?bogus ; !")
    assert exc.value.line == 2
    assert exc.value.column == 3
    assert "2:3" in str(exc.value)


# Comments, blank lines and 300 repeats of one token come before each fault.
_REPEATS_BEFORE = "// header ; not code\n\nf.m ; // a note\n" + "f.m ; " * 300 + "\n"


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        (_REPEATS_BEFORE + "   ?bad ; f.m", 5, 4, "unrecognized instruction '?bad'"),
        # A blank instruction is placed at the ';' that ends it.
        (_REPEATS_BEFORE + "f.m ;\n  f.m ;  #1 ; \t;", 6, 16, "empty instruction"),
        (_REPEATS_BEFORE + "#2 ; set:1:0 ; ! ; set:1:0", 5, 6, "register literal must be >= 1"),
        # The faulty token repeats later: its first occurrence is reported.
        ("f.m ; // set:1:0\n  set:1:0 ; " + "set:1:0 ; " * 50, 2, 3, "register literal must be >= 1"),
        ("f.m ; ?x ;\n?y ; ?x", 1, 7, "unrecognized instruction '?x'"),
        ("f.m ; !  // trailing\n;", 2, 2, "empty instruction"),
    ],
    ids=["unknown", "blank", "bad-literal", "repeated-fault", "first-of-two", "trailing-separator"],
)
def test_parse_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"{line}:{column}: {message}"


def test_parse_error_on_empty_instruction():
    with pytest.raises(ParseError):
        parse_program("f.m ; ; !")
    with pytest.raises(ParseError):
        parse_program("")


def test_reserved_focus_rejected():
    # `set` as a focus would collide with the register-set form.
    with pytest.raises(ValueError):
        BasicInstruction("set", "m")
    with pytest.raises(ParseError):
        parse_program("set.m ; !")


def test_set_and_i_prefixes_never_lex_as_foci():
    p = parse_program("set:2:7 ; i#1 ; i\\#2 ; !")
    assert p.instructions[:3] == (RegSet(2, 7), IndFwdJump(1), IndBwdJump(2))


def test_constructor_bounds():
    with pytest.raises(ValueError):
        RegSet(0, 1)
    with pytest.raises(ValueError):
        RegSet(1, 0)
    with pytest.raises(ValueError):
        IndFwdJump(0)
    with pytest.raises(ValueError):
        FwdJump(-1)
    with pytest.raises(ValueError):
        BasicInstruction("F", "m")  # focus is lower-case


def test_program_positions_are_one_based():
    p = parse_program("f.m ; set:3:1")
    assert p.instructions == (Plain(BasicInstruction("f", "m")), RegSet(3, 1))
    assert [d.position for d in validate(p, ToolParams(maxr=1))] == [2]
    with pytest.raises(ValueError):
        Program(())


def test_validate_in_bounds():
    p = parse_program("set:1:3 ; !")
    assert validate(p, ToolParams(maxr=1, maxn=3)) == []


def test_validate_register_index_violation():
    p = parse_program("set:2:1 ; !")
    diags = validate(p, ToolParams(maxr=1, maxn=3))
    assert len(diags) == 1
    assert diags[0].position == 1
    assert "maxr" in diags[0].message


def test_validate_indirect_register_violation():
    p = parse_program("i#3 ; !")
    diags = validate(p, ToolParams(maxr=2, maxn=3))
    assert [d.position for d in diags] == [1]


def test_validate_literal_violation():
    p = parse_program("f.m ; set:1:9 ; !")
    diags = validate(p, ToolParams(maxr=1, maxn=3))
    assert [d.position for d in diags] == [2]
    assert "maxn" in diags[0].message


def test_validate_ignores_jump_targets():
    # Out-of-range jumps are legal programs that deadlock at run time.
    p = parse_program("#9 ; \\#9 ; !")
    assert validate(p, ToolParams()) == []


@pytest.mark.parametrize("text", ["bool1.foo ; !", "+bool1.foo ; !", "-bool1.foo ; !"])
def test_validate_refuses_unknown_methods_on_bound_cells(text):
    diags = validate(parse_program(text), ToolParams())
    assert list(map(str, diags)) == ["position 1: unknown method foo on Boolean cell bool1"]


def test_validate_accepts_any_method_on_unbound_foci():
    p = parse_program("f.foo ; bool1.set:T ; +bool1.get ; -bool1.set:F ; !")
    assert validate(p, ToolParams()) == []
    assert validate(parse_program("bool1.foo ; !"), ToolParams(cell_foci=frozenset())) == []
    assert validate(parse_program("f.foo ; !"), ToolParams(cell_foci=frozenset({"f"}))) != []


def test_is_pglb():
    assert is_pglb(parse_program("f.m ; +f.m ; #2 ; \\#1 ; !"))
    assert not is_pglb(parse_program("set:1:1 ; !"))
    assert not is_pglb(parse_program("i#1 ; !"))
    assert not is_pglb(parse_program("i\\#1 ; !"))


def test_aux_spec_patterns():
    aux = AuxSpec.parse("x.*, aux1.m")
    assert aux(BasicInstruction("x", "m"))
    assert aux(BasicInstruction("x", "anything"))
    assert aux(BasicInstruction("aux1", "m"))
    assert not aux(BasicInstruction("aux1", "n"))
    assert not aux(BasicInstruction("f", "m"))
    assert AuxSpec.parse(aux.render()) == aux
    assert AuxSpec.parse("") == AuxSpec()
    with pytest.raises(ValueError):
        AuxSpec.parse("nodot")


def test_aux_spec_union_and_of_foci():
    a = AuxSpec.parse("x.*")
    b = AuxSpec.of_foci({"y"})
    u = a.union(b)
    assert u(BasicInstruction("y", "whatever"))
    assert u(BasicInstruction("x", "m"))


def test_tool_params_bounds():
    with pytest.raises(ValueError):
        ToolParams(maxr=0)
    with pytest.raises(ValueError):
        ToolParams(maxn=0)


def test_diagnostic_str():
    assert str(Diagnostic(3, "boom")) == "position 3: boom"


# --- property: render/parse is the identity on instruction sequences ---

_basics = st.builds(
    BasicInstruction,
    focus=st.from_regex(r"[a-rt-z][a-z0-9]{0,3}", fullmatch=True),
    method=st.from_regex(r"[a-zA-Z][a-zA-Z0-9]{0,3}(:[a-zA-Z0-9]{1,2}){0,2}", fullmatch=True),
)

_instructions = st.one_of(
    st.builds(Plain, _basics),
    st.builds(PosTest, _basics),
    st.builds(NegTest, _basics),
    st.builds(FwdJump, st.integers(0, 50)),
    st.builds(BwdJump, st.integers(0, 50)),
    st.builds(RegSet, st.integers(1, 9), st.integers(1, 40)),
    st.builds(IndFwdJump, st.integers(1, 9)),
    st.builds(IndBwdJump, st.integers(1, 9)),
    st.just(Halt()),
)


@given(st.lists(_instructions, min_size=1, max_size=30))
def test_render_parse_round_trip(instrs):
    p = Program(tuple(instrs))
    assert parse_program(render_program(p)) == p


@given(st.lists(_instructions, min_size=1, max_size=10))
def test_render_instruction_agrees_with_program_render(instrs):
    p = Program(tuple(instrs))
    assert render_program(p) == " ; ".join(render_instruction(u) for u in instrs)


@given(st.lists(_instructions, min_size=1, max_size=6), st.lists(st.integers(0, 5), max_size=40))
def test_program_render_with_shared_instruction_objects(pool, picks):
    # Positions share objects, as parsed and projected programs do.
    instrs = pool + [pool[i % len(pool)] for i in picks]
    p = Program(tuple(instrs))
    assert render_program(p) == " ; ".join(map(render_instruction, instrs))


def test_tool_params_cap_the_step_limit():
    from pglblab.isa import MAX_STEP_LIMIT

    assert ToolParams().step_limit == MAX_STEP_LIMIT == 1_000_000
    assert ToolParams(step_limit=MAX_STEP_LIMIT).step_limit == MAX_STEP_LIMIT
    with pytest.raises(ValueError, match="exceeds 1000000"):
        ToolParams(step_limit=MAX_STEP_LIMIT + 1)


# --- direct jumps: built in place, as their regular expression would ---


#: The grammar's direct jumps, as `cmdbench/refsem.py` writes them.
_DIRECT_JUMP = re.compile(r"(\\?)#(\d+)")


def regex_parse(text: str) -> Program:
    """`parse_program` one chunk at a time, each direct jump matched by
    `_DIRECT_JUMP` and built by its constructor."""
    stripped = isa._strip_comments(text)
    chunks = stripped.split(";")
    out = []
    for index, chunk in enumerate(chunks):
        body = chunk.strip()
        try:
            m = _DIRECT_JUMP.fullmatch(body)
            if m is None:
                out.append(isa._parse_instruction(body))
            else:
                out.append((BwdJump if m[1] else FwdJump)(int(m[2])))
        except ValueError as exc:
            raise isa._located(str(exc), stripped, chunks, index) from None
    return Program(tuple(out))


def parse_outcome(parse, text):
    try:
        p = parse(text)
    except ParseError as e:
        return ("refused", e.line, e.column, str(e))
    return [(type(u), u) for u in p.instructions]


#: Texts at the edge of the jump grammar: Unicode decimal digits (Arabic-
#: Indic three, fullwidth twelve), a superscript two, which `\d` refuses,
#: no digits, a sign, an underscore, and leading zeros.
_JUMP_EDGES = ("#٣", "#１２", "#²", "#", "\\#", "#+1", "#1_0", "#0012", "\\#٣", "\\#²",
               "\\#+1", "\\#1_0", "\\#0012", "#-1", "\\", "\\ #1", "# 1", "##1", "\\#\\#1")


def test_jump_edges_parse_as_the_regular_expression_does():
    for body in _JUMP_EDGES:
        for around in ("{} ; !", "f.m ;\n  {}\n; !", "f.m ; \t{}  ", "{}"):
            text = around.format(body)
            assert parse_outcome(parse_program, text) == parse_outcome(regex_parse, text), text


def test_generated_jumps_parse_as_the_regular_expression_does():
    rng = random.Random(29)
    digits = ("0", "7", "٣", "１")
    pieces = digits * 6 + ("#", "\\#", "\\", "i#", "²", "+", "_", " ", "\n", "x", "!")
    outcomes = set()
    for _ in range(600):
        bodies = [
            rng.choice(("#", "\\#", "")) + "".join(rng.choices(pieces, k=rng.randint(0, 4)))
            for _ in range(rng.randint(1, 4))
        ]
        text = " ; ".join(bodies) + rng.choice(("", " ; !", "\n"))
        got = parse_outcome(parse_program, text)
        assert got == parse_outcome(regex_parse, text), text
        outcomes |= {got[0]} if isinstance(got, tuple) else {kind for kind, _ in got}
    assert outcomes >= {"refused", FwdJump, BwdJump, Halt}


def test_a_jump_over_the_int_digit_limit_is_a_located_parse_error():
    text = "f.m ;\n #" + "9" * 5000 + " ; !"
    for body in ("#", "\\#"):
        got = parse_outcome(parse_program, text.replace("#", body))
        assert got == parse_outcome(regex_parse, text.replace("#", body))
        assert got[:3] == ("refused", 2, 2)


def test_each_distinct_jump_text_is_one_object():
    p = parse_program("#3 ; \\#3 ;#3\n; #3 // note\n; \\#3 ; #03 ; \\#3")
    first, back, *rest = p.instructions
    assert [u is first for u in rest] == [True, True, False, False, False]
    assert rest[3] == first and rest[2] is back is rest[4]
    assert (first, back) == (FwdJump(3), BwdJump(3)) and hash(first) == hash(FwdJump(3))
    assert repr(back) == "BwdJump(distance=3)"
    with pytest.raises(AttributeError):
        first.distance = 4
    for kind in (FwdJump, BwdJump):
        with pytest.raises(ValueError):
            kind(-1)

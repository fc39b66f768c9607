"""Random command lines through `cli.main`: every one ends in a result or
a typed diagnostic, never a traceback.

Limits stay small so no example asks for much time or memory: state
limits up to 10^4, step limits up to 10^3, `check --depth` up to 4,
family members up to k=3, random programs up to 50 instructions and
`bench --kmax` up to 2.  The commands that write files draw where they
write: the work directory, an existing file, a missing directory and, when
permissions bind (not as root), a read-only directory.  Explicit examples
run one input per kind of refusal on every run, `bench --kmax` out of
range and each kind of unwritable path among them.  A negative value of
each flag that sets a step or state limit must be refused in one line.
"""
import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pglblab.cli import main

TOKENS = (
    "!", "f.m", "+f.m", "-g.n", "x.m", "+bool1.get", "-bool1.get", "bool1.set:T",
    "bool1.foo", "#0", "#1", "#3", "\\#1", "\\#2", "set:1:1", "set:2:3", "i#1", "i\\#2",
)
#: Malformed tokens and literals far above any maxn.
FAULTS = ("set:1:99999999999999999999", "#", "f.", "set:0:1", "// note\n", "")

#: Mostly well-formed programs, so that commands get past the parser.
program_text = st.sampled_from([TOKENS] * 4 + [TOKENS + FAULTS, None]).flatmap(
    lambda tokens: st.text(max_size=16) if tokens is None
    else st.lists(st.sampled_from(tokens), min_size=1, max_size=10).map(" ; ".join)
)


def flag(name, values):
    """No flag, or the flag with a drawn value (a third of the time)."""
    return st.one_of(st.just([]), st.just([]), values.map(lambda v: [name, str(v)]))


param_flags = st.tuples(
    st.sampled_from([10_000, 10_000, 10_000, 0, 2, 4, 8]).map(lambda v: ["--state-limit", str(v)]),
    st.one_of(st.just(1_000), st.integers(-1, 50)).map(lambda v: ["--step-limit", str(v)]),
    flag("--maxr", st.integers(0, 3)),
    flag("--maxn", st.integers(0, 5)),
    flag("--aux", st.sampled_from(["f.*", "x.m,g.*", "bool1.*", "", "bad"])),
    flag("--cells", st.sampled_from(["", "f", "bool1"])),
    flag("--cell-init", st.sampled_from(["true", "false", "maybe"])),
).map(lambda parts: [arg for part in parts for arg in part])


#: Where a command writes.  Root writes into a read-only directory, so the
#: read-only draw needs another user.
PLACES = ["{dir}", "{dir}/p.pglb", "{dir}/nodir"] + (["{dir}/ro"] if os.geteuid() else [])


def out_flag(name, place):
    """No --out (stdout), or --out to a file `name` in the drawn place."""
    return st.sampled_from([[], ["--out", f"{place}/{name}"]])


@st.composite
def command_lines(draw):
    """(argv, {file name: text}) for one command."""
    files = {"p.pglb": draw(program_text), "q.pglb": draw(program_text)}
    command = draw(
        st.sampled_from(["run", "mid", "project", "check", "family", "random", "bench"])
    )
    place = draw(st.sampled_from(PLACES))
    if command == "family":
        argv = ["gen", "family", "--k", str(draw(st.integers(-1, 3)))]
        return argv + draw(out_flag("x.pglb", place)), files
    if command == "random":
        argv = ["gen", "random", "--seed", str(draw(st.integers(-5, 5)))]
        argv += ["--len", str(draw(st.integers(-1, 50)))]
        argv += draw(flag("--maxr", st.integers(0, 3))) + draw(flag("--maxn", st.integers(0, 5)))
        return argv + draw(out_flag("x.pglb", place)), files
    if command == "bench":
        argv = ["bench", "--kmax", str(draw(st.integers(1, 2)))]
        argv += draw(st.sampled_from([[], ["--md"], ["--json"]]))
        return argv + draw(out_flag("b.csv", place)), files
    argv = [command, "{dir}/p.pglb"] + draw(param_flags)
    if command == "run":
        argv += draw(flag("--steps", st.integers(-1, 1_000)))
        oracle = draw(st.sampled_from([None, "7", "{dir}/oracle.txt", "{dir}/missing.txt"]))
        if oracle is not None:
            files["oracle.txt"] = draw(st.sampled_from(["T\nF\nT\n", "", "X\n"]))
            argv += ["--oracle", oracle]
    elif command == "project":
        argv += ["--mode", draw(st.sampled_from(["specialize", "dispatch"])), "--out-dir", place]
        argv += draw(st.sampled_from([[], ["--thread"]]))
    elif command == "check":
        argv += ["{dir}/q.pglb", "--depth", str(draw(st.integers(0, 4)))]
    return argv, files


def refusal_case(text, *argv):
    """`argv` on p.pglb holding `text`."""
    return [argv[0], "{dir}/p.pglb", *argv[1:]], {"p.pglb": text, "q.pglb": "!"}


def refusal(text, *argv):
    """An explicit example: `argv` on p.pglb holding `text`."""
    return example(case=refusal_case(text, *argv))


def run_case(case):
    """(exit code, stdout, stderr, work directory) of one (argv, files) case
    run in a fresh work directory, which is removed afterwards."""
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, text in files.items():
            (directory / name).write_text(text)
        (directory / "ro").mkdir(mode=0o555)
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code
    return code, out.getvalue(), err.getvalue(), directory


#: A negative step or state limit, by each flag that sets one.
NEGATIVE_LIMITS = [
    ("run", "--steps", "-5"),
    ("run", "--step-limit", "-3"),
    ("mid", "--state-limit", "-1"),
    ("project", "--mode", "dispatch", "--out-dir", "{dir}", "--state-limit", "-1"),
]


@settings(max_examples=200, deadline=None)
@given(command_lines())
@refusal("f.m ;; !", "mid")
@refusal("set:1000000:1 ; !", "mid")
@refusal("set:2:1 ; !", "run", "--maxr", "1")
@refusal("set:2:1 ; !", "check", "{dir}/q.pglb", "--maxr", "1", "--depth", "2")
@refusal("+f.m ; !", "run", "--steps", "10")
@refusal("bool1.foo ; !", "run", "--steps", "10")
@refusal("bool1.foo ; !", "check", "{dir}/q.pglb", "--depth", "2", "--step-limit", "10")
@refusal("f.m ; f.m ; !", "mid", "--state-limit", "1")
@refusal("f.m ; f.m ; !", "project", "--mode", "specialize", "--out-dir", "{dir}", "--state-limit", "1")
@refusal("set:1:99999999999999999999 ; i#1", "project", "--mode", "dispatch", "--out-dir", "{dir}")
@refusal("bool1.foo ; !", "mid")
@refusal("f.m ; !", "mid", "--aux", "bad")
@example(case=(["run", "{dir}/p.pglb", "--oracle", "{dir}/oracle.txt"], {"p.pglb": "+f.m ; !", "oracle.txt": "X\n"}))
@example(case=(["gen", "family", "--k", "40"], {}))
@example(case=(["gen", "random", "--seed", "1", "--len", "0"], {}))
@example(case=(["bench", "--kmax", "9"], {}))
@refusal("!", "project", "--mode", "dispatch", "--out-dir", "{dir}/p.pglb")
@example(case=(["gen", "family", "--k", "1", "--out", "{dir}/nodir/x.pglb"], {}))
@example(case=(["bench", "--kmax", "1", "--md", "--out", "{dir}/nodir/b.csv"], {}))
def test_random_command_lines_end_in_a_result_or_a_diagnostic(case):
    code, _, err, directory = run_case(case)
    argv, files = case
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        prefixes = ("pglblab: ",) + tuple(f"{directory / name}: position " for name in files)
        for line in err.splitlines():
            assert line.startswith(prefixes), (argv, line)


@pytest.mark.parametrize("argv", NEGATIVE_LIMITS, ids=lambda argv: argv[0] + argv[-2])
def test_a_negative_limit_is_refused_in_one_line(argv):
    code, out, err, _ = run_case(refusal_case("f.m ; !", *argv))
    assert (code, out) == (1, "")
    assert err == "pglblab: step and state limits must be >= 0\n"

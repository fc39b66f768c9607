import io
import os
import sys

import pytest

from pglblab.bench import CSV_HEADER
from pglblab.cli import COMMAND_PARAMS, PARAMS, build_parser, derive_bounds, main, parse_config
from pglblab.family import gen_scaling_family
from pglblab.isa import parse_program, render_program
from pglblab.projector import dispatch_project, thread_jumps


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_family_then_mid(tmp_path, capsys):
    out = tmp_path / "p1.pglb"
    code, stdout, _ = invoke(capsys, "gen", "family", "--k", "1", "--out", str(out))
    assert code == 0
    assert out.exists() and out.with_suffix(".cfg").exists()
    assert "maxn = 5" in out.with_suffix(".cfg").read_text()

    code, stdout, _ = invoke(capsys, "mid", str(out))
    assert code == 0
    assert "MID = 4" in stdout
    assert "witness = " in stdout
    assert "nodes = 51" in stdout


def test_mid_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("f.m ; ! ; !"))
    code, stdout, _ = invoke(capsys, "mid", "-")
    assert code == 0
    assert "MID = 0" in stdout


def test_mid_unbounded_with_aux(tmp_path, capsys):
    f = tmp_path / "loop.pglb"
    f.write_text("f.m ; +x.get ; \\#1 ; !\n")
    code, stdout, _ = invoke(capsys, "mid", str(f), "--aux", "x.*")
    assert code == 0
    assert "MID = unbounded" in stdout
    assert "cycle = 2 3" in stdout


def test_run_with_script_oracle(tmp_path, capsys):
    prog = tmp_path / "p.pglb"
    prog.write_text("+f.m ; ! ; g.n ; !\n")
    script = tmp_path / "replies.txt"
    script.write_text("F\n")
    code, stdout, _ = invoke(capsys, "run", str(prog), "--oracle", str(script))
    assert code == 0
    assert stdout == "1 +f.m reply=F\n3 g.n reply=T\n4 !\nstatus=Terminated\n"


def test_run_exhausted_oracle(tmp_path, capsys):
    prog = tmp_path / "p.pglb"
    prog.write_text("+f.m ; ! ; !\n")
    code, _, stderr = invoke(capsys, "run", str(prog))
    assert code == 1
    assert "oracle exhausted" in stderr


def test_run_steps_flag_cuts(tmp_path, capsys):
    prog = tmp_path / "spin.pglb"
    prog.write_text("#1 ; \\#1\n")
    code, stdout, _ = invoke(capsys, "run", str(prog), "--steps", "5")
    assert code == 0
    assert stdout.endswith("status=StepLimit\n")


@pytest.mark.parametrize("oracle", [[], ["--oracle", "3"]])
def test_run_zero_steps_prints_only_the_status(tmp_path, capsys, oracle):
    prog = tmp_path / "p.pglb"
    prog.write_text("+f.m ; ! ; !\n")
    code, stdout, stderr = invoke(capsys, "run", str(prog), "--steps", "0", *oracle)
    assert (code, stdout, stderr) == (0, "status=StepLimit\n", "")


def test_project_writes_artifacts_and_checks_equivalent(tmp_path, capsys):
    src = tmp_path / "p1.pglb"
    invoke(capsys, "gen", "family", "--k", "1", "--out", str(src))

    code, stdout, _ = invoke(
        capsys, "project", str(src), "--mode", "dispatch", "--out-dir", str(tmp_path)
    )
    assert code == 0
    produced = {
        tmp_path / "p1.dispatch.pglb",
        tmp_path / "p1.dispatch.map.csv",
        tmp_path / "p1.dispatch.report.txt",
        tmp_path / "p1.dispatch.cfg",
    }
    assert all(f.exists() for f in produced)
    assert (tmp_path / "p1.dispatch.map.csv").read_text().startswith("old_key,new_start,new_len\n")
    cfg = (tmp_path / "p1.dispatch.cfg").read_text()
    assert "cells = " in cfg and "r1b0" in cfg
    report = (tmp_path / "p1.dispatch.report.txt").read_text()
    assert "mode=dispatch" in report and "lengthBefore=28" in report

    code, stdout, _ = invoke(capsys, "check", str(src), str(tmp_path / "p1.dispatch.pglb"))
    assert code == 0
    assert stdout.startswith("equivalent (checked=")


def test_project_thread_reports_threaded_mid(tmp_path, capsys):
    src = tmp_path / "p1.pglb"
    invoke(capsys, "gen", "family", "--k", "1", "--out", str(src))
    code, _, _ = invoke(
        capsys, "project", str(src), "--mode", "specialize", "--thread",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    report = (tmp_path / "p1.specialize.report.txt").read_text()
    assert "threaded=1" in report
    assert "midAfterThreaded=1" in report


def test_project_dispatch_thread_writes_the_threaded_output(tmp_path, capsys):
    src = tmp_path / "p2.pglb"
    invoke(capsys, "gen", "family", "--k", "2", "--out", str(src))
    code, _, _ = invoke(
        capsys, "project", str(src), "--mode", "dispatch", "--thread", "--out-dir", str(tmp_path),
    )
    assert code == 0
    output = dispatch_project(*gen_scaling_family(2)).output
    threaded = thread_jumps(output)
    assert threaded != output
    assert (tmp_path / "p2.dispatch.pglb").read_text() == render_program(threaded) + "\n"
    assert "threaded=1" in (tmp_path / "p2.dispatch.report.txt").read_text()


def test_check_finds_counterexample(tmp_path, capsys):
    p = tmp_path / "p.pglb"
    q = tmp_path / "q.pglb"
    p.write_text("f.m ; !\n")
    q.write_text("f.m ; #0\n")
    code, stdout, _ = invoke(capsys, "check", str(p), str(q))
    assert code == 1
    assert "counterexample oracle=" in stdout
    assert "status=Terminated" in stdout and "status=Deadlocked" in stdout


@pytest.mark.parametrize(
    "p_text, q_text, config, expected",
    [
        # The sampler printed `equivalent (checked=6, inconclusive=6)`:
        # its runs of the silent loop were cut at the step budget.
        ("f.m ; !", "f.m ; #1 ; \\#1", None, (
            "counterexample oracle=\n"
            "p: f.m=T status=Terminated\n"
            "q: f.m=T status=Diverges\n"
            "checked=2\n"
        )),
        # The sampler's runs were cut at one step, so it saw no stop.
        ("f.m ; g.m ; !", "f.m ; g.m ; #0", "stepLimit = 1\n", (
            "counterexample oracle=\n"
            "p: f.m=T g.m=T status=Terminated\n"
            "q: f.m=T g.m=T status=Deadlocked\n"
            "checked=3\n"
        )),
        # A False reply skips to p's halt and to q's next request.
        ("+f.m ; g.m ; !", "+f.m ; ! ; g.m", None, (
            "counterexample oracle=F\n"
            "p: f.m=F status=Terminated\n"
            "q: f.m=F status=Running\n"
            "checked=3\n"
        )),
    ],
    ids=["diverges", "step-limit", "replies"],
)
def test_check_prints_a_counterexample_that_no_step_limit_hides(
    p_text, q_text, config, expected, tmp_path, capsys
):
    p = tmp_path / "p.pglb"
    q = tmp_path / "q.pglb"
    p.write_text(p_text + "\n")
    q.write_text(q_text + "\n")
    flags = []
    if config:
        cfg = tmp_path / "check.cfg"
        cfg.write_text(config)
        flags = ["--config", str(cfg)]
    assert invoke(capsys, "check", str(p), str(q), *flags) == (1, expected, "")


def test_check_refuses_an_aux_test_on_an_unbound_focus(tmp_path, capsys):
    # The test would read a reply that no trace shows: a diagnostic of the
    # program that holds it, before any state is explored.
    p = tmp_path / "p.pglb"
    q = tmp_path / "q.pglb"
    p.write_text("f.m ; !\n")
    q.write_text("f.m ; +x.get ; \\#1 ; !\n")
    assert invoke(capsys, "check", str(p), str(q), "--aux", "x.*") == (1, "", (
        f"{q}: position 2: aux-marked test +x.get reads a reply that no trace shows\n"
        "pglblab: 1 diagnostic(s)\n"
    ))


@pytest.mark.parametrize(
    "limit, message",
    [("1", "closure exceeds the state limit of 1 states"),
     ("5", "check product exceeds the state limit of 5 pairs")],
)
def test_check_refuses_more_states_than_the_state_limit(limit, message, tmp_path, capsys):
    # Closures of 3 and 4 states, 6 pairs.
    p = tmp_path / "p.pglb"
    q = tmp_path / "q.pglb"
    p.write_text("f.m ; f.m ; \\#2\n")
    q.write_text("f.m ; f.m ; f.m ; \\#3\n")
    assert invoke(capsys, "check", str(p), str(q), "--state-limit", limit) == (
        1, "", f"pglblab: {message}\n"
    )


def test_explicit_maxr_triggers_diagnostics(tmp_path, capsys):
    prog = tmp_path / "p.pglb"
    prog.write_text("set:2:1 ; !\n")
    code, _, stderr = invoke(capsys, "mid", str(prog), "--maxr", "1")
    assert code == 1
    assert "maxr" in stderr

    # without the flag the bound is derived from the program
    code, stdout, _ = invoke(capsys, "mid", str(prog))
    assert code == 0


def test_sidecar_config_is_picked_up(tmp_path, capsys):
    prog = tmp_path / "loop.pglb"
    prog.write_text("f.m ; +x.get ; \\#1 ; !\n")
    prog.with_suffix(".cfg").write_text("aux = x.*\n")
    code, stdout, _ = invoke(capsys, "mid", str(prog))
    assert code == 0
    assert "MID = unbounded" in stdout


def test_env_config_and_flag_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("stepLimit = 3\n")
    monkeypatch.setenv("PGLBLAB_CONFIG", str(cfg))
    prog = tmp_path / "spin.pglb"
    prog.write_text("#1 ; \\#1\n")

    code, stdout, _ = invoke(capsys, "run", str(prog))
    assert stdout.endswith("status=StepLimit\n")
    # a flag outranks the environment config
    code, stdout, _ = invoke(capsys, "run", str(prog), "--steps", "1000000")
    assert stdout.endswith("status=StepLimit\n")  # still loops forever, just later
    monkeypatch.delenv("PGLBLAB_CONFIG")


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    prog = tmp_path / "p.pglb"
    prog.write_text("!\n")
    code, _, stderr = invoke(capsys, "mid", str(prog), "--config", str(cfg))
    assert code == 1
    assert "unknown config key" in stderr


def test_parse_config_shapes():
    pairs = parse_config("# hi\nmaxr = 3\n\ncells = a, b\n")
    assert pairs == {"maxr": "3", "cells": "a, b"}
    from pglblab.cli import CLIError

    with pytest.raises(CLIError):
        parse_config("no equals sign")


def test_derive_bounds_from_programs():
    p = parse_program("set:3:9 ; i#5 ; !")
    assert derive_bounds([p]) == (5, 9)
    assert derive_bounds([parse_program("!")]) == (1, 1)
    assert derive_bounds([parse_program("i\\#7 ; !")]) == (7, 1)
    # As `check` calls it: the bounds over both programs.
    assert derive_bounds([parse_program("set:1:4 ; !"), parse_program("f.m ; i#3")]) == (3, 4)


def test_parse_error_reported(tmp_path, capsys):
    prog = tmp_path / "bad.pglb"
    prog.write_text("f.m ;; !\n")
    code, _, stderr = invoke(capsys, "run", str(prog))
    assert code == 1
    assert stderr == f"pglblab: {prog}:1:6: empty instruction\n"


@pytest.mark.parametrize("bad_side", ["p", "q"])
def test_check_names_the_input_that_does_not_parse(bad_side, tmp_path, capsys):
    bad = tmp_path / "bad.pglb"
    bad.write_text("f.m ; zz ; !\n")
    good = tmp_path / "good.pglb"
    good.write_text("f.m ; !\n")
    pair = (bad, good) if bad_side == "p" else (good, bad)
    code, stdout, stderr = invoke(capsys, "check", *map(str, pair))
    assert (code, stdout) == (1, "")
    assert stderr == f"pglblab: {bad}:1:7: unrecognized instruction 'zz'\n"


def test_a_parse_error_on_stdin_names_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("f.m ; zz"))
    code, _, stderr = invoke(capsys, "mid", "-")
    assert code == 1
    assert stderr == "pglblab: <stdin>:1:7: unrecognized instruction 'zz'\n"


def test_check_refuses_stdin_on_both_sides(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("f.m ; !"))
    code, stdout, stderr = invoke(capsys, "check", "-", "-")
    assert (code, stdout) == (1, "")
    assert stderr == "pglblab: check reads stdin once: give at most one program as -\n"


@pytest.mark.parametrize(
    "argv, target",
    [
        (("project", "{dir}/p.pglb", "--mode", "dispatch", "--out-dir", "{dir}/afile"), "afile"),
        (("gen", "family", "--k", "1", "--out", "{dir}/nodir/x.pglb"), "x.pglb"),
        (("bench", "--kmax", "1", "--out", "{dir}/nodir/b.csv"), "b.csv"),
    ],
)
def test_unwritable_output_is_one_line_diagnostic(argv, target, tmp_path, capsys):
    (tmp_path / "p.pglb").write_text("f.m ; !\n")
    (tmp_path / "afile").write_text("")
    code, _, stderr = invoke(capsys, *(arg.replace("{dir}", str(tmp_path)) for arg in argv))
    assert code == 1
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("pglblab: cannot ") and target in stderr


def test_project_writes_all_files_or_none(tmp_path, capsys):
    prog, out = tmp_path / "p.pglb", tmp_path / "out"
    prog.write_text("set:1:2 ; i#1 ; +f.m ; !\n")
    argv = ("project", str(prog), "--mode", "dispatch", "--out-dir", str(out))
    assert invoke(capsys, *argv)[0] == 0
    kept = {path.name: path.read_bytes() for path in out.iterdir()}
    # A second run of another program meets a directory in the way.
    prog.write_text("+f.m ; g.n ; !\n")
    (out / "p.dispatch.map.csv").unlink()
    (out / "p.dispatch.map.csv").mkdir()
    code, stdout, stderr = invoke(capsys, *argv, "--thread")
    assert code == 1 and stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("pglblab: cannot write ")
    assert sorted(path.name for path in out.iterdir()) == sorted(kept)
    del kept["p.dispatch.map.csv"]
    assert {name: (out / name).read_bytes() for name in kept} == kept


def test_gen_writes_neither_file_when_the_sidecar_is_a_directory(tmp_path, capsys):
    (tmp_path / "x.cfg").mkdir()
    argv = ("gen", "family", "--k", "1", "--out", str(tmp_path / "x.pglb"))
    code, stdout, stderr = invoke(capsys, *argv)
    assert code == 1 and stdout == ""
    assert stderr.startswith("pglblab: cannot write ") and "x.cfg" in stderr
    assert [path.name for path in tmp_path.iterdir()] == ["x.cfg"]


@pytest.mark.parametrize(
    "gen", [["family", "--k", "1"], ["random", "--seed", "1", "--len", "5"]]
)
def test_gen_refuses_an_out_that_is_its_own_sidecar(gen, tmp_path, capsys):
    target = tmp_path / "x.cfg"
    code, stdout, stderr = invoke(capsys, "gen", *gen, "--out", str(target))
    assert code == 1
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("pglblab: cannot write ") and str(target) in stderr
    assert not target.exists()


@pytest.mark.parametrize("out", ["b.md", "./b.md"])
def test_bench_refuses_an_out_that_is_its_own_md_mirror(out, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = invoke(capsys, "bench", "--kmax", "1", "--out", out, "--md")
    assert (code, stdout) == (1, "")
    assert stderr == f"pglblab: cannot write {out}: it is the path of its own --md mirror\n"
    assert list(tmp_path.iterdir()) == []


def test_rewriting_with_shorter_text_leaves_exactly_the_new_bytes(tmp_path, capsys):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.mkdir()
    fresh.mkdir()
    assert invoke(capsys, "gen", "family", "--k", "3", "--out", str(reused / "x.pglb"))[0] == 0
    longer = (reused / "x.pglb").read_bytes()
    for out in (reused, fresh):
        assert invoke(capsys, "gen", "family", "--k", "1", "--out", str(out / "x.pglb"))[0] == 0
    shorter = (fresh / "x.pglb").read_bytes()
    assert len(shorter) < len(longer)
    for name in ("x.pglb", "x.cfg"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads any file")
def test_an_existing_output_without_read_permission_is_rewritten(tmp_path, capsys):
    target = tmp_path / "x.pglb"
    target.write_text("stale text that is longer than the new program\n" * 40)
    target.chmod(0o200)
    try:
        with pytest.raises(PermissionError):
            target.read_text()
        assert invoke(capsys, "gen", "family", "--k", "1", "--out", str(target))[0] == 0
        target.chmod(0o600)
        p, _ = gen_scaling_family(1)
        assert target.read_text() == render_program(p) + "\n"
    finally:
        target.chmod(0o600)


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["project", "whatever"])  # --mode is required
    assert exc.value.code == 2


def test_bench_kmax_one_stdout(tmp_path, capsys, monkeypatch):
    code, stdout, _ = invoke(capsys, "bench", "--kmax", "1")
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0].startswith("k,lengthOriginal,")
    assert len(lines) == 2 and lines[1].startswith("1,28,4,")
    # With --out, the CSV's path prints as typed and the mirror's through Path.
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = invoke(capsys, "bench", "--kmax", "1", "--out", "./c.csv", "--md")
    assert (code, stdout) == (0, "wrote ./c.csv\nwrote c.md\n")
    assert (tmp_path / "c.csv").read_text().startswith(lines[0] + "\n1,28,4,")
    assert (tmp_path / "c.md").read_text().startswith("| k | lengthOriginal |")


@pytest.mark.parametrize("flag", ["--maxr", "--maxn", "--cells", "--step-limit"])
def test_bench_refuses_flags_the_family_fixes(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--kmax", "1", flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_bench_ignores_register_bounds_from_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("maxr = 1\nmaxn = 1\ncells = zz\n")
    monkeypatch.setenv("PGLBLAB_CONFIG", str(cfg))
    code, stdout, _ = invoke(capsys, "bench", "--kmax", "1")
    assert code == 0
    assert stdout.split("\n")[1].startswith("1,28,4,")


def test_bench_flags_a_row_past_the_state_limit_and_prints_the_rest(capsys):
    # k=1 has 51 states but a 70-instruction dispatch output; k=2 has 181 states.
    code, stdout, stderr = invoke(capsys, "bench", "--kmax", "2", "--state-limit", "60")
    header, *rows = stdout.splitlines()
    assert (code, stderr, header) == (1, "", CSV_HEADER)
    assert [row.split(",")[:8] for row in rows] == [
        ["1", "28", "-1", "-1", "-1", "-1", "-1", "-1"],
        ["2", "52", "-1", "-1", "-1", "-1", "-1", "-1"],
    ]
    assert all(row.endswith(",1") for row in rows)


#: Each command's parameter flags and --config, as the README lists them.
COMMAND_FLAGS = {
    "run": ["--maxr", "--maxn", "--cells", "--cell-init", "--steps", "--config"],
    "mid": ["--maxr", "--maxn", "--aux", "--cells", "--state-limit", "--config"],
    "project": ["--maxr", "--maxn", "--aux", "--cells", "--state-limit", "--config"],
    "check": ["--maxr", "--maxn", "--aux", "--cells", "--cell-init", "--state-limit", "--config"],
    "bench": ["--aux", "--cell-init", "--state-limit", "--config"],
}


def test_each_command_takes_the_parameter_flags_of_its_table_row():
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    param_flags = {flag for _, flag, _, _ in PARAMS.values()} | {"--config"}
    for command, flags in COMMAND_FLAGS.items():
        taken = [
            flag for action in commands[command]._actions for flag in action.option_strings
            if flag in param_flags
        ]
        row = [PARAMS[key][1] for key in COMMAND_PARAMS[command]]
        assert taken == row + ["--config"] == flags, command


#: The flags commands took without reading them, but bench's: (command
#: line, the flag, a value).
DROPPED = [
    (("run", "{p}"), "--aux", "f.*,bool1.*"),
    (("run", "{p}"), "--state-limit", "1"),
    (("run", "{p}"), "--step-limit", "5"),
    (("mid", "{p}"), "--step-limit", "0"),
    (("mid", "{p}"), "--cell-init", "true"),
    (("project", "{p}", "--mode", "dispatch"), "--step-limit", "0"),
    (("project", "{p}", "--mode", "dispatch"), "--cell-init", "true"),
    (("check", "{p}", "{p}"), "--step-limit", "5"),
]


@pytest.mark.parametrize("argv, flag, value", DROPPED, ids=lambda v: v if isinstance(v, str) else v[0])
def test_a_dropped_flag_is_a_usage_error(argv, flag, value, tmp_path, capsys):
    argv = [arg.replace("{p}", str(tmp_path / "p.pglb")) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.endswith(f"pglblab: error: unrecognized arguments: {flag} {value}\n")
    assert "Traceback" not in err


#: A value of each config key, for the commands that ignore it.
IGNORED_VALUES = {
    "maxr": "1", "maxn": "1", "aux": "f.*,bool1.*", "cells": "", "cellInit": "true",
    "stepLimit": "0", "stateLimit": "1",
}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, keys in COMMAND_PARAMS.items()
    for key in PARAMS if key not in keys
])
def test_a_config_key_a_command_ignores_is_accepted_and_changes_nothing(
    command, key, tmp_path, capsys
):
    p = tmp_path / "p.pglb"
    p.write_text(render_program(gen_scaling_family(1)[0]) + "\n")
    cfg = tmp_path / "ignored.cfg"
    cfg.write_text(f"{key} = {IGNORED_VALUES[key]}\n")
    argv = {
        "run": ["run", str(p), "--oracle", "1", "--steps", "40"],
        "mid": ["mid", str(p)],
        "project": ["project", str(p), "--mode", "dispatch"],
        "check": ["check", str(p), str(p)],
        "bench": ["bench", "--kmax", "1"],
    }[command]

    def outputs(*flags):
        code, stdout, stderr = invoke(capsys, *argv, *flags)
        if command == "bench":  # all but the wall-clock columns
            stdout = [line.split(",")[:8] + line.split(",")[-1:] for line in stdout.splitlines()]
        written = sorted((f.name, f.read_text()) for f in tmp_path.glob("p.dispatch.*"))
        return code, stdout, stderr, written

    assert outputs("--config", str(cfg)) == outputs()


def test_bench_json_holds_the_csv_row_and_the_split_specialize_time(capsys):
    import json

    code, csv_out, _ = invoke(capsys, "bench", "--kmax", "2")
    code, json_out, _ = invoke(capsys, "bench", "--kmax", "2", "--json")
    assert code == 0
    report = json.loads(json_out)
    assert report["kmax"] == 2 and report["cpuCount"] >= 1 and report["peakRssMiB"] > 0
    assert report["python"].count(".") == 2
    columns = csv_out.split("\n")[0].split(",")
    stable = [c for c in columns if not c.endswith("Millis")]
    for line, row in zip(csv_out.strip().split("\n")[1:], report["rows"]):
        assert list(row)[: len(columns)] == columns
        values = dict(zip(columns, line.split(",")))
        assert {c: str(row[c]) for c in stable} == {c: values[c] for c in stable}
        parts = row["specializeEmitMillis"] + row["specializeAnalysisMillis"]
        assert abs(parts - row["specializeMillis"]) < 0.01


def test_bench_json_and_md_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--kmax", "1", "--json", "--md"])
    assert exc.value.code == 2


def test_gen_random_is_reproducible(capsys):
    code, first, _ = invoke(capsys, "gen", "random", "--seed", "7", "--len", "12")
    code, second, _ = invoke(capsys, "gen", "random", "--seed", "7", "--len", "12")
    assert first == second
    assert len(parse_program(first).instructions) == 12


@pytest.mark.parametrize("command", ["run", "check", "mid"])
def test_unknown_cell_method_is_one_line_diagnostic(tmp_path, capsys, command):
    prog = tmp_path / "p.pglb"
    prog.write_text("bool1.foo ; !\n")
    argv = [command, str(prog)] + ([str(prog)] if command == "check" else [])
    code, stdout, stderr = invoke(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert stderr == (
        f"{prog}: position 1: unknown method foo on Boolean cell bool1\n"
        "pglblab: 1 diagnostic(s)\n"
    )


def test_unknown_method_on_an_unbound_focus_is_accepted(tmp_path, capsys):
    prog = tmp_path / "p.pglb"
    prog.write_text("bool1.foo ; !\n")
    code, stdout, _ = invoke(capsys, "mid", str(prog), "--cells", "")
    assert code == 0
    assert stdout.startswith("MID = 0\n")


def test_gen_family_rejects_large_k(capsys):
    code, stdout, stderr = invoke(capsys, "gen", "family", "--k", "40")
    assert code == 1
    assert stdout == ""
    assert stderr == "pglblab: k must be in 1..16\n"


@pytest.mark.parametrize("depth", ["-1", "17", "1000"])
def test_check_depth_out_of_range_is_usage_error(tmp_path, capsys, depth):
    # `check` decides on the whole product and has no --depth: every value
    # is out of range.
    prog = tmp_path / "p.pglb"
    prog.write_text("f.m ; !\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(prog), str(prog), "--depth", depth])
    assert exc.value.code == 2
    assert "unrecognized arguments: --depth" in capsys.readouterr().err


def test_check_finds_a_difference_past_any_reply_depth(tmp_path, capsys):
    # 20 replies deep, past the 16 the sampler's --depth allowed.
    deep = 40 * "+f.m ; "
    p = tmp_path / "p.pglb"
    q = tmp_path / "q.pglb"
    p.write_text(deep + "f.m ; !\n")
    q.write_text(deep + "g.m ; !\n")
    code, stdout, _ = invoke(capsys, "check", str(p), str(q))
    assert code == 1
    assert stdout.startswith(f"counterexample oracle={20 * 'F'}\n")


def test_dispatch_refuses_output_beyond_state_limit(capsys, monkeypatch):
    # maxn = 10^20 needs 67 bits: a 5 * 2^66 - 2 instruction decision tree.
    monkeypatch.setattr("sys.stdin", io.StringIO("set:1:99999999999999999999 ; i#1"))
    code, stdout, stderr = invoke(capsys, "project", "-", "--mode", "dispatch")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("pglblab: dispatch output of ") and "state limit" in stderr
    assert len(stderr.splitlines()) == 1


def test_gen_random_rejects_huge_length(capsys):
    code, stdout, stderr = invoke(capsys, "gen", "random", "--seed", "1", "--len", "100000000000")
    assert code == 1
    assert stdout == ""
    assert stderr == "pglblab: length must be in 1..1000000\n"


def _spin(tmp_path):
    prog = tmp_path / "spin.pglb"
    prog.write_text("#1 ; \\#1\n")
    return prog


def test_run_steps_above_cap_is_refused(tmp_path, capsys):
    code, stdout, stderr = invoke(capsys, "run", str(_spin(tmp_path)), "--steps", "100000000000")
    assert code == 1
    assert stdout == ""
    assert stderr == "pglblab: step limit 100000000000 exceeds 1000000\n"


def test_step_limit_flag_above_cap_is_refused(tmp_path, capsys):
    code, stdout, stderr = invoke(capsys, "run", str(_spin(tmp_path)), "--steps", "1000001")
    assert code == 1
    assert stdout == ""
    assert stderr == "pglblab: step limit 1000001 exceeds 1000000\n"


def test_config_step_limit_above_cap_is_refused(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("stepLimit = 100000000000\n")
    code, stdout, stderr = invoke(capsys, "run", str(_spin(tmp_path)), "--config", str(cfg))
    assert code == 1
    assert stdout == ""
    assert stderr == "pglblab: step limit 100000000000 exceeds 1000000\n"


@pytest.mark.parametrize(
    "command",
    [
        ["mid"],
        ["run"],
        ["check", "{p}"],
        ["project", "--mode", "specialize", "--out-dir", "{dir}"],
        ["project", "--mode", "dispatch", "--out-dir", "{dir}"],
    ],
    ids=lambda command: "-".join(command[:3:2]),
)
def test_maxr_derived_above_cap_is_refused(tmp_path, capsys, command):
    prog = tmp_path / "p.pglb"
    prog.write_text("set:1000000:1 ; !\n")
    argv = [arg.format(p=prog, dir=tmp_path) for arg in [command[0], str(prog), *command[1:]]]
    code, stdout, stderr = invoke(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert stderr == "pglblab: maxr 1000000 exceeds 1000\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["p.pglb"]


def test_maxr_flag_above_cap_is_refused(tmp_path, capsys):
    code, stdout, stderr = invoke(capsys, "mid", str(_spin(tmp_path)), "--maxr", "1001")
    assert code == 1
    assert stdout == ""
    assert stderr == "pglblab: maxr 1001 exceeds 1000\n"


def test_config_maxr_above_cap_is_refused(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("maxr = 1000000\n")
    code, stdout, stderr = invoke(capsys, "mid", str(_spin(tmp_path)), "--config", str(cfg))
    assert code == 1
    assert stdout == ""
    assert stderr == "pglblab: maxr 1000000 exceeds 1000\n"


@pytest.mark.parametrize(
    "bounds", [["--maxr", "0", "--maxn", "0"], ["--maxr", "0"], ["--maxn", "0"]]
)
def test_gen_random_refuses_zero_bounds(capsys, bounds):
    code, stdout, stderr = invoke(capsys, "gen", "random", "--seed", "1", "--len", "5", *bounds)
    assert (code, stdout) == (1, "")
    assert stderr == "pglblab: maxr and maxn must be >= 1\n"


def test_gen_random_maxr_above_cap_is_refused(capsys):
    code, stdout, stderr = invoke(
        capsys, "gen", "random", "--seed", "1", "--len", "5", "--maxr", "1000000"
    )
    assert code == 1
    assert stdout == ""
    assert stderr == "pglblab: maxr 1000000 exceeds 1000\n"


def test_maxr_at_cap_is_accepted(tmp_path, capsys):
    prog = tmp_path / "p.pglb"
    prog.write_text("f.m ; set:1000:1 ; g.n ; !\n")
    code, stdout, _ = invoke(capsys, "mid", str(prog))
    assert code == 0
    assert stdout.startswith("MID = 1\n")


def test_run_steps_at_cap_runs(tmp_path, capsys):
    prog = tmp_path / "p.pglb"
    prog.write_text("f.m ; !\n")
    code, stdout, _ = invoke(capsys, "run", str(prog), "--steps", "1000000")
    assert code == 0
    assert stdout.endswith("status=Terminated\n")


def test_bad_aux_flag_is_one_line_diagnostic(tmp_path, capsys):
    prog = tmp_path / "p.pglb"
    prog.write_text("f.m ; !\n")
    code, stdout, stderr = invoke(capsys, "mid", str(prog), "--aux", "nodot")
    assert code == 1
    assert stdout == ""
    assert stderr == "pglblab: bad aux pattern 'nodot' (want focus.method)\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("maxn = x", "config key maxn: invalid literal for int() with base 10: 'x'"),
        ("aux = nodot", "config key aux: bad aux pattern 'nodot' (want focus.method)"),
        ("stateLimit = 1.5", "config key stateLimit: invalid literal for int() with base 10: '1.5'"),
    ],
)
def test_bad_config_value_names_its_key(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    prog = tmp_path / "p.pglb"
    prog.write_text("f.m ; !\n")
    code, stdout, stderr = invoke(capsys, "mid", str(prog), "--config", str(cfg))
    assert code == 1
    assert stdout == ""
    assert stderr == f"pglblab: {message}\n"


def test_config_and_flags_set_every_param(tmp_path):
    from types import SimpleNamespace

    from pglblab.cli import resolve_params
    from pglblab.isa import AuxSpec, ToolParams

    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "maxr = 3\nmaxn = 4\naux = f.*\ncells = a, b\ncellInit = true\n"
        "stepLimit = 10\nstateLimit = 20\n"
    )
    names = ("maxr", "maxn", "aux", "cell_foci", "cell_init", "step_limit", "state_limit")
    args = SimpleNamespace(config=str(cfg), **dict.fromkeys(names))
    expected = ToolParams(
        maxr=3, maxn=4, aux=AuxSpec.parse("f.*"), step_limit=10, state_limit=20,
        cell_foci=frozenset({"a", "b"}), cell_init=True,
    )
    assert resolve_params(args) == expected
    flags = SimpleNamespace(
        config=str(cfg), maxr=5, maxn=6, aux="g.m", cell_foci="c", cell_init="false",
        step_limit=30, state_limit=40,
    )
    assert resolve_params(flags) == ToolParams(
        maxr=5, maxn=6, aux=AuxSpec.parse("g.m"), step_limit=30, state_limit=40,
        cell_foci=frozenset({"c"}), cell_init=False,
    )


def test_main_reuses_one_parser_with_fresh_call_output(capsys):
    from pglblab.cli import build_parser

    commands = [
        ("gen", "family", "--k", "1"),
        ("gen", "random", "--seed", "3", "--len", "6"),
        ("gen", "family", "--k", "1"),
    ]

    def fresh(argv):
        build_parser.cache_clear()
        return invoke(capsys, *argv)

    expected = [fresh(argv) for argv in commands]
    build_parser.cache_clear()
    assert [invoke(capsys, *argv) for argv in commands] == expected
    assert build_parser.cache_info().misses == 1
    # A usage error leaves the shared parser as it was.
    with pytest.raises(SystemExit):
        main(["gen", "family"])
    capsys.readouterr()
    assert invoke(capsys, *commands[0]) == expected[0]


def count_builds(monkeypatch) -> list:
    import pglblab.analyzer as analyzer
    import pglblab.cli as cli

    built = []
    real_build = analyzer.build_state_graph

    def build(p, params):
        built.append(p)
        return real_build(p, params)

    for module in (analyzer, cli):
        monkeypatch.setattr(module, "build_state_graph", build)
    return built


@pytest.mark.parametrize(
    "text, flags, mids",
    [("+f.m ; g.n ; !", (), "0"), ("+f.m ; g.n ; g.m ; !", ("--aux", "g.*"), "2")],
)
def test_dispatch_of_a_register_free_program_analyses_it_once(
    text, flags, mids, tmp_path, capsys, monkeypatch
):
    built = count_builds(monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, _, _ = invoke(
        capsys, "project", "-", "--mode", "dispatch", "--out-dir", str(tmp_path), *flags
    )
    assert code == 0
    assert len(built) == 1
    length = len(parse_program(text))
    assert (tmp_path / "program.dispatch.report.txt").read_text() == (
        f"mode=dispatch\nlengthBefore={length}\nlengthAfter={length}\n"
        f"midBefore={mids}\nmidAfter={mids}\nauxIntroduced=\n"
    )


@pytest.mark.parametrize(
    "text, flags, report",
    [
        ("f.m ; !", (), (2, 3, 0, 1)),
        ("+f.m ; g.n ; g.m ; !", ("--aux", "g.*"), (4, 8, 2, 5)),
    ],
)
def test_threading_that_changes_nothing_is_not_analysed_again(
    text, flags, report, tmp_path, capsys, monkeypatch
):
    built = count_builds(monkeypatch)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    argv = ("project", "-", "--mode", "specialize", "--thread", "--out-dir", str(tmp_path))
    code, _, _ = invoke(capsys, *argv, *flags)
    assert code == 0
    assert len(built) == 2  # the source and the specialized output
    before, after, mid_before, mid_after = report
    assert (tmp_path / "program.specialize.report.txt").read_text() == (
        f"mode=specialize\nlengthBefore={before}\nlengthAfter={after}\n"
        f"midBefore={mid_before}\nmidAfter={mid_after}\nauxIntroduced=\n"
        f"threaded=1\nmidAfterThreaded={mid_after}\n"
    )


def count_validations(monkeypatch) -> list:
    import pglblab.isa as isa

    checked = []
    real_validate = isa.validate

    def validate(p, params):
        checked.append(p)
        return real_validate(p, params)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("pglblab") and getattr(module, "validate", None) is real_validate:
            monkeypatch.setattr(module, "validate", validate)
    return checked


@pytest.mark.parametrize(
    "argv, count",
    [
        (("run", "{p}"), 1),
        (("mid", "{p}"), 1),
        (("check", "{p}", "{q}"), 2),
        (("project", "{p}", "--mode", "specialize", "--out-dir", "{out}"), 1),
        # dispatch checks the program before its output-size refusal, and
        # the source's state-graph build checks it again.
        (("project", "{p}", "--mode", "dispatch", "--out-dir", "{out}"), 2),
    ],
)
def test_each_command_validates_its_inputs_once(argv, count, tmp_path, capsys, monkeypatch):
    # Inputs with registers, so no projection output equals an input.
    texts = {"p": "set:1:1 ; i#1 ; f.m ; !", "q": "set:1:1 ; #1 ; f.m ; !"}
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.pglb"
        paths[name].write_text(text + "\n")
    inputs = [parse_program(text) for text in texts.values()]
    checked = count_validations(monkeypatch)
    code, _, _ = invoke(capsys, *(a.format(out=tmp_path, **paths) for a in argv))
    assert code == 0
    assert sum(p in inputs for p in checked) == count


BAD_TEXT = "set:2:9 ; i#2 ; !\n"


def bad_diagnostics(name) -> str:
    return (
        f"{name}: position 1: register literal 9 exceeds maxn=3\n"
        f"{name}: position 1: register index 2 exceeds maxr=1\n"
        f"{name}: position 2: register index 2 exceeds maxr=1\n"
        "pglblab: 3 diagnostic(s)\n"
    )


@pytest.mark.parametrize(
    "command",
    [["run"], ["mid"], ["project", "--mode", "dispatch"], ["project", "--mode", "specialize"]],
    ids=["run", "mid", "project-dispatch", "project-specialize"],
)
def test_invalid_run_input_prints_its_diagnostics(command, tmp_path, capsys):
    bad = tmp_path / "bad.pglb"
    bad.write_text(BAD_TEXT)
    argv = [command[0], str(bad), *command[1:], "--maxr", "1", "--maxn", "3"]
    code, stdout, stderr = invoke(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert stderr == bad_diagnostics(bad)


@pytest.mark.parametrize("bad_side", ["p", "q"])
def test_check_names_the_invalid_program(bad_side, tmp_path, capsys):
    bad = tmp_path / "bad.pglb"
    bad.write_text(BAD_TEXT)
    good = tmp_path / "good.pglb"
    good.write_text("f.m ; !\n")
    pair = (bad, good) if bad_side == "p" else (good, bad)
    code, stdout, stderr = invoke(capsys, "check", *map(str, pair), "--maxr", "1", "--maxn", "3")
    assert code == 1
    assert stdout == ""
    assert stderr == bad_diagnostics(bad)

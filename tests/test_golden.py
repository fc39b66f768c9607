"""Golden outputs: `mid`, `project` and `run` text pinned by SHA-256 digests.

The cases are selection-family members k=1..4, 40 `gen random` programs
(seeds 1..40, lengths 6..9), and programs with unbounded MID: the
service-loop form of family members k=1..3 (each `!` a jump back to
position 1) with the `bool1` tests aux-marked, and the four random
programs of length ≤ 12 and seed < 400 whose MID is unbounded once `f`
is aux-marked.  Without aux marks every positive-weight state has one
successor, so no MID of the first two groups is unbounded.  The service
loops also appear unmarked, with MID 4.

For each case the fixture holds the digest of the `mid` stdout, and for
each projection (both modes, with and without `--thread`) one digest over
the four files `project` writes.  It also holds the digest of the `run
--oracle 7 --steps 2000` stdout for the case and for each projection's
output program, read with its own `.cfg` sidecar.  A finite MID must
reproduce its `mid` stdout byte for byte.  An unbounded MID may name a
different, equally valid cycle, so only its `MID`, `nodes` and `edges`
lines are pinned, and its witness and cycle must replay through the
interpreter.

Regenerate the fixture with `PYTHONPATH=src python tests/test_golden.py
--write`, and only when an output change is intended.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

FIXTURE = Path(__file__).with_name("golden_digests.json")

#: case id -> (gen arguments, aux patterns or None, service-loop form)
CASES: dict[str, tuple[list[str], str | None, bool]] = {
    **{f"family-{k}": (["family", "--k", str(k)], None, False) for k in range(1, 5)},
    **{
        f"random-{s}": (["random", "--seed", str(s), "--len", str(6 + (s - 1) % 4)], None, False)
        for s in range(1, 41)
    },
    **{f"loop-{k}": (["family", "--k", str(k)], None, True) for k in range(1, 4)},
    **{f"loopaux-{k}": (["family", "--k", str(k)], "bool1.*", True) for k in range(1, 4)},
    **{
        f"randomaux-{s}-{n}": (["random", "--seed", str(s), "--len", str(n)], "f.*", False)
        for s, n in ((48, 11), (157, 9), (159, 9), (169, 12))
    },
}

PROJECTIONS = [
    ("specialize", False),
    ("specialize", True),
    ("dispatch", False),
    ("dispatch", True),
]

SUFFIXES = ("pglb", "map.csv", "report.txt", "cfg")

RUN_ARGS = ("--oracle", "7", "--steps", "2000")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(*argv: str) -> tuple[int, str]:
    from pglblab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _service_loop(path: Path) -> None:
    """Replace each `!` at position i by a jump back to position 1."""
    items = path.read_text().strip().split(" ; ")
    loop = [f"\\#{i}" if u == "!" else u for i, u in enumerate(items)]
    path.write_text(" ; ".join(loop) + "\n")


def _stable_mid_lines(stdout: str) -> str:
    keep = ("MID = ", "nodes = ", "edges = ")
    return "".join(line for line in stdout.splitlines(True) if line.startswith(keep))


def capture(case: str, workdir: Path) -> tuple[dict, Path]:
    """Digests of one case's outputs, and the generated program's path."""
    gen, aux, loop = CASES[case]
    prog = workdir / "prog.pglb"
    code, _ = _cli("gen", *gen, "--out", str(prog))
    assert code == 0, case
    if loop:
        _service_loop(prog)
    flags = ["--aux", aux] if aux else []
    code, stdout = _cli("mid", str(prog), *flags)
    assert code == 0, case
    unbounded = stdout.startswith("MID = unbounded")
    digests = {
        "unbounded": unbounded,
        "mid": _sha(_stable_mid_lines(stdout) if unbounded else stdout),
        "run": _run_digest(case, prog),
    }
    for mode, thread in PROJECTIONS:
        out_dir = workdir / f"{mode}{'-thread' if thread else ''}"
        argv = ["project", str(prog), "--mode", mode, "--out-dir", str(out_dir), *flags]
        code, _ = _cli(*argv, *(["--thread"] if thread else []))
        assert code == 0, (case, mode, thread)
        files = "".join(
            f"{suffix}\n{(out_dir / f'prog.{mode}.{suffix}').read_text()}" for suffix in SUFFIXES
        )
        key = f"{mode}{'.thread' if thread else ''}"
        digests[key] = _sha(files)
        digests[f"run.{key}"] = _run_digest(case, out_dir / f"prog.{mode}.pglb")
    return digests, prog


def _run_digest(case: str, prog: Path) -> str:
    code, stdout = _cli("run", str(prog), *RUN_ARGS)
    assert code == 0, (case, prog.name)
    return _sha(stdout)


def _load_fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(_load_fixture()) == sorted(CASES)


def test_golden_outputs(tmp_path):
    from oracles import replay_segment

    from pglblab.analyzer import build_state_graph, compute_mid
    from pglblab.cli import read_program, resolve_params

    expected = _load_fixture()
    unbounded = 0
    for case in CASES:
        workdir = tmp_path / case
        workdir.mkdir()
        got, prog = capture(case, workdir)
        assert got == expected[case], case
        if not got["unbounded"]:
            continue
        unbounded += 1
        p, _, sidecar = read_program(str(prog))
        aux = CASES[case][1]
        params = resolve_params(SimpleNamespace(aux=aux), programs=(p,), sidecars=(sidecar,))
        result = compute_mid(build_state_graph(p, params), params.aux)
        assert result.cycle, case
        assert replay_segment(p, params, result.witness) > 0, case
        replay_segment(p, params, result.cycle + result.cycle[:1])
        _, stdout = _cli("mid", str(prog), "--aux", aux)
        shown = next(l for l in stdout.splitlines() if l.startswith("witness = "))
        assert [int(t.split("@")[0]) for t in shown.split()[2:]] == [
            n.pc for n in result.witness
        ], case
    assert unbounded == 7


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            workdir = Path(tmp) / case
            workdir.mkdir()
            table[case], _ = capture(case, workdir)
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(table)} cases)")

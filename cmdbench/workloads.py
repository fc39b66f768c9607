"""The three workloads: inputs, one round of commands, and output checks.

A workload's `prepare` runs once, untimed; its `setup` writes its inputs
into a fresh directory and is timed; `check_setup` then checks them,
untimed.  `round` returns the commands of one round, each an `Op` with the
argv passed to `pglblab.cli.main` and a check of its outputs.  Every round
issues the same commands, so a run of any length attempts whole rounds.
Checks run in full on the first round; later rounds must reproduce the
first round's outputs byte for byte (`Op.outputs`), except `bench`, whose
table carries timings and is checked every round.
"""
from __future__ import annotations

import hashlib
import math
import random
import re
from pathlib import Path

import refsem
from refsem import Mismatch, Params


class Op:
    """One timed command.

    `check(result)` raises Mismatch on a wrong output; `outputs` lists the
    files whose bytes must repeat in later rounds; `every_round` commands
    are checked in full every round instead.
    """

    def __init__(self, argv, check, outputs=(), every_round=False):
        self.argv = [str(a) for a in argv]
        self.check = check
        self.outputs = tuple(outputs)
        self.every_round = every_round
        self.digest = None

    def fingerprint(self, result) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        for part in (str(result.rc), result.out, result.err):
            h.update(part.encode())
            h.update(b"\0")
        for path in self.outputs:
            h.update(Path(path).read_bytes())
        return h.digest()


def read_report(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def _finite(text: str) -> int | None:
    return None if text == "unbounded" else int(text)


def _expect_ok(result) -> None:
    if result.rc != 0:
        raise Mismatch(f"exit {result.rc}: {result.err.strip()[:200]}")


def _projection_files(out_dir: Path, stem: str, mode: str) -> list[Path]:
    prefix = out_dir / f"{stem}.{mode}"
    return [Path(f"{prefix}{ext}") for ext in (".pglb", ".map.csv", ".report.txt", ".cfg")]


class Sizes:
    """The size and delay metrics gathered while checking the first round."""

    def __init__(self):
        self.spec_len = self.disp_len = self.spec_mid = self.disp_mid = 0
        self.steps = {"spec": 0, "disp": 0}
        self.events = {"spec": 0, "disp": 0}

    def add_run(self, kind: str, run: refsem.Run) -> None:
        self.steps[kind] += run.busy_steps
        self.events[kind] += len(run.observables)

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "spec_len": (self.spec_len, "instr"),
            "disp_len": (self.disp_len, "instr"),
            "spec_mid": (self.spec_mid, "weight"),
            "disp_mid": (self.disp_mid, "weight"),
            "spec_steps_per_obs": (self.steps["spec"] / max(1, self.events["spec"]), "steps/event"),
            "disp_steps_per_obs": (self.steps["disp"] / max(1, self.events["disp"]), "steps/event"),
        }


class Projected:
    """Checks for `project` and `run` commands on one program and its outputs."""

    def __init__(self, path: Path, sizes: Sizes, step_limit: int):
        self.path = path
        self.stem = path.stem
        self.sizes = sizes
        self.step_limit = step_limit
        self.prog = None
        self.length = {}
        self.runs = {}

    def source(self) -> list[tuple]:
        if self.prog is None:
            self.prog = refsem.parse(self.path.read_text())
        return self.prog

    def output_path(self, mode: str) -> Path:
        return self.path.parent / f"{self.stem}.{mode}.pglb"

    def params(self, mode: str | None) -> Params:
        path = self.path if mode is None else self.output_path(mode)
        cfg = path.with_suffix(".cfg")
        return Params(cfg.read_text() if cfg.exists() else "")

    def project_op(self, mode: str, extra=()) -> Op:
        argv = ["project", self.path, "--mode", mode, *extra, "--out-dir", self.path.parent]
        files = _projection_files(self.path.parent, self.stem, mode)
        return Op(argv, lambda r: self.check_projection(r, mode), outputs=files)

    def check_projection(self, result, mode: str) -> None:
        _expect_ok(result)
        out = refsem.parse(self.output_path(mode).read_text())
        if not refsem.register_free(out):
            raise Mismatch(f"{mode} output of {self.stem} still uses registers")
        report = read_report(self.path.parent / f"{self.stem}.{mode}.report.txt")
        if int(report["lengthAfter"]) != len(out):
            raise Mismatch(f"{mode} report length {report['lengthAfter']}, output has {len(out)}")
        if int(report["lengthBefore"]) != len(self.source()):
            raise Mismatch(f"{mode} report source length {report['lengthBefore']}")
        self.length[mode] = len(out)
        self.report = report
        if mode == "specialize":
            self.sizes.spec_len += len(out)
            self.sizes.spec_mid += _finite(report["midAfterThreaded"]) or 0
        else:
            self.sizes.disp_len += len(out)
            self.sizes.disp_mid += _finite(report["midAfter"]) or 0

    def run_op(self, mode: str | None, oracle: int, key=None) -> Op:
        path = self.path if mode is None else self.output_path(mode)
        argv = ["run", path, "--oracle", oracle, "--steps", self.step_limit]
        return Op(argv, lambda r: self.check_run(r, mode, key))

    def check_run(self, result, mode: str | None, key) -> None:
        _expect_ok(result)
        prog = self.source() if mode is None else refsem.parse(self.output_path(mode).read_text())
        run = refsem.check_trace(prog, result.out, self.params(mode), self.step_limit)
        self.runs[(mode, key)] = run
        if mode is not None:
            self.sizes.add_run("spec" if mode == "specialize" else "disp", run)

    def compare_runs(self) -> None:
        """Projections show the source's observable events under each oracle."""
        for (mode, key), run in self.runs.items():
            if mode is not None:
                refsem.check_same_observables(self.runs[(None, key)], run, f"{self.stem}.{mode}")

    def check_op(self, mode: str) -> Op:
        return Op(["check", self.path, self.output_path(mode)], _check_equivalent)

    def mid_op(self, check_value=None) -> Op:
        def check(result):
            _expect_ok(result)
            value = refsem.check_mid(self.source(), result.out, self.params(None))
            if check_value is not None:
                check_value(value)
        return Op(["mid", self.path], check)


def _check_equivalent(result) -> None:
    _expect_ok(result)
    if not result.out.startswith("equivalent ("):
        raise Mismatch(f"check: {result.out.strip()[:200]}")


def _seeded_order(rng: random.Random, groups: list[list[Op]]) -> list[Op]:
    """Shuffle groups of commands, keeping each group's own order."""
    groups = list(groups)
    rng.shuffle(groups)
    return [op for group in groups for op in group]


class Workload:
    """Set-up steps; the defaults do nothing.  `setups` is how many timed
    set-ups a run makes; their median is `setup_s`."""

    setups = 9

    def prepare(self, work: Path) -> None:
        """Untimed, once per run, before the set-ups."""

    def setup(self, work: Path, call) -> None:
        """Timed, after the package is imported afresh."""

    def check_setup(self) -> None:
        """Untimed, after each set-up."""


# -- family ----------------------------------------------------------------

class Family(Workload):
    """Every command on the selection-family members k = 1..kmax, and one
    `bench --kmax` over the same members."""

    name = "family"
    tail_percentile = 75
    run_steps = 1_000_000

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        # Each k costs about four times the one before; a round at kmax=5
        # takes about 2 s on a 2-core machine, so a 30 s run holds a dozen.
        self.kmax = 5 + (seconds >= 80) + (seconds >= 320)

    def setup(self, work: Path, call) -> None:
        """Generate the members; each round generates them again."""
        self.work = work
        for k in range(1, self.kmax + 1):
            _run_setup(call, ["gen", "family", "--k", k, "--out", work / f"f{k}.pglb"])

    def check_setup(self) -> None:
        for k in range(1, self.kmax + 1):
            prog = refsem.parse((self.work / f"f{k}.pglb").read_text())
            if len(prog) != 12 * 2 ** k + 4:
                raise Mismatch(f"family member k={k} has {len(prog)} instructions")

    def round(self) -> list[Op]:
        rng = random.Random(self.seed)
        self.sizes = Sizes()
        self.members = {}
        groups = []
        for k in range(1, self.kmax + 1):
            m = Projected(self.work / f"f{k}.pglb", self.sizes, self.run_steps)
            self.members[k] = m
            oracle = self.seed * 1000 + k
            expected_len = 12 * 2 ** k + 4
            groups.append([
                Op(["gen", "family", "--k", k, "--out", m.path],
                   lambda r, m=m, n=expected_len: self._check_gen(r, m, n),
                   outputs=[m.path, m.path.with_suffix(".cfg")]),
                m.mid_op(lambda v: _require(v == 4, f"family MID {v}, expected 4")),
                m.project_op("specialize", ["--thread"]),
                m.project_op("dispatch"),
                m.run_op(None, oracle),
                m.run_op("specialize", oracle),
                m.run_op("dispatch", oracle),
                m.check_op("specialize"),
                m.check_op("dispatch"),
            ])
        groups.append([Op(["bench", "--kmax", self.kmax], self._check_bench, every_round=True)])
        return _seeded_order(rng, groups)

    @staticmethod
    def _check_gen(result, member: Projected, expected_len: int) -> None:
        _expect_ok(result)
        member.prog = None
        if len(member.source()) != expected_len:
            raise Mismatch(f"{member.stem} has {len(member.source())} instructions, "
                           f"expected 12*2^k+4 = {expected_len}")

    def _check_bench(self, result) -> None:
        _expect_ok(result)
        lines = result.out.strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if [int(r["k"]) for r in rows] != list(range(1, self.kmax + 1)):
            raise Mismatch("bench table does not list k = 1..kmax")
        for row in rows:
            k = int(row["k"])
            if row["flag"] != "0":
                raise Mismatch(f"bench row k={k} is flagged")
            if int(row["lengthOriginal"]) != 12 * 2 ** k + 4 or row["midOriginal"] != "4":
                raise Mismatch(f"bench row k={k}: length or MID of the member is off")
        self.bench_rows = rows

    def finish_round(self) -> None:
        """Cross-member checks: the two horns of the length/delay trade-off."""
        spec_len = disp_len = disp_mid = None
        for k, m in sorted(self.members.items()):
            spec_report = read_report(m.path.parent / f"{m.stem}.specialize.report.txt")
            disp_report = read_report(m.path.parent / f"{m.stem}.dispatch.report.txt")
            spec_mid = _finite(spec_report["midAfterThreaded"])
            if spec_mid is None or spec_mid > 5:
                raise Mismatch(f"k={k}: threaded specialize MID {spec_mid}, expected <= 5")
            if spec_len is not None:
                ratio = m.length["specialize"] / spec_len
                if not 3.5 <= ratio <= 4.5:
                    raise Mismatch(f"k={k}: specialize length grew {ratio:.2f}x, expected 3.5-4.5x")
                ratio = m.length["dispatch"] / disp_len
                if not 1.8 <= ratio <= 2.6:
                    raise Mismatch(f"k={k}: dispatch length grew {ratio:.2f}x, expected 1.8-2.6x")
                if _finite(disp_report["midAfter"]) <= disp_mid:
                    raise Mismatch(f"k={k}: dispatch MID did not rise")
            spec_len, disp_len = m.length["specialize"], m.length["dispatch"]
            disp_mid = _finite(disp_report["midAfter"])
            m.compare_runs()
            row = self.bench_rows[k - 1]
            if (int(row["lengthSpecialized"]), int(row["lengthDispatch"])) != (
                m.length["specialize"], m.length["dispatch"]
            ) or int(row["midDispatch"]) != disp_mid or int(row["midSpecialized"]) != spec_mid:
                raise Mismatch(f"bench row k={k} disagrees with the project commands")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# -- corpus ----------------------------------------------------------------

#: Instruction kinds and draw weights of the corpus generator.
_KINDS = {"plain": 4, "pos": 3, "neg": 2, "fwd": 3, "bwd": 1, "set": 2,
          "ifwd": 1, "ibwd": 1, "halt": 2}
_FOCI = {"f": ("m", "n"), "g": ("m", "n"), "h": ("m", "n"), "bool1": ("get", "set:T", "set:F")}
CORPUS_CFG = "maxr = 2\nmaxn = 3\n"
_SILENT = {"fwd", "bwd", *refsem.REGISTER_KINDS}

#: Inputs that must end in a typed diagnostic: (name, text, kind).
DIAGNOSTIC_INPUTS = (
    ("parse1", "f.m ; f. ; !", "parse"),
    ("parse2", "+f.m ; #x ; !", "parse"),
    ("literal1", "set:1:9 ; i#1 ; f.m ; !", "literal"),
    ("literal2", "f.m ; set:2:12 ; !", "literal"),
    ("cellmethod1", "bool1.foo ; !", "cell"),
    ("cellmethod2", "f.m ; -bool1.foo ; #1 ; !", "cell"),
)


def random_program(rng: random.Random, length: int, maxr: int = 2, maxn: int = 3) -> str:
    kinds = list(_KINDS)
    weights = list(_KINDS.values())
    out = []
    for _ in range(length):
        kind = rng.choices(kinds, weights)[0]
        if kind in refsem.BASIC_KINDS:
            focus = rng.choice(list(_FOCI))
            out.append((kind, focus, rng.choice(_FOCI[focus])))
        elif kind in ("fwd", "bwd"):
            out.append((kind, rng.randint(0, length)))
        elif kind == "set":
            out.append((kind, rng.randint(1, maxr), rng.randint(1, maxn)))
        elif kind in ("ifwd", "ibwd"):
            out.append((kind, rng.randint(1, maxr)))
        else:
            out.append(("halt",))
    return refsem.render_program(out)


class Corpus(Workload):
    """The commands on stratified random programs, plus fixed malformed inputs.

    The program set is one fixed draw (generator seed `program_seed`), so
    the size and delay sums repeat exactly; `--seed` sets the run oracles
    and the command order.  Drawn anew for each seed, 150 programs' small
    per-program MIDs and lengths summed differently by 15-20 % from one
    draw to the next.

    A fixed number of random programs is drawn and each is sorted by the
    reference semantics into a stratum; the corpus takes a fixed number from
    each stratum, in draw order (stratified sampling).
    - `settle`: every run-tree path ends within the check's step budget and
      the paths' steps are few.  Strata by length and by the number of
      register instructions, in the proportions the generator draws them.
    - `loop`: the program enters an endless loop of jumps and register
      instructions before its first oracle reply, so its internal delay is
      unbounded and every check and run of it is cut at the step budget.
    Unstratified, a few percent of programs carry most of the check cost,
    and one draw differed from the next by 40 % in wall time.
    """

    name = "corpus"
    tail_percentile = 99
    lengths = (4, 5, 6, 7, 8, 9)
    per_length = 25
    loopers = 5
    candidates = 2000
    program_seed = 2009
    check_depth = 10
    check_budget = 4096
    settle_steps = 300
    run_steps = 4096

    def __init__(self, seed: int, seconds: int):
        self.seed = seed

    def quotas(self) -> dict[tuple[int, int], int]:
        """Settle programs per (length, register instructions capped at 3)."""
        p = sum(_KINDS[k] for k in refsem.REGISTER_KINDS) / sum(_KINDS.values())
        out = {}
        for n in self.lengths:
            pmf = [math.comb(n, r) * p ** r * (1 - p) ** (n - r) for r in range(n + 1)]
            shares = pmf[:3] + [sum(pmf[3:])]
            exact = [self.per_length * s for s in shares]
            counts = [int(x) for x in exact]
            by_remainder = sorted(range(4), key=lambda r: counts[r] - exact[r])
            for r in by_remainder[: self.per_length - sum(counts)]:
                counts[r] += 1
            out.update({(n, r): c for r, c in enumerate(counts)})
        return out

    def select(self) -> list[str]:
        """The fixed draw of programs; the same on every seed, and untimed."""
        rng = random.Random(self.program_seed)
        params = Params(CORPUS_CFG)
        quotas = self.quotas()
        settle = {key: [] for key in quotas}
        loop = []
        i = 0
        while i < self.candidates or len(loop) < self.loopers or any(
            len(settle[key]) < q for key, q in quotas.items()
        ):
            length = self.lengths[i % len(self.lengths)]
            i += 1
            text = random_program(rng, length)
            prog = refsem.parse(text)
            found = refsem.explore(prog, params, self.check_depth, self.check_budget, 1,
                                   self.settle_steps)
            if found is None:
                continue
            paths, cut, _, loop_kinds = found
            key = (length, min(3, sum(u[0] in refsem.REGISTER_KINDS for u in prog)))
            if cut == 0 and len(settle[key]) < quotas[key]:
                settle[key].append(text)
            elif (cut == 1 and paths == 1 and loop_kinds <= _SILENT
                  and len(loop) < self.loopers):
                loop.append(text)
        return [t for key in sorted(settle) for t in settle[key]] + loop

    def prepare(self, work: Path) -> None:
        """Select and write the inputs.  A timed set-up only imports the
        package: writing these 322 small files took 0.04-0.22 s, depending
        on other disk traffic on a shared machine; over ten runs that
        spread 0.65, and pglblab has no part in it."""
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.programs = self.select()
        for j, text in enumerate(self.programs):
            (work / f"c{j}.pglb").write_text(text + "\n")
            (work / f"c{j}.cfg").write_text(CORPUS_CFG)
        for name, text, _ in DIAGNOSTIC_INPUTS:
            (work / f"{name}.pglb").write_text(text + "\n")
            (work / f"{name}.cfg").write_text(CORPUS_CFG)

    def round(self) -> list[Op]:
        rng = random.Random(self.seed + 1)
        self.sizes = Sizes()
        self.members = []
        groups = []
        for j in range(len(self.programs)):
            m = Projected(self.work / f"c{j}.pglb", self.sizes, self.run_steps)
            self.members.append(m)
            oracle = self.seed * 100_000 + j
            groups.append([
                m.mid_op(),
                m.project_op("specialize", ["--thread"]),
                m.project_op("dispatch"),
                m.run_op(None, oracle),
                m.run_op("specialize", oracle),
                m.run_op("dispatch", oracle),
                m.check_op("specialize"),
                m.check_op("dispatch"),
            ])
        for name, _, kind in DIAGNOSTIC_INPUTS:
            groups.append(self._diagnostic_ops(name, kind))
        return _seeded_order(rng, groups)

    def _diagnostic_ops(self, name: str, kind: str) -> list[Op]:
        m = Projected(self.work / f"{name}.pglb", self.sizes, self.run_steps)
        run = ["run", m.path, "--oracle", 1, "--steps", self.run_steps]
        if kind in ("parse", "literal"):
            word = "unrecognized instruction" if kind == "parse" else "exceeds maxn"
            check = lambda r: _expect_diagnostic(r, word)
            return [Op(argv, check) for argv in (
                ["mid", m.path],
                ["project", m.path, "--mode", "specialize", "--thread", "--out-dir", self.work],
                ["project", m.path, "--mode", "dispatch", "--out-dir", self.work],
                run,
                ["check", m.path, m.path],
            )]
        # An unknown method on a Boolean cell.  Analysis and projection need
        # not execute cells: they may succeed, or reject the input with a
        # diagnostic.  Running or checking executes the cell, so it must end
        # in exit 1 with a one-line diagnostic.
        mid = m.mid_op()
        return [
            Op(mid.argv, lambda r: _ok_or_diagnostic(r, mid.check)),
            Op(["project", m.path, "--mode", "specialize", "--thread", "--out-dir", self.work],
               lambda r: _ok_or_diagnostic(r, _expect_ok)),
            Op(["project", m.path, "--mode", "dispatch", "--out-dir", self.work],
               lambda r: _ok_or_diagnostic(r, _expect_ok)),
            Op(run, _expect_one_line_diagnostic),
            Op(["check", m.path, m.output_path("specialize")], _expect_one_line_diagnostic),
            Op(["check", m.path, m.output_path("dispatch")], _expect_one_line_diagnostic),
        ]

    def finish_round(self) -> None:
        for m in self.members:
            m.compare_runs()


#: The closing count line that `pglblab` prints after the diagnostics it
#: found by validating an input.
_DIAGNOSTIC_COUNT = re.compile(r"pglblab: \d+ diagnostic\(s\)")


def _expect_diagnostic(result, word: str) -> list[str]:
    """Exit 1, no traceback, and a diagnostic containing `word`; returns
    the diagnostic lines without the closing count line."""
    lines = result.err.strip().splitlines()
    if result.rc != 1 or not lines or word not in result.err:
        raise Mismatch(f"expected exit 1 with a diagnostic ({word!r}), got exit {result.rc}")
    if "Traceback" in result.err:
        raise Mismatch("diagnostic is a traceback")
    return [line for line in lines if not _DIAGNOSTIC_COUNT.fullmatch(line)]


def _expect_one_line_diagnostic(result) -> None:
    lines = _expect_diagnostic(result, "")
    if len(lines) != 1:
        raise Mismatch(f"expected a one-line diagnostic, got {len(lines)} lines")


def _ok_or_diagnostic(result, check_ok) -> None:
    if result.rc == 0:
        check_ok(result)
    else:
        _expect_diagnostic(result, "")


# -- trace -----------------------------------------------------------------

class Trace(Workload):
    """Long `run` commands on service-loop family members and their
    projections, under seeded oracles, cut at a fixed step limit."""

    name = "trace"
    tail_percentile = 75
    ks = (3, 4)
    oracles = 7
    run_steps = 10_000
    setups = 3

    def __init__(self, seed: int, seconds: int):
        self.seed = seed

    def setup(self, work: Path, call) -> None:
        """Generate the members, turn each `!` into a jump back to the
        start, bind no cells (so the oracle drives every selection) and
        project both ways."""
        self.work = work
        self.sizes = Sizes()
        self.members = {}
        self.projections = []
        for k in self.ks:
            gen = work / f"g{k}.pglb"
            _run_setup(call, ["gen", "family", "--k", k, "--out", gen])
            chunks = gen.read_text().strip().split(";")
            loop = [f"\\#{pos - 1}" if c.strip() == "!" else c.strip()
                    for pos, c in enumerate(chunks, 1)]
            m = Projected(work / f"s{k}.pglb", self.sizes, self.run_steps)
            m.path.write_text(" ; ".join(loop) + "\n")
            m.path.with_suffix(".cfg").write_text(gen.with_suffix(".cfg").read_text() + "cells = \n")
            for mode, extra in (("specialize", ["--thread"]), ("dispatch", [])):
                op = m.project_op(mode, extra)
                self.projections.append((k, m, op, _run_setup(call, op.argv)))
            self.members[k] = m

    def check_setup(self) -> None:
        for k, m, op, result in self.projections:
            if len(m.source()) != 12 * 2 ** k + 4:
                raise Mismatch(f"service loop k={k} has {len(m.source())} instructions")
            if any(u == ("halt",) for u in m.source()):
                raise Mismatch(f"service loop k={k} still halts")
            op.check(result)
            if m.report["midBefore"] != "4":
                raise Mismatch(f"service loop k={k}: MID {m.report['midBefore']}, expected 4")

    def round(self) -> list[Op]:
        rng = random.Random(self.seed)
        self.sizes.steps = {"spec": 0, "disp": 0}
        self.sizes.events = {"spec": 0, "disp": 0}
        for m in self.members.values():
            m.runs = {}
        groups = []
        for j in range(self.oracles):
            oracle = self.seed * 100 + j
            for m in self.members.values():
                groups.append([m.run_op(mode, oracle, key=j)
                               for mode in (None, "specialize", "dispatch")])
        return _seeded_order(rng, groups)

    def finish_round(self) -> None:
        for m in self.members.values():
            m.compare_runs()


def _run_setup(call, argv):
    result = call([str(a) for a in argv])
    if result.exc is not None or result.rc != 0:
        raise Mismatch(f"set-up command {' '.join(map(str, argv))} failed: "
                       f"{result.exc!r} {result.err.strip()[:200]}")
    return result


WORKLOADS = {w.name: w for w in (Family, Corpus, Trace)}

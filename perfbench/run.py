"""Seeded benchmark of the oligoforge CLI, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload codebook --seed 1 --seconds 55 --trace 0

The seed fixes the generated inputs. The run repeats whole rounds of the
workload's CLI commands within --seconds (at least one round) and checks
every command's output against independent computations (checks.py). With
--trace 0 each command runs as a fresh `python -m oligoforge.cli` process
and the end-to-end metrics are printed; with --trace 1 one round runs in this
process, first plain and then with every layer function wrapped
(tracing.py), and the per-layer metrics are printed. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. One operation is one CLI command together with the checks of
its output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from checks import expect

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
SETUP_PROBES = 3  # interpreter start-ups timed before each round and after the last


@dataclass
class Command:
    argv: list[str]  # CLI arguments, file names relative to the run directory
    outputs: list[str]  # files the command writes; removed before it runs
    check: Callable[[str], None]  # receives the command's standard output

    @property
    def name(self) -> str:
        return self.argv[0]


def read_words(path: Path) -> list[str]:
    return path.read_text(encoding="ascii").split()


def write_words(path: Path, words: list[str]) -> None:
    path.write_text("".join(w + "\n" for w in words), encoding="ascii")


# ---------------------------------------------------------------- workloads

CODE_M = 6
CODE_SAMPLE = 200  # sidecar energies compared with the independent fill


def codebook(rng: random.Random, work: Path) -> list[Command]:
    """construct -m 6 with a seeded generator, then verify its output."""
    generator = rng.choice(checks.simplex_generators(CODE_M))
    turn = rng.randrange(len(generator))
    generator = generator[turn:] + generator[:turn]
    sample = rng.sample(sorted(checks.dna_code_words(generator)), CODE_SAMPLE)
    sample_energies = dict(zip(sample, checks.min_free_energies(sample)))

    def written_code():
        words = read_words(work / "code.txt")
        facts = checks.check_code_file(words, generator, CODE_M)
        meta = json.loads((work / "code.txt.meta.json").read_text(encoding="ascii"))
        checks.check_sidecar(meta, words, generator, CODE_M, facts, sample_energies)
        return words, facts, meta["energies"]

    def check_construct(stdout: str) -> None:
        words, facts, energies = written_code()
        lines = stdout.splitlines()
        expect(lines[:2] == [f"m: {CODE_M}", f"generator: {generator}"], f"header {lines[:2]}")
        expect(lines[-1:] == [f"wrote {len(words)} codewords to code.txt"], f"last line {lines[-1:]}")
        checks.check_verify_report("\n".join(lines[2:-1]), words, facts, energies, CODE_M)

    def check_verify(stdout: str) -> None:
        words, facts, energies = written_code()
        report = (work / "verify.txt").read_text(encoding="ascii")
        checks.check_verify_report(report, words, facts, energies, CODE_M)

    return [
        Command(
            ["construct", "-m", str(CODE_M), "--generator", generator, "--output", "code.txt"],
            ["code.txt", "code.txt.meta.json"],
            check_construct,
        ),
        Command(
            ["verify", "--input", "code.txt", "--output", "verify.txt"],
            ["verify.txt"],
            check_verify,
        ),
    ]


POOL_WORDS = 12000
POOL_LENGTHS = (14, 30)
FOLD_WORDS = 2000
SCREEN_LIMITS = {
    "gc_min": 6,
    "gc_max": 18,
    "s": 2,
    "max_mu": 8,
    "threshold": -14,
    "approx_threshold": Fraction(-12),
}


def pool(rng: random.Random, work: Path) -> list[Command]:
    """screen a random pool of mixed short lengths, then fold a subset."""
    words = [
        "".join(rng.choice("ACGT") for _ in range(rng.randint(*POOL_LENGTHS)))
        for _ in range(POOL_WORDS)
    ]
    subset = rng.sample(words, FOLD_WORDS)
    write_words(work / "pool.txt", words)
    write_words(work / "subset.txt", subset)
    energies = dict(zip(words, checks.min_free_energies(words)))
    expected = checks.expected_screen(words, energies, SCREEN_LIMITS)

    def check_screen(stdout: str) -> None:
        checks.check_screen(
            (work / "kept.txt").read_text(encoding="ascii"),
            (work / "rejected.log").read_text(encoding="ascii"),
            expected,
        )

    def check_fold(stdout: str) -> None:
        checks.check_fold_json((work / "fold.json").read_text(encoding="ascii"), subset)

    limits = [
        ("--gc-min", "gc_min"),
        ("--gc-max", "gc_max"),
        ("-s", "s"),
        ("--max-mu", "max_mu"),
        ("--threshold", "threshold"),
        ("--approx-threshold", "approx_threshold"),
    ]
    screen = ["screen", "--input", "pool.txt", "--output", "kept.txt", "--log", "rejected.log"]
    for flag, key in limits:
        screen += [flag, str(SCREEN_LIMITS[key])]
    return [
        Command(screen, ["kept.txt", "rejected.log"], check_screen),
        Command(
            ["fold", "--input", "subset.txt", "--format", "json", "--output", "fold.json"],
            ["fold.json"],
            check_fold,
        ),
    ]


ENUM_S, ENUM_N = 2, 10  # enumerate -s 2 -n 10 --oracle
ORACLE_N = 8  # count --gc --oracle, within the oracle's default cap of 12
SERIES_N = 300  # count --gc without the oracle


def counts(work: Path) -> list[Command]:
    """Exhaustive and series counts. The inputs do not depend on the seed:
    any other n would change the cost by a power of 4."""

    def check_file(name, check, *args):
        return lambda stdout: check((work / name).read_text(encoding="ascii"), *args)

    return [
        Command(
            ["enumerate", "-s", str(ENUM_S), "-n", str(ENUM_N), "--oracle", "--output", "enum.tsv"],
            ["enum.tsv"],
            check_file("enum.tsv", checks.check_enumerate, ENUM_S, ENUM_N),
        ),
        Command(
            ["count", "--gc", "-n", str(ORACLE_N), "--oracle", "--output", "gc_oracle.tsv"],
            ["gc_oracle.tsv"],
            check_file("gc_oracle.tsv", checks.check_count_gc, ORACLE_N, True),
        ),
        Command(
            ["count", "--gc", "-n", str(SERIES_N), "--output", "gc_series.tsv"],
            ["gc_series.tsv"],
            check_file("gc_series.tsv", checks.check_count_gc, SERIES_N, False),
        ),
    ]


def pool_counts(rng: random.Random, work: Path) -> list[Command]:
    """The pool commands, then the counts commands."""
    return pool(rng, work) + counts(work)


WORKLOADS = {"codebook": codebook, "pool_counts": pool_counts}


# ---------------------------------------------------------------- running


class Tally:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def finish(self, command: Command, exit_code: int, stdout: str) -> None:
        self.attempted += 1
        if exit_code != 0:
            self.failed += 1
            print(f"{command.name}: exit code {exit_code}", file=sys.stderr)
            return
        try:
            command.check(stdout)
        except checks.CheckFailed as exc:
            self.correct = False
            print(f"{command.name}: check failed: {exc}", file=sys.stderr)
        except Exception:  # unreadable or malformed output
            self.correct = False
            print(f"{command.name}: check failed:", file=sys.stderr)
            traceback.print_exc()


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every process
    env.pop("OLIGOFORGE_ORACLE_CAP", None)
    return env


class Spawner:
    """The helper process (spawn.py) that starts every timed command, so
    that peak memory is the command's own and not this process's."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], work: Path) -> tuple[float, int, int]:
        """Run one command to its end in the run directory, its standard
        output going to stdout.txt: wall seconds, peak RSS in KiB, exit code."""
        request = {
            "argv": argv,
            "cwd": str(work),
            "env": cli_env(),
            "stdout": str(work / "stdout.txt"),
            "stderr": str(work / "stderr.txt"),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn helper stopped")
        reply = json.loads(reply)
        return reply["seconds"], reply["rss_kib"], reply["exit"]


def probe_setup(spawner: Spawner, work: Path, samples: list[float]) -> None:
    """Time fresh interpreters importing the CLI module."""
    for _ in range(SETUP_PROBES):
        elapsed, _, code = spawner.run([sys.executable, "-c", "import oligoforge.cli"], work)
        if code != 0:
            raise SystemExit(f"importing oligoforge.cli failed with exit code {code}")
        samples.append(elapsed)


def remove_outputs(command: Command, work: Path) -> None:
    for name in command.outputs:
        (work / name).unlink(missing_ok=True)


def measure(commands: list[Command], work: Path, seconds: float) -> tuple[dict, Tally]:
    """End-to-end metrics over whole rounds of separate CLI processes."""
    tally = Tally()
    setup, rounds, peak_kib = [], [], 0
    start = time.perf_counter()
    with Spawner() as spawner:
        while True:
            round_start = time.perf_counter()
            probe_setup(spawner, work, setup)
            round_wall = 0.0
            for command in commands:
                remove_outputs(command, work)
                argv = [sys.executable, "-m", "oligoforge.cli", *command.argv]
                elapsed, rss_kib, code = spawner.run(argv, work)
                round_wall += elapsed
                peak_kib = max(peak_kib, rss_kib)
                tally.finish(command, code, (work / "stdout.txt").read_text(encoding="ascii"))
            rounds.append(round_wall)
            # start another round only if one as long as this fits the window
            now = time.perf_counter()
            if now + (now - round_start) > start + seconds:
                break
        probe_setup(spawner, work, setup)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(rounds), "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }
    return values, tally


def screen_counts(work: Path) -> dict[str, int]:
    """cli.screen.* counters, read from the kept file and the rejection log."""
    result = {"cli.screen.kept": len(read_words(work / "kept.txt"))}
    for line in (work / "rejected.log").read_text(encoding="ascii").splitlines():
        reason = line.split("\t")[2].split(" ")[0]  # GC, mu_<i>, energy or approx_energy
        kind = "mu" if reason.startswith("mu_") else reason.lower()
        key = f"cli.screen.rejected.{kind}"
        result[key] = result.get(key, 0) + 1
    return result


def run_in_process(cli, command: Command, work: Path, tracer=None) -> tuple[float, int, str]:
    """Call the CLI's main() in this process: seconds, exit code, stdout."""
    stdout = work / "stdout.txt"
    previous = Path.cwd()
    os.chdir(work)
    try:
        with open(stdout, "w", encoding="ascii") as out, contextlib.redirect_stdout(out):
            span = tracer.span(f"cli.{command.name}") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    code = cli.main(list(command.argv))
            except Exception:
                traceback.print_exc()
                code = -1
            elapsed = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return elapsed, code, stdout.read_text(encoding="ascii")


def trace(commands: list[Command], work: Path, trace_file: Path) -> tuple[dict, Tally]:
    """Per-layer metrics from one traced round, plus the tracing overhead
    against one plain in-process round of the same commands."""
    sys.path.insert(0, str(SRC))
    import oligoforge
    import oligoforge.cli
    from tracing import Tracer

    os.environ.pop("OLIGOFORGE_ORACLE_CAP", None)
    tally = Tally()
    tracer = Tracer(oligoforge)
    plain_s = traced_s = 0.0
    counters: dict[str, int] = {}
    for command in commands:
        remove_outputs(command, work)
        elapsed, code, stdout = run_in_process(oligoforge.cli, command, work)
        plain_s += elapsed
        tally.finish(command, code, stdout)
        remove_outputs(command, work)
        with tracer.installed():
            elapsed, code, stdout = run_in_process(oligoforge.cli, command, work, tracer)
        traced_s += elapsed
        tally.finish(command, code, stdout)
        if command.name == "screen" and code == 0:
            counters = screen_counts(work)
    totals = dict(tracer.totals)
    totals.update(counters)
    totals["trace.overhead_s"] = traced_s - plain_s
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps(totals, indent=2, sort_keys=True) + "\n", encoding="ascii")
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))["per_layer"]
    values = {m["name"]: (totals.get(m["name"], 0), m["unit"]) for m in per_layer}
    return values, tally


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "oligoforge" / "cli.py").is_file():
        print(f"no oligoforge sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    rng = random.Random(f"{args.workload}:{args.seed}")
    commands = WORKLOADS[args.workload](rng, work)
    if args.trace:
        trace_file = WORK / "traces" / f"{args.workload}-{args.seed}.json"
        values, tally = trace(commands, work, trace_file)
    else:
        values, tally = measure(commands, work, args.seconds)
    if tally.correct and not tally.failed:
        shutil.rmtree(work)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Commands: fold, screen, enumerate, gf, count, construct, verify. Options
may come from the command line, a flat key=value config file (--config),
or built-in defaults, in that order of precedence. Each option is declared
once in OPTIONS, each command's defaults once in COMMANDS, and the exit
code of each error once in _EXIT_CODES. Exit codes: 0 success, 1 usage
error, 2 data/parse error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import chain

from . import codegen, enumeration, folding, seqcore
from .seqcore import SequenceParseError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    """Malformed input data; the message names the file."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_bool(value: str) -> bool:
    """Config-file form of a bare flag; on the command line the flag is store_const."""
    lowered = value.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _fraction(value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {value!r}") from None


def _bounded_int(name: str, low: int | None = None, high: int | None = None):
    """Converter for an int option that must lie in [low, high] (None: unbounded)."""

    def convert(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
        if low is not None and number < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {number}")
        if high is not None and number > high:
            raise argparse.ArgumentTypeError(f"{name} must be <= {high}, got {number}")
        return number

    return convert


def _fold_format(value: str) -> str:
    if value not in ("text", "csv", "json"):
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from 'text', 'csv', 'json')"
        )
    return value


# dest -> (flags, converter, help). The converter reads the value both from
# the command line and from a config file; the config keys are these dests.
OPTIONS = {
    "input": (("--input",), str, "input sequence file"),
    "output": (("--output",), str, "output file (stdout when unset)"),
    "log": (("--log",), str, "rejection log (stderr when unset)"),
    "meta": (("--meta",), str, "metadata sidecar (<input>.meta.json if present when unset)"),
    "format": (("--format",), _fold_format, "output format: text, csv or json"),
    "s": (("-s",), _bounded_int("shift depth", low=1), "shift depth (>= 1)"),
    "n": (("-n",), _bounded_int("word length", low=1), "word length, or the largest length of a table (>= 1)"),
    "m": (("-m",), _bounded_int("simplex dimension -m", low=2), "simplex dimension (>= 2)"),
    "w": (("-w",), _bounded_int("GC-content", low=0), "GC-content (>= 0): the one screen keeps, or the one count --gc prints"),
    "max_mu": (("--max-mu",), _bounded_int("mu bound", low=0), "largest allowed mu_i (>= 0), i <= s (all i without -s; 0 if unset)"),
    "gc_min": (("--gc-min",), _bounded_int("GC-content", low=0), "smallest allowed GC-content (>= 0)"),
    "gc_max": (("--gc-max",), _bounded_int("GC-content", low=0), "largest allowed GC-content (>= 0)"),
    "threshold": (("--threshold",), _bounded_int("threshold", high=0), "structure threshold (<= 0): energy <= it folds"),
    "approx_threshold": (("--approx-threshold",), _fraction, "reject when linear score <= it"),
    "at_energy": (("--at-energy",), _bounded_int("pair energy", high=0), "A-T pair energy (<= 0)"),
    "gc_energy": (("--gc-energy",), _bounded_int("pair energy", high=0), "G-C pair energy (<= 0)"),
    "tol": (("--tol",), float, "bisection tolerance"),
    "generator": (("--generator",), str, "generator bit string (built-in when unset)"),
    "oracle": (("--oracle",), _parse_bool, "add brute-force column"),
    "mu1": (("--mu1",), _parse_bool, "counts by shift-1 match count"),
    "gc": (("--gc",), _parse_bool, "mu_1 = 0 counts by GC-content"),
}


def load_config(path: str) -> dict[str, tuple[str, int]]:
    """Flat key=value file, read through seqcore.data_lines: dest -> (value, line).

    A key may appear once.
    """
    values = {}
    try:
        for lineno, line in seqcore.data_lines(path):
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            dest = key.replace("-", "_")
            if dest not in OPTIONS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            if dest in values:
                raise UsageError(
                    f"{path}:{lineno}: config key {key!r} repeats the one at {path}:{values[dest][1]}"
                )
            values[dest] = value.strip(), lineno
    except SequenceParseError as exc:  # a non-ASCII byte: a bad config file is a usage error
        raise UsageError(str(exc)) from None
    return values


def _resolve(args, defaults: dict):
    """Fill unset options from the config file, then from defaults.

    args.from_config names the options whose value came from the config file.
    """
    config = load_config(args.config) if args.config else {}
    args.from_config = set()
    for dest, fallback in defaults.items():
        if getattr(args, dest) is not None:
            continue
        if dest in config:
            value, lineno = config[dest]
            try:
                setattr(args, dest, OPTIONS[dest][1](value))
            except (ValueError, argparse.ArgumentTypeError):
                raise UsageError(
                    f"config value {value!r} is invalid for {dest} ({args.config}:{lineno})"
                ) from None
            args.from_config.add(dest)
        else:
            setattr(args, dest, fallback)


@contextmanager
def _open_out(path: str | None, stream: str = "stdout"):
    """path opened for writing, or the sys stream named stream when path is None."""
    if path is None:
        yield getattr(sys, stream)
    else:
        with open(path, "w", encoding="ascii") as handle:
            yield handle


def _energy_params(args) -> folding.EnergyParams:
    return folding.EnergyParams(at=args.at_energy, gc=args.gc_energy)


def _count_table(args, header: str, rows) -> int:
    """Write a count table, with a brute-force column when args.oracle is set.

    rows yields (label, count, n, predicate) with n <= args.n: count should
    equal the number of words of length n that satisfy predicate. The
    oracle's cap is checked against args.n before any output is opened.
    """
    if args.oracle:
        enumeration.check_oracle_cap(args.n)
    with _open_out(args.output) as out:
        out.write(header + ("\toracle\tmatch\n" if args.oracle else "\n"))
        mismatch = False
        for label, count, n, predicate in rows:
            if args.oracle:
                expected = enumeration.count_brute_force(n, predicate)
                ok = count == expected
                mismatch = mismatch or not ok
                out.write(f"{label}\t{count}\t{expected}\t{'ok' if ok else 'MISMATCH'}\n")
            else:
                out.write(f"{label}\t{count}\n")
    return EXIT_VERIFY if mismatch else EXIT_OK


# ---------------------------------------------------------------- fold


_CELL = ",\n        "


def _json_rows(rows: list[str]) -> str:
    """Rows, each its cells joined by _CELL, as json.dumps(records, indent=2)
    lays out the value of a record's key: rows at six spaces, cells at eight."""
    if not rows:
        return "[]"
    return "[\n      [\n        " + "\n      ],\n      [\n        ".join(rows) + "\n      ]\n    ]"


@cache
def _json_table(n: int) -> str:
    """A table's JSON value, a %s per score of its flat scores[1:] (folding.EnergyTable)."""
    cells = (["%s"] * (n + 1 - max(1, i - 1)) for i in range(1, n + 1))
    return _json_rows([('"*"' + _CELL) * (i - 2) + _CELL.join(row) for i, row in enumerate(cells, 1)])


class _EnergyText(dict):  # score -> the text of its energy, -score, made once
    def __missing__(self, score: int) -> str:
        text = self[score] = str(-score)
        return text


def cmd_fold(args) -> int:
    if args.input is None:
        raise UsageError("fold requires --input")
    params = _energy_params(args)
    sequences = seqcore.read_sequence_file(args.input)
    energy_text = _EnergyText()
    with _open_out(args.output) as out:
        out.write("[" if args.format == "json" else "")
        for count, (q, table) in enumerate(zip(sequences, folding.energy_tables(sequences, params))):
            structure = folding.traceback(table, q, params)
            energy, pairs = table.min_free_energy, structure.sorted_pairs()
            folds, dot_bracket = energy <= args.threshold, folding.dot_bracket(structure, table.n)
            if args.format == "json":
                # One record at a time, in the bytes json.dumps(records, indent=2)
                # gives. q.text is upper-case ACGT and needs no escaping.
                cells = _json_table(table.n) % tuple(map(energy_text.__getitem__, table.scores[1:]))
                out.write(
                    f'{"," if count else ""}\n  {{\n    "sequence": "{q.text}",\n'
                    f'    "min_free_energy": {energy},\n'
                    f'    "has_structure": {"true" if folds else "false"},\n'
                    f'    "threshold": {args.threshold},\n'
                    f'    "pairs": {_json_rows([f"{i}{_CELL}{j}" for i, j in pairs])},\n'
                    f'    "dot_bracket": "{dot_bracket}",\n'
                    f'    "table": {cells}\n  }}'
                )
            elif args.format == "text":
                out.write(
                    f"sequence: {q.text}\nmin_free_energy: {energy}\n"
                    f"has_structure: {'yes' if folds else 'no'} (threshold {args.threshold})\n"
                    f"pairs: {' '.join(f'{i}:{j}' for i, j in pairs)}\ndot_bracket: {dot_bracket}\n"
                    f"{folding.format_table_text(q, table)}\n\n"
                )
            else:
                out.write(
                    f"sequence,{q.text}\nmin_free_energy,{energy}\nhas_structure,{'yes' if folds else 'no'}\n"
                    f"pairs,{' '.join(f'{i}:{j}' for i, j in pairs)}\n{folding.format_table_csv(q, table)}\n\n"
                )
        if args.format == "json":
            out.write("\n]\n" if sequences else "]\n")
    return EXIT_OK


# ---------------------------------------------------------------- screen


def _screen_verdicts(sequences, gc_low, gc_high, depth, bound, threshold, params):
    """(q, even, odd, reason, fold) per word: reason names a failed GC or mu
    limit, else is None, and fold says whether q's energy must be filled."""
    for q in sequences:
        n = len(q)
        even, odd = seqcore.packed_image(q)
        gc = even.bit_count()
        reason = None
        if not gc_low <= gc <= gc_high:
            reason = f"GC {gc}"
        else:
            for i in range(1, min(depth + 1, n)):
                v = seqcore.packed_mu(even, odd, n, i)
                if v > bound:
                    reason = f"mu_{i} {v}"
                    break
        # a word whose base counts bound its energy above the threshold
        # cannot fold at or below it, so it passes without a fill
        fold = (
            reason is None
            and threshold is not None
            and folding.packed_energy_bound(even, odd, n, params) <= threshold
        )
        yield q, even, odd, reason, fold


def cmd_screen(args) -> int:
    if args.input is None:
        raise UsageError("screen requires --input")
    # one GC range, -w being [w, w]; an empty one would reject every word
    lows = [(getattr(args, d), d) for d in ("gc_min", "w") if getattr(args, d) is not None]
    highs = [(getattr(args, d), d) for d in ("w", "gc_max") if getattr(args, d) is not None]
    (low, low_dest), (high, high_dest) = max(lows, default=(0, "")), min(highs, default=(math.inf, ""))
    if low > high:
        keys = [d for d in (low_dest, high_dest) if d in args.from_config]
        source = f" (config key{'s' if len(keys) > 1 else ''} {', '.join(keys)})" if keys else ""
        raise UsageError(
            f"{OPTIONS[low_dest][0][0]} {low} exceeds {OPTIONS[high_dest][0][0]} {high}{source}"
        )
    # -s alone bounds mu_1..mu_s by 0; --max-mu alone bounds every mu_i
    depth = 0 if args.s is None and args.max_mu is None else args.s or math.inf
    bound = args.max_mu or 0
    params = _energy_params(args)
    sequences = seqcore.read_sequence_file(args.input)
    limits = (low, high, depth, bound, args.threshold, params)
    # the verdicts are recomputed rather than kept: a word's packed image
    # would outweigh its text
    folded = [q for q, *_, fold in _screen_verdicts(sequences, *limits) if fold]
    energies = iter(folding.min_free_energies(folded, params))
    with _open_out(args.log, "stderr") as log, _open_out(args.output) as out:
        for q, even, odd, reason, fold in _screen_verdicts(sequences, *limits):
            if fold and (energy := next(energies)) <= args.threshold:
                reason = f"energy {energy}"
            if reason is None and args.approx_threshold is not None:
                n, model = len(q), folding.DEFAULT_LINEAR_MODEL
                score = folding.packed_linear_energy(even, odd, n, model, params)
                if score <= args.approx_threshold:
                    reason = f"approx_energy {score}"
            if reason is None:
                out.write(q.text + "\n")
            else:
                log.write(f"{q.text}\trejected\t{reason}\n")
    return EXIT_OK


# ---------------------------------------------------------------- enumerate


def cmd_enumerate(args) -> int:
    table = enumeration.g_series(args.s, args.n)
    predicate = enumeration.mu_zero_predicate(args.s)
    rows = ((n, table.value(n), n, predicate) for n in range(1, args.n + 1))
    return _count_table(args, "n\tg_s(n)", rows)


# ---------------------------------------------------------------- gf


def cmd_gf(args) -> int:
    analysis = enumeration.dominant_root(args.s, args.tol)
    with _open_out(args.output) as out:
        out.write(f"s: {analysis.s}\n")
        out.write(f"rho: {analysis.rho!r}\n")
        out.write(f"residual: {analysis.residual!r}\n")
        out.write(f"tolerance: {analysis.tolerance!r}\n")
    return EXIT_OK


# ---------------------------------------------------------------- count


def cmd_count(args) -> int:
    if args.mu1 == args.gc:
        raise UsageError("count requires exactly one of --mu1 or --gc")
    if args.w is not None and (args.mu1 or args.w > args.n):
        raise UsageError(f"-w is a GC-content of count --gc, from 0 to -n ({args.n}), got {args.w}")
    if args.mu1:
        header = "m\tcount"
        rows = (
            (m, enumeration.count_mu1(args.n, m), args.n, enumeration.mu1_equals_predicate(m))
            for m in range(args.n)
        )
    else:
        series = enumeration.gj_coefficients(args.n)
        mu1_zero = enumeration.mu_zero_predicate(1)
        header = "n\tw\tcount"
        rows = (
            (
                f"{n}\t{w}",
                series.coefficient(n, w),
                n,
                # only the even images of weight w get a mask of odd images
                lambda even, n, w=w: mu1_zero(even, n) if even.bit_count() == w else 0,
            )
            for n in range(1, args.n + 1)
            for w in range(n + 1)
            if args.w is None or w == args.w
        )
    return _count_table(args, header, rows)


# ---------------------------------------------------------------- construct


def cmd_construct(args) -> int:
    if args.m is None:
        raise UsageError("construct requires -m")
    if args.output is None:
        raise UsageError("construct requires --output")
    generator = args.generator
    if generator is None:
        try:
            generator = codegen.default_generator(args.m)
        except codegen.SimplexCodeError as exc:
            # no built-in generator for this m: a usage error, not a failed check
            raise UsageError(str(exc)) from None
    simplex = codegen.simplex_code(args.m, generator)
    code = codegen.build_dna_code(simplex)
    report = codegen.verify_code(code, _energy_params(args), args.threshold)
    seqcore.write_sequence_file(args.output, code.codewords)
    with open(args.output + ".meta.json", "w", encoding="ascii") as handle:
        json.dump(codegen.code_metadata(code, report), handle, indent=2)
        handle.write("\n")
    sys.stdout.write(f"m: {code.m}\ngenerator: {code.generator}\n")
    sys.stdout.write(report.render_text() + "\n")
    sys.stdout.write(f"wrote {report.properties.size} codewords to {args.output}\n")
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------- verify


def _load_sidecar(path: str) -> dict:
    """The JSON object in a metadata sidecar, with its m and generator checked."""
    with open(path, "r", encoding="ascii") as handle:
        try:
            declared = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from None
        except UnicodeDecodeError:
            raise DataError(f"{path}: not an ASCII file") from None
    if not isinstance(declared, dict):
        raise DataError(f"{path}: expected a JSON object at the top level")
    # null is what code_metadata writes for a code without them
    m, generator = declared.get("m"), declared.get("generator")
    if m is not None and (type(m) is not int or m < 2):
        raise DataError(f"{path}: m must be an integer >= 2, got {m!r}")
    if generator is not None and not isinstance(generator, str):
        raise DataError(f"{path}: generator must be a string, got {generator!r}")
    return declared


def _differences(key: str, declared, recomputed) -> list[str]:
    """One line per declared value that differs from the recomputed one;
    a dict of per-word values is compared word by word, and other values
    match only with equal JSON types (9.0 is not 9, nor false 0)."""
    if isinstance(declared, dict) and isinstance(recomputed, dict):
        return [  # the keys of both, without a merged copy of a per-word dict
            line
            for w in chain(recomputed, (w for w in declared if w not in recomputed))
            for line in _differences(f"{key}[{w}]", declared.get(w), recomputed.get(w))
        ]
    if type(declared) is type(recomputed) and declared == recomputed:
        return []
    return [f"{key}: declared {declared}, recomputed {recomputed}"]


def cmd_verify(args) -> int:
    if args.input is None:
        raise UsageError("verify requires --input")
    sequences = seqcore.read_sequence_file(args.input)
    if not sequences:
        raise DataError(f"{args.input}: no sequences to verify")
    meta_path = args.meta or args.input + ".meta.json"
    try:
        declared = _load_sidecar(meta_path)
    except FileNotFoundError:
        if args.meta is not None:
            raise
        declared = {}
    m = args.m if args.m is not None else declared.get("m")
    generator = declared.get("generator")
    # dimension m means length 2^m - 1, m ones: read bit by bit, as a huge 2^m cannot be made
    length = len(sequences[0])
    fits = m is None or (m == length.bit_length() and length & (length + 1) == 0)
    try:  # an m that does not fit gives no mu bound or GC target
        code = codegen.load_dna_code(sequences, m=m if fits else None, generator=generator)
    except ValueError as exc:  # -m and the sidecar's m are checked already, so the words are at fault
        raise DataError(f"{args.input}: {exc}") from None
    report = codegen.verify_code(code, _energy_params(args), args.threshold)
    failures = [] if fits else [f"m: {m} needs words of length 2^m - 1, got length {length}"]
    failures += report.failures
    recomputed = codegen.code_metadata(code, report)
    recomputed["m"] = m  # the m in use, also one that does not fit
    for key, value in declared.items():
        if key not in recomputed:
            raise DataError(f"{meta_path}: unknown sidecar key {key!r}")
        failures += _differences(key, value, recomputed[key])
    if generator is not None and fits:
        if m is None:
            raise codegen.SimplexCodeError(f"{meta_path}: generator: no m to check it against")
        try:
            simplex = codegen.simplex_code(m, generator)
        except codegen.SimplexCodeError as exc:
            raise codegen.SimplexCodeError(f"{meta_path}: generator: {exc}") from None
        if not codegen.holds_simplex_code(code, simplex):
            failures.append(f"generator: {args.input} does not hold the code of {generator}")
    with _open_out(args.output) as out:  # the verdict covers every failure line
        out.write(report._replace(failures=failures).render_text() + "\n")
        for failure in failures:
            out.write(f"failure: {failure}\n")
    return EXIT_VERIFY if failures else EXIT_OK


# ---------------------------------------------------------------- parser

_OUT = {"output": None}
_IO = {"input": None, **_OUT}
_ENERGY = {
    "at_energy": folding.DEFAULT_ENERGY_PARAMS.at,
    "gc_energy": folding.DEFAULT_ENERGY_PARAMS.gc,
}
_STRUCTURE = {"threshold": folding.DEFAULT_STRUCTURE_THRESHOLD, **_ENERGY}

# name -> (handler, help, {dest: built-in default}); the dests are the
# options the command takes, and --config comes with every command
COMMANDS = {
    "fold": (
        cmd_fold,
        "energy table and structure per sequence",
        {**_IO, "format": "text", **_STRUCTURE},
    ),
    "screen": (
        cmd_screen,
        "filter sequences by shift/GC/energy constraints",
        {
            **_IO,
            "log": None,
            "s": None,
            "max_mu": None,
            "w": None,
            "gc_min": None,
            "gc_max": None,
            "threshold": None,
            "approx_threshold": None,
            **_ENERGY,
        },
    ),
    "enumerate": (
        cmd_enumerate,
        "table of shift-constrained word counts",
        {**_OUT, "s": 1, "n": 10, "oracle": False},
    ),
    "gf": (
        cmd_gf,
        "dominant growth root of the count recursion",
        {**_OUT, "s": 2, "tol": 1e-12},
    ),
    "count": (
        cmd_count,
        "exact counts by shift-1 matches or GC-content",
        {**_OUT, "mu1": False, "gc": False, "n": 8, "w": None, "oracle": False},
    ),
    "construct": (
        cmd_construct,
        "build a simplex-based DNA code",
        {**_OUT, "m": None, "generator": None, **_STRUCTURE},
    ),
    "verify": (
        cmd_verify,
        "recompute and check a code file's properties",
        {**_IO, "meta": None, "m": None, **_STRUCTURE},
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="oligoforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (_, help_text, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for dest, default in defaults.items():
            flags, converter, option_help = OPTIONS[dest]
            if converter is _parse_bool:
                kwargs = {"action": "store_const", "const": True}
            else:
                kwargs = {"type": converter}
                if default is not None:
                    option_help += f" (default: {default})"
            p.add_argument(*flags, dest=dest, help=option_help, **kwargs)
    return parser


# first match wins: SequenceParseError and SimplexCodeError are ValueErrors
_EXIT_CODES = (
    ((SequenceParseError, DataError, OSError), EXIT_DATA),
    (codegen.SimplexCodeError, EXIT_VERIFY),
    ((UsageError, ValueError), EXIT_USAGE),
)


def _join_fraction_values(argv: list[str]) -> list[str]:
    """Join --approx-threshold and a following -5/2 into --approx-threshold=-5/2.

    argparse reads -5 and -2.5 as negative numbers but takes -5/2 for a
    flag; the joined form is read as the flag's value. Other words pass as they are.
    """
    flags = OPTIONS["approx_threshold"][0]
    joined: list[str] = []
    for word in argv:
        if joined and joined[-1] in flags and word[:1] == "-" and word[1:2].isdigit():
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _join_fraction_values(sys.argv[1:] if argv is None else list(argv))
        )
        if args.command is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        handler, _, defaults = COMMANDS[args.command]
        _resolve(args, defaults)
        return handler(args)
    except Exception as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"oligoforge: error: {exc}", file=sys.stderr)
                return code
        raise


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

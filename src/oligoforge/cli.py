"""Command-line front end.

Commands: fold, screen, enumerate, gf, count, construct, verify. Options
may come from the command line, a flat key=value config file (--config),
or built-in defaults, in that order of precedence. Exit codes: 0 success,
1 usage error, 2 data/parse error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import codegen, enumeration, folding, seqcore
from .enumeration import OracleCapError
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
    lowered = value.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise UsageError(f"expected a boolean, got {value!r}")


# dest -> converter used when the value comes from a config file
_CONVERTERS = {
    "s": int,
    "n": int,
    "m": int,
    "w": int,
    "max_mu": int,
    "gc_min": int,
    "gc_max": int,
    "threshold": int,
    "at_energy": int,
    "gc_energy": int,
    "approx_threshold": Fraction,
    "tol": float,
    "format": str,
    "generator": str,
    "input": str,
    "output": str,
    "log": str,
    "meta": str,
    "oracle": _parse_bool,
    "mu1": _parse_bool,
    "gc": _parse_bool,
}


def load_config(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and '#' comments are skipped."""
    values = {}
    with open(path, "r", encoding="ascii") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            dest = key.replace("-", "_")
            if dest not in _CONVERTERS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            values[dest] = value.strip()
    return values


def _resolve(args, defaults: dict):
    """Fill unset options from the config file, then from defaults."""
    config = load_config(args.config) if getattr(args, "config", None) else {}
    for dest, fallback in defaults.items():
        if getattr(args, dest, None) is not None:
            continue
        if dest in config:
            try:
                setattr(args, dest, _CONVERTERS[dest](config[dest]))
            except (ValueError, ZeroDivisionError):
                raise UsageError(
                    f"config value {config[dest]!r} is invalid for {dest}"
                ) from None
        else:
            setattr(args, dest, fallback)


@contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii") as handle:
            yield handle


def _energy_params(args) -> folding.EnergyParams:
    return folding.EnergyParams(at=args.at_energy, gc=args.gc_energy)


def _check_format(fmt: str, allowed: tuple[str, ...]):
    if fmt not in allowed:
        raise UsageError(f"format {fmt!r} not supported here (choose from {', '.join(allowed)})")


# ---------------------------------------------------------------- fold


def _fold_blocks(sequences, params):
    for q in sequences:
        table = folding.nussinov_table(q, params)
        structure = folding.traceback(table, q, params)
        yield q, table, structure


def cmd_fold(args) -> int:
    _resolve(
        args,
        {
            "input": None,
            "output": None,
            "format": "text",
            "threshold": folding.DEFAULT_STRUCTURE_THRESHOLD,
            "at_energy": -1,
            "gc_energy": -2,
        },
    )
    _check_format(args.format, ("text", "csv", "json"))
    if args.input is None:
        raise UsageError("fold requires --input")
    params = _energy_params(args)
    sequences = seqcore.read_sequence_file(args.input)
    with _open_out(args.output) as out:
        if args.format == "json":
            # One record at a time, in the bytes json.dumps(records, indent=2)
            # gives: a record's own lines shift right by one indent level.
            out.write("[")
            for count, (q, table, structure) in enumerate(_fold_blocks(sequences, params)):
                record = {
                    "sequence": q.text,
                    "min_free_energy": table.min_free_energy,
                    "has_structure": table.min_free_energy <= args.threshold,
                    "threshold": args.threshold,
                    "pairs": [list(p) for p in structure.sorted_pairs()],
                    "dot_bracket": folding.dot_bracket(structure, table.n),
                    "table": [
                        [table.value(i, j) if j >= i - 1 else "*" for j in range(1, table.n + 1)]
                        for i in range(1, table.n + 1)
                    ],
                }
                text = json.dumps(record, indent=2).replace("\n", "\n  ")
                out.write(("," if count else "") + "\n  " + text)
            out.write("\n]\n" if sequences else "]\n")
        else:
            for q, table, structure in _fold_blocks(sequences, params):
                folds = table.min_free_energy <= args.threshold
                pair_text = " ".join(f"{i}:{j}" for i, j in structure.sorted_pairs())
                if args.format == "text":
                    out.write(f"sequence: {q.text}\n")
                    out.write(f"min_free_energy: {table.min_free_energy}\n")
                    out.write(
                        f"has_structure: {'yes' if folds else 'no'} (threshold {args.threshold})\n"
                    )
                    out.write(f"pairs: {pair_text}\n")
                    out.write(f"dot_bracket: {folding.dot_bracket(structure, table.n)}\n")
                    out.write(folding.format_table_text(q, table) + "\n\n")
                else:
                    out.write(f"sequence,{q.text}\n")
                    out.write(f"min_free_energy,{table.min_free_energy}\n")
                    out.write(f"has_structure,{'yes' if folds else 'no'}\n")
                    out.write(f"pairs,{pair_text}\n")
                    out.write(folding.format_table_csv(q, table) + "\n\n")
    return EXIT_OK


# ---------------------------------------------------------------- screen


def _screen_reason(q, args, params, model) -> str | None:
    gc = seqcore.gc_content(q)
    if args.w is not None and gc != args.w:
        return f"GC {gc}"
    if args.gc_min is not None and gc < args.gc_min:
        return f"GC {gc}"
    if args.gc_max is not None and gc > args.gc_max:
        return f"GC {gc}"
    if args.max_mu is not None or args.s is not None:
        bound = args.max_mu if args.max_mu is not None else 0
        depth = args.s if args.s is not None else len(q) - 1
        depth = min(depth, len(q) - 1)
        even, odd = seqcore.packed_image(q)
        for i in range(1, depth + 1):
            v = seqcore.packed_mu(even, odd, len(q), i)
            if v > bound:
                return f"mu_{i} {v}"
    if args.threshold is not None:
        energy = folding.min_free_energy(q, params)
        if energy <= args.threshold:
            return f"energy {energy}"
    if args.approx_threshold is not None:
        # clamp the model depth to the diagonals the sequence actually has
        usable = min(model.depth, len(q) - 1)
        if usable == 0:
            score = model.kappa
        elif usable < model.depth:
            clamped = folding.LinearEnergyModel(model.kappa, model.gammas[:usable])
            score = folding.linear_energy(q, clamped, params)
        else:
            score = folding.linear_energy(q, model, params)
        if score <= args.approx_threshold:
            return f"approx_energy {score}"
    return None


def cmd_screen(args) -> int:
    _resolve(
        args,
        {
            "input": None,
            "output": None,
            "log": None,
            "s": None,
            "max_mu": None,
            "w": None,
            "gc_min": None,
            "gc_max": None,
            "threshold": None,
            "approx_threshold": None,
            "at_energy": -1,
            "gc_energy": -2,
        },
    )
    if args.input is None:
        raise UsageError("screen requires --input")
    params = _energy_params(args)
    model = folding.DEFAULT_LINEAR_MODEL
    sequences = seqcore.read_sequence_file(args.input)
    log_handle = open(args.log, "w", encoding="ascii") if args.log else sys.stderr
    try:
        with _open_out(args.output) as out:
            for q in sequences:
                reason = _screen_reason(q, args, params, model)
                if reason is None:
                    out.write(q.text + "\n")
                else:
                    log_handle.write(f"{q.text}\trejected\t{reason}\n")
    finally:
        if args.log:
            log_handle.close()
    return EXIT_OK


# ---------------------------------------------------------------- enumerate


def cmd_enumerate(args) -> int:
    _resolve(args, {"s": 1, "n": 10, "oracle": False, "output": None})
    if args.s < 1:
        raise UsageError("-s must be >= 1")
    if args.n < 1:
        raise UsageError("-n must be >= 1")
    table = enumeration.g_series(args.s, args.n)
    mismatch = False
    with _open_out(args.output) as out:
        if args.oracle:
            out.write("n\tg_s(n)\toracle\tmatch\n")
            predicate = enumeration.mu_zero_predicate(args.s)
            for n in range(1, args.n + 1):
                count = table.value(n)
                oracle = enumeration.count_brute_force(n, predicate)
                ok = count == oracle
                mismatch = mismatch or not ok
                out.write(f"{n}\t{count}\t{oracle}\t{'ok' if ok else 'MISMATCH'}\n")
        else:
            out.write("n\tg_s(n)\n")
            for n in range(1, args.n + 1):
                out.write(f"{n}\t{table.value(n)}\n")
    return EXIT_VERIFY if mismatch else EXIT_OK


# ---------------------------------------------------------------- gf


def cmd_gf(args) -> int:
    _resolve(args, {"s": 2, "tol": 1e-12, "output": None})
    analysis = enumeration.dominant_root(args.s, args.tol)
    with _open_out(args.output) as out:
        out.write(f"s: {analysis.s}\n")
        out.write(f"rho: {analysis.rho!r}\n")
        out.write(f"residual: {analysis.residual!r}\n")
        out.write(f"tolerance: {analysis.tolerance!r}\n")
    return EXIT_OK


# ---------------------------------------------------------------- count


def cmd_count(args) -> int:
    _resolve(args, {"mu1": False, "gc": False, "n": 8, "w": None, "oracle": False, "output": None})
    if args.mu1 == args.gc:
        raise UsageError("count requires exactly one of --mu1 or --gc")
    if args.n < 1:
        raise UsageError("-n must be >= 1")
    mismatch = False
    with _open_out(args.output) as out:
        if args.mu1:
            header = "m\tcount"
            out.write(header + ("\toracle\tmatch\n" if args.oracle else "\n"))
            for m in range(args.n):
                count = enumeration.count_mu1(args.n, m)
                if args.oracle:
                    oracle = enumeration.count_brute_force(
                        args.n, enumeration.mu1_equals_predicate(m)
                    )
                    ok = count == oracle
                    mismatch = mismatch or not ok
                    out.write(f"{m}\t{count}\t{oracle}\t{'ok' if ok else 'MISMATCH'}\n")
                else:
                    out.write(f"{m}\t{count}\n")
        else:
            series = enumeration.gj_coefficients(args.n)
            mu1_zero = enumeration.mu_zero_predicate(1)
            header = "n\tw\tcount"
            out.write(header + ("\toracle\tmatch\n" if args.oracle else "\n"))
            for n in range(1, args.n + 1):
                for w in range(n + 1):
                    if args.w is not None and w != args.w:
                        continue
                    count = series.coefficient(n, w)
                    if args.oracle:
                        oracle = enumeration.count_brute_force(
                            n,
                            lambda word, w=w: mu1_zero(word)
                            and word.count("G") + word.count("C") == w,
                        )
                        ok = count == oracle
                        mismatch = mismatch or not ok
                        out.write(f"{n}\t{w}\t{count}\t{oracle}\t{'ok' if ok else 'MISMATCH'}\n")
                    else:
                        out.write(f"{n}\t{w}\t{count}\n")
    return EXIT_VERIFY if mismatch else EXIT_OK


# ---------------------------------------------------------------- construct


def cmd_construct(args) -> int:
    _resolve(
        args,
        {
            "m": None,
            "output": None,
            "generator": None,
            "threshold": folding.DEFAULT_STRUCTURE_THRESHOLD,
            "at_energy": -1,
            "gc_energy": -2,
        },
    )
    if args.m is None:
        raise UsageError("construct requires -m")
    if args.output is None:
        raise UsageError("construct requires --output")
    simplex = codegen.simplex_code(args.m, args.generator)
    code = codegen.build_dna_code(simplex)
    report = codegen.verify_code(code, _energy_params(args), args.threshold)
    seqcore.write_sequence_file(args.output, code.codewords)
    with open(args.output + ".meta.json", "w", encoding="ascii") as handle:
        json.dump(codegen.code_metadata(code, report), handle, indent=2)
        handle.write("\n")
    sys.stdout.write(f"m: {code.m}\ngenerator: {code.generator}\n")
    sys.stdout.write(report.render_text() + "\n")
    sys.stdout.write(f"wrote {report.size} codewords to {args.output}\n")
    return EXIT_OK if report.passed else EXIT_VERIFY


# ---------------------------------------------------------------- verify


def _load_sidecar(path: str) -> dict:
    """The JSON object in a metadata sidecar."""
    with open(path, "r", encoding="ascii") as handle:
        try:
            declared = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from None
        except UnicodeDecodeError:
            raise DataError(f"{path}: not an ASCII file") from None
    if not isinstance(declared, dict):
        raise DataError(f"{path}: expected a JSON object at the top level")
    return declared


def cmd_verify(args) -> int:
    _resolve(
        args,
        {
            "input": None,
            "meta": None,
            "m": None,
            "threshold": folding.DEFAULT_STRUCTURE_THRESHOLD,
            "at_energy": -1,
            "gc_energy": -2,
            "output": None,
        },
    )
    if args.input is None:
        raise UsageError("verify requires --input")
    sequences = seqcore.read_sequence_file(args.input)
    if not sequences:
        raise SequenceParseError("no sequences to verify", path=args.input, line=0)
    try:
        declared = _load_sidecar(args.meta or args.input + ".meta.json")
    except FileNotFoundError:
        if args.meta is not None:
            raise
        declared = None
    m = args.m if args.m is not None else (declared or {}).get("m")
    code = codegen.load_dna_code(
        sequences, m=m, generator=(declared or {}).get("generator")
    )
    report = codegen.verify_code(code, _energy_params(args), args.threshold)
    failures = []
    if not report.passed:
        if not report.mu_bound_met:
            failures.append(
                f"max mu {report.max_shift_match} exceeds bound {report.mu_bound}"
            )
        if not report.gc_as_expected:
            failures.append(f"GC content check failed: values {list(report.gc_values)}")
    if declared is not None:
        recomputed = {
            "size": report.size,
            "length": report.length,
            "min_hamming_distance": report.min_hamming_distance,
            "gc_content": code.properties.gc_content,
            "max_mu": report.max_shift_match,
        }
        for key, value in recomputed.items():
            if key in declared and declared[key] != value:
                failures.append(f"{key}: declared {declared[key]}, recomputed {value}")
    with _open_out(args.output) as out:
        out.write(report.render_text() + "\n")
        for failure in failures:
            out.write(f"failure: {failure}\n")
    return EXIT_VERIFY if failures else EXIT_OK


# ---------------------------------------------------------------- parser


def build_parser() -> _Parser:
    parser = _Parser(prog="oligoforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--input", help="input sequence file")
        p.add_argument("--output", help="output file (default: stdout)")

    p = sub.add_parser("fold", help="energy table and structure per sequence")
    add_common(p)
    p.add_argument("--format", choices=["text", "csv", "json"], help="output format (default text)")
    p.add_argument("--threshold", type=int, help="structure threshold (default -2)")
    p.add_argument("--at-energy", type=int, dest="at_energy", help="A-T pair energy (default -1)")
    p.add_argument("--gc-energy", type=int, dest="gc_energy", help="G-C pair energy (default -2)")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("screen", help="filter sequences by shift/GC/energy constraints")
    add_common(p)
    p.add_argument("--log", help="rejection log (default: stderr)")
    p.add_argument("-s", type=int, help="shift depth for the mu constraint (default: all)")
    p.add_argument("--max-mu", type=int, dest="max_mu", help="largest allowed mu value (default 0)")
    p.add_argument("-w", type=int, help="required GC-content")
    p.add_argument("--gc-min", type=int, dest="gc_min")
    p.add_argument("--gc-max", type=int, dest="gc_max")
    p.add_argument("--threshold", type=int, help="reject when energy <= threshold")
    p.add_argument(
        "--approx-threshold",
        type=Fraction,
        dest="approx_threshold",
        help="reject when the linear score <= this value",
    )
    p.add_argument("--at-energy", type=int, dest="at_energy")
    p.add_argument("--gc-energy", type=int, dest="gc_energy")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("enumerate", help="table of shift-constrained word counts")
    add_common(p)
    p.add_argument("-s", type=int, help="shift depth (default 1)")
    p.add_argument("-n", type=int, help="maximum length (default 10)")
    p.add_argument("--oracle", action="store_const", const=True, help="add brute-force column")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("gf", help="dominant growth root of the count recursion")
    add_common(p)
    p.add_argument("-s", type=int, help="shift depth (default 2)")
    p.add_argument("--tol", type=float, help="bisection tolerance (default 1e-12)")
    p.set_defaults(func=cmd_gf)

    p = sub.add_parser("count", help="exact counts by shift-1 matches or GC-content")
    add_common(p)
    p.add_argument("--mu1", action="store_const", const=True, help="counts by shift-1 match count")
    p.add_argument("--gc", action="store_const", const=True, help="mu_1 = 0 counts by GC-content")
    p.add_argument("-n", type=int, help="word length / maximum length (default 8)")
    p.add_argument("-w", type=int, help="restrict --gc output to one GC-content")
    p.add_argument("--oracle", action="store_const", const=True, help="add brute-force column")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("construct", help="build a simplex-based DNA code")
    add_common(p)
    p.add_argument("-m", type=int, help="simplex dimension (>= 2)")
    p.add_argument("--generator", help="generator bit string (default: built-in)")
    p.add_argument("--threshold", type=int, help="structure threshold for the report")
    p.add_argument("--at-energy", type=int, dest="at_energy")
    p.add_argument("--gc-energy", type=int, dest="gc_energy")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="recompute and check a code file's properties")
    add_common(p)
    p.add_argument("--meta", help="metadata sidecar (default: <input>.meta.json if present)")
    p.add_argument("-m", type=int, help="simplex dimension used for the shift bound")
    p.add_argument("--threshold", type=int, help="structure threshold for the report")
    p.add_argument("--at-energy", type=int, dest="at_energy")
    p.add_argument("--gc-energy", type=int, dest="gc_energy")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except UsageError as exc:
        print(f"oligoforge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OracleCapError as exc:
        print(f"oligoforge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SequenceParseError, DataError) as exc:
        print(f"oligoforge: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except codegen.SimplexCodeError as exc:
        print(f"oligoforge: error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"oligoforge: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"oligoforge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

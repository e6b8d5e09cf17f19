"""Command-line front end wiring the library together.

Subcommands: ``simulate`` (growth series as CSV/JSON, or the states graph as
DOT), ``classify`` (growth-class report as JSON), ``compile-tm`` (machine
file in, rule file out), ``combine`` (sum / product / binary reduction, with
a provenance sidecar), and ``zoo`` (the bundled example systems).

Exit codes: 0 success (JSON output reports budget truncation in-band), 2
usage, 3 parse error, 4 validation error (among them a ``classify`` horizon
under 8 generations), 5 resource limit (truncated evolution for CSV or DOT output,
DOT output whose edges pass the budget, or a ``classify`` whose budget left
fewer than 8 layers).
All outputs are deterministic: identical inputs give byte-identical files,
and every file starts with the tool version and the full run configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from . import __version__
from .core import StatesGraph, _cut_at_edges, _dot_lines, evolve, growth_series
from .rulefiles import ParseError, format_system, parse_system

if TYPE_CHECKING:
    from .zoo import ZooEntry

# algebra, analysis, tm and zoo are imported by the commands that run them,
# so start-up pays only for core and rulefiles

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_RESOURCE = 5

TOOL_LINE = f"multiway {__version__}"
GENERATION_NOTE = "generation n = distance d + 1"
BUDGET_ENV_VAR = "MULTIWAY_BUDGET"
DEFAULT_BUDGET = 1_000_000


def _int_at_least(low: int):
    """An argparse ``type`` for integers no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def _config(command: str, args: argparse.Namespace, *names: str) -> dict:
    """The run configuration: the command, then each named argument in order."""
    return {"command": command, **{name: getattr(args, name) for name in names}}


def _header(config: dict, *extra: str) -> list[str]:
    """The lines every text output starts with, before its comment marks."""
    return [TOOL_LINE, f"config: {json.dumps(config, separators=(', ', ': '))}", *extra]


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, or each string of an iterable as it is made, to ``out`` or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _json_doc(config: dict, payload: dict) -> str:
    return json.dumps({"tool": TOOL_LINE, "config": config, **payload}, indent=2) + "\n"


def _read_file(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _evolve(args: argparse.Namespace, record_edges: bool) -> StatesGraph:
    """Evolve ``args.rules`` for ``args.horizon`` generations within ``args.budget``.

    An unset budget is resolved from $MULTIWAY_BUDGET or the default and
    stored back, before the file is read, so the run configuration shows it.
    """
    if args.budget is None:
        args.budget = _default_budget()
    system = parse_system(_read_file(args.rules))
    # --horizon counts generations (rows), the library counts distances
    return evolve(system, args.horizon - 1, max_states=args.budget, record_edges=record_edges)


def _zoo_doc(entry: ZooEntry, **params: list[int]) -> dict:
    """A zoo entry as JSON; ``params``, if given, comes right after the name."""
    return {
        "name": entry.name,
        **params,
        "expected": entry.expected,
        "classify_horizon": entry.classify_horizon,
        "closed_form": entry.closed_form,
    }


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    # only DOT output reads the edges, and only CSV and JSON the growth series
    graph = _evolve(args, record_edges=args.format == "dot")
    config = _config("simulate", args, "rules", "horizon", "budget", "format")
    if args.format == "json":
        series = growth_series(graph)
        rows = [
            {"d": d, "generation": d + 1, "count": count, "maxlen": maxlen}
            for d, (count, maxlen) in enumerate(zip(series.counts, series.max_len))
        ]
        payload = {
            "note": GENERATION_NOTE,
            "truncated": graph.truncated,
            "truncation_reason": graph.truncation_reason,
            "series": rows,
        }
        _emit(_json_doc(config, payload), args.out)
        return EXIT_OK

    if args.format == "dot":
        graph = _cut_at_edges(graph, args.budget)  # the budget caps the edges written too
        mark, notes, body = "// ", [], _dot_lines(graph)
    else:
        series = growth_series(graph)
        mark, notes = "# ", [GENERATION_NOTE]
        body = ["d,count,maxlen\n"] + [
            f"{d},{count},{maxlen}\n"
            for d, (count, maxlen) in enumerate(zip(series.counts, series.max_len))
        ]
    if graph.truncated:
        notes.append(f"truncated: {graph.truncation_reason}")
    _emit(chain((f"{mark}{line}\n" for line in _header(config, *notes)), body), args.out)
    return EXIT_RESOURCE if graph.truncated else EXIT_OK


def cmd_classify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .analysis import MIN_LAYERS, classify

    graph = _evolve(args, record_edges=False)
    series = growth_series(graph)
    if graph.truncated and len(series.counts) < MIN_LAYERS <= args.horizon:
        # the budget, not the horizon, left too few layers: a resource limit
        print(
            f"error: truncated: {graph.truncation_reason}; need at least {MIN_LAYERS} "
            f"layers to classify, got {len(series.counts)}",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    report = classify(series)
    config = _config("classify", args, "rules", "horizon", "budget")
    payload = {
        "note": GENERATION_NOTE,
        "truncated": graph.truncated,
        "layers": len(series.counts),
        "counts": series.counts,
        "upper_class": asdict(report.upper_class),
        "lower_class": asdict(report.lower_class),
        "regular": report.regular,
        "fits": report.fits,
        "provisional_tail": report.provisional_tail,
        "caveat": report.caveat,
    }
    _emit(_json_doc(config, payload), args.out)
    return EXIT_OK


def cmd_compile_tm(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .tm import compile_tm, enchain, parse_tm

    machine = parse_tm(_read_file(args.machine))
    if args.enchain:
        system = enchain(machine, start_input=args.input)
    else:
        system = compile_tm(machine, input_n=args.input)
    config = _config("compile-tm", args, "machine", "enchain", "input")
    _emit(format_system(system, header=_header(config)), args.out)
    return EXIT_OK


def cmd_combine(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .algebra import product_systems, reduce_to_binary, sum_systems

    wanted = 1 if args.op == "reduce" else 2
    if len(args.operands) != wanted:
        parser.error(f"--op {args.op} takes exactly {wanted} operand file(s)")
    operands = [parse_system(_read_file(p)) for p in args.operands]
    if args.op == "sum":
        combined = sum_systems(*operands, independence_horizon=args.horizon)
    elif args.op == "product":
        combined = product_systems(*operands, independence_horizon=args.horizon)
    else:
        combined = reduce_to_binary(operands[0])
    config = _config("combine", args, "op", "operands", "horizon")
    sidecar = args.out + ".provenance.json"
    verdict = combined.independence
    payload = {
        "op": combined.kind,
        "operands": args.operands,
        "growth_law": combined.growth_law,
        "independence": None if verdict is None else asdict(verdict),
        "fresh_symbol": combined.fresh_symbol,
        "translation": combined.translation,
    }
    header = _header(config, f"provenance: {sidecar}")
    _emit(format_system(combined.system, header=header), args.out)
    _emit(_json_doc(config, payload), sidecar)
    return EXIT_OK


def cmd_zoo(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .zoo import ZOO

    if args.action == "list":
        config = _config("zoo list", args, "format")
        if args.format == "json":
            entries = [_zoo_doc(e) for e in ZOO.values()]
            _emit(_json_doc(config, {"entries": entries}), args.out)
            return EXIT_OK
        width = max(len(name) for name in ZOO)
        lines = [f"# {line}" for line in _header(config)]
        lines.extend(
            f"{e.name:<{width}}  {e.expected:<12} horizon {e.classify_horizon}"
            for e in ZOO.values()
        )
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK

    entry = ZOO.get(args.name)
    if entry is None:
        parser.error(f"unknown zoo entry {args.name!r} (see 'zoo list')")
    try:
        system = entry.build(*args.params)
    except TypeError:
        parser.error(f"wrong number of parameters for {args.name!r}")
    config = _config("zoo emit", args, "name", "params")
    manifest_path = args.out + ".manifest.json"
    _emit(format_system(system, header=_header(config, f"manifest: {manifest_path}")), args.out)
    _emit(_json_doc(config, _zoo_doc(entry, params=args.params)), manifest_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiway",
        description="Simulate, classify, compile, and combine string rewriting systems.",
    )
    parser.add_argument("--version", action="version", version=TOOL_LINE)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser, horizon_default: int) -> None:
        p.add_argument(
            "--horizon",
            type=_int_at_least(1),
            default=horizon_default,
            help=f"generations to evolve, i.e. rows printed (default {horizon_default})",
        )
        p.add_argument(
            "--budget",
            type=_int_at_least(1),
            default=None,
            help=(
                f"state cap, and for DOT output also an edge cap; "
                f"default {DEFAULT_BUDGET} or ${BUDGET_ENV_VAR}"
            ),
        )
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("simulate", help="evolve a rule file and write its growth series")
    p.add_argument("rules", help="rule file path")
    add_run_flags(p, horizon_default=10)
    p.add_argument(
        "--format", choices=("csv", "json", "dot"), default="csv", help="output format"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classify", help="evolve a rule file and classify its growth")
    p.add_argument("rules", help="rule file path")
    add_run_flags(p, horizon_default=40)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compile-tm", help="compile a machine file into a rule file")
    p.add_argument("machine", help="machine file path")
    p.add_argument("--enchain", action="store_true", help="wrap into the restart chain")
    p.add_argument(
        "--input",
        type=_int_at_least(0),
        default=1,
        help="unary input n for the start configuration (default 1)",
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_compile_tm)

    p = sub.add_parser("combine", help="sum, product, or binary reduction of rule files")
    p.add_argument("operands", nargs="+", help="operand rule file(s)")
    p.add_argument("--op", choices=("sum", "product", "reduce"), required=True)
    p.add_argument(
        "--horizon",
        type=_int_at_least(1),
        default=4,
        help="independence-check horizon for sum/product (default 4)",
    )
    p.add_argument("--out", required=True, help="output rule file (sidecar JSON next to it)")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("zoo", help="list or emit the bundled example systems")
    zoo_sub = p.add_subparsers(dest="action", required=True)
    pl = zoo_sub.add_parser("list", help="list zoo entries")
    pl.add_argument("--format", choices=("text", "json"), default="text")
    pl.add_argument("--out", help="output file (default stdout)")
    pl.set_defaults(func=cmd_zoo, action="list")
    pe = zoo_sub.add_parser("emit", help="write one zoo system as a rule file")
    pe.add_argument("name", help="zoo entry name")
    pe.add_argument(
        "params", nargs="*", type=int, help="builder parameters (e.g. width, branching)"
    )
    pe.add_argument("--out", required=True, help="output rule file (manifest JSON next to it)")
    pe.set_defaults(func=cmd_zoo, action="emit")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

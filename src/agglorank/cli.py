"""Command-line front end.

Subcommands: gen (emit a family graph), rank (importance ranking of an
edge-list file), phi (graph-level agglomeration and average path length),
contract (contract one node), verify (engine vs closed forms over grids).

Exit codes: 0 success, 2 usage or parse error, 3 connectivity error,
4 verification mismatch.
"""

from __future__ import annotations

# Each command loads only what it runs.  Every command loads this module,
# graph, contraction, errors and options (the output formats and the CPU
# count the parser offers); contract needs no more.  rank and phi import the
# engine (agglomeration, with fractions) and the reports in the command, gen
# the family registry (families), and verify the registry, the harness
# (verify), the closed forms, the engine and the reports.  The family
# subcommands are built only by a parser for gen, verify or no command.  The
# package's own modules come first: without cached bytecode each one is
# compiled at start-up, and compiling them before argparse and the rest are
# resident keeps the start's peak memory down.
from .contraction import contract, contract_text
from .errors import AggloRankError, ConnectivityError, EdgeListError, FamilyParameterError
from .graph import (_blocks, _edge_lines, _id, _quoted, bfs_distances, check_class_nodes,
                    parse_edge_list, scan_class_comments)
from .options import FORMATS, usable_cpus

import argparse
import io
import re
import sys
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DISCONNECTED = 3
EXIT_MISMATCH = 4

_RANGE = re.compile(r"([0-9]+)(?:\.\.([0-9]+))?")
# The syntax int() reads: a sign, digit groups joined by "_", spaces around.
_INT = re.compile(r"\s*[-+]?\d+(?:_\d+)*\s*")


def _family_commands() -> dict[str, tuple[type, tuple[str, ...]]]:
    # Each family subcommand, the registry's name with hyphens: its spec class
    # and the names of the spec's fields, in order.
    from .families import FAMILIES

    return {name.replace("_", "-"): (cls, cls._fields) for name, cls in FAMILIES.items()}


def _range_arg(text: str) -> tuple[int, int]:
    m = _RANGE.fullmatch(text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {_quoted(text, 'value')}")
    return _int_arg(m.group(1)), _int_arg(m.group(2) or m.group(1))


def _int_arg(text: str) -> int:
    # int(text), or argparse's message for type=int; but a number longer than
    # int() reads (sys.get_int_max_str_digits()) is named by its digit count,
    # and any other value longer than a message quotes by its length.
    try:
        return int(text)
    except ValueError:
        if _INT.fullmatch(text):
            digits = sum(map(str.isdecimal, text))
            raise argparse.ArgumentTypeError(f"a number of {digits} digits is too long") from None
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text, 'value')}") from None


def _emit(args: argparse.Namespace, blocks: Iterable[str]) -> None:
    # Write the blocks in order, each encoded and freed before the next is made.
    # Output is UTF-8, as input is, whatever the locale.
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(blocks)
        return
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    sys.stdout.writelines(blocks)


def _read_text(args: argparse.Namespace, file: BinaryIO | None = None) -> str:
    # The input's whole text, as text mode reads it; from file, the input open
    # in binary, read from its start, and file is closed.
    try:
        if file is None:
            return Path(args.input).read_text(encoding="utf-8-sig")
        if file.seekable():
            file.seek(0)
        with io.TextIOWrapper(file, encoding="utf-8-sig") as whole:
            return whole.read()
    except UnicodeDecodeError as exc:
        raise EdgeListError(f"{args.input}: not UTF-8 text ({exc})") from None


def _read_graph(args: argparse.Namespace):
    text = _read_text(args)
    return text, parse_edge_list(text, connected=True)


def cmd_gen(args: argparse.Namespace) -> int:
    from .families import MAX_SIZE, generate, write_labeled

    cls, names = _family_commands()[args.family]
    spec = cls(**{name: getattr(args, name) for name in names})
    if spec.order + spec.size > MAX_SIZE:
        raise FamilyParameterError(
            f"{spec.label()} would have {spec.order} nodes and {spec.size} edges; "
            f"gen builds at most {MAX_SIZE} nodes plus edges")
    _emit(args, [write_labeled(generate(spec))])
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    from .agglomeration import imc_all
    from .reports import render_rank

    text, g = _read_graph(args)
    classes = scan_class_comments(text)
    check_class_nodes(classes, g.n)
    report = imc_all(g, jobs=args.jobs)
    _emit(args, [render_rank(report, classes or None, args.format)])
    return EXIT_OK


def cmd_phi(args: argparse.Namespace) -> int:
    from .agglomeration import phi_and_length
    from .reports import render_phi

    _, g = _read_graph(args)
    value, length = phi_and_length(g)
    _emit(args, [render_phi(value, length, args.format)])
    return EXIT_OK


def cmd_contract(args: argparse.Namespace) -> int:
    # Plain, connected text in a regular file contracts without building its
    # graph, read twice in pieces and never whole; any other text or file,
    # and any fault, comes back to be read whole and take the parser of
    # record.  The file is closed before the output, which may name it, is
    # opened.
    with Path(args.input).open("rb") as file:
        if (contracted := contract_text(file, args.node)) is file:
            contracted = _read_text(args, file)
    if isinstance(contracted, str):
        g = parse_edge_list(contracted, connected=True)
        del contracted  # neither path needs the text to write its result
        if not 0 <= args.node < g.n:
            raise AggloRankError(f"node {_id(args.node)} out of range for graph of order {g.n}")
        bfs_distances(g, 0)  # connectivity precondition, names an unreachable node
        result = contract(g, args.node)
        del g  # the input graph is not needed to write the result
        contracted = (result.graph.n, _edge_lines(result.graph),
                      (old for old, new in enumerate(result.new_ids) if new != result.merged_into))
    _emit(args, _contraction_blocks(*contracted))
    return EXIT_OK


def _contraction_blocks(n: int, edges: Iterable[str], survivors: Iterable[int]) -> Iterator[str]:
    # "# merged" with the last id of G/v, then the "# map" lines, in blocks,
    # and the blocks of to_edge_list of G/v.  Survivors come in ascending
    # old-id order, numbered 0, 1, ...
    yield f"# merged {n - 1}\n"
    yield from _blocks(f"# map {old} {new}\n" for new, old in enumerate(survivors))
    yield from edges


def cmd_verify(args: argparse.Namespace) -> int:
    from .reports import verify_blocks
    from .verify import verify_family

    cls, _ = _family_commands()[args.family]
    ranges = {name: getattr(args, name) for name in cls.GRID if getattr(args, name) is not None}
    report = verify_family(cls.NAME, ranges, jobs=args.jobs)
    _emit(args, verify_blocks(report, args.format))
    return EXIT_MISMATCH if report.mismatches else EXIT_OK


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write to this file instead of standard output")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default="table")


def _add_jobs(p: argparse.ArgumentParser, default: int) -> None:
    p.add_argument("--jobs", type=_int_arg, default=default,
                   help="worker processes for the per-node contractions (default: "
                        "the usable CPUs); the output is byte-identical for any value")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  For ``command`` rank, phi or contract, gen and verify
    get no family subcommands, so the family registry is not loaded; the
    parser then reads that command, every help text included, as the full one."""
    parser = argparse.ArgumentParser(
        prog="agglorank",
        description="Rank influential nodes by node contraction and network agglomeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cpus = usable_cpus()
    families = {} if command in ("rank", "phi", "contract") else _family_commands()

    gen = sub.add_parser("gen", help="generate a family graph as a labeled edge list")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    for family, (_, names) in families.items():
        p = gen_sub.add_parser(family)
        for name in names:
            p.add_argument(f"--{name}", type=_int_arg, required=True)
        p.set_defaults(func=cmd_gen)
        _add_output(p)

    rank = sub.add_parser("rank", help="rank every node of an edge-list file")
    rank.add_argument("input")
    _add_format(rank)
    _add_jobs(rank, cpus)
    _add_output(rank)
    rank.set_defaults(func=cmd_rank)

    phi_p = sub.add_parser("phi", help="agglomeration and average path length")
    phi_p.add_argument("input")
    _add_format(phi_p)
    _add_output(phi_p)
    phi_p.set_defaults(func=cmd_phi)

    con = sub.add_parser("contract", help="contract one node and emit the result")
    con.add_argument("input")
    con.add_argument("--node", type=_int_arg, required=True)
    _add_output(con)
    con.set_defaults(func=cmd_contract)

    ver = sub.add_parser("verify", help="compare engine values against closed forms")
    ver_sub = ver.add_subparsers(dest="family", required=True)
    for family, (cls, _) in families.items():
        p = ver_sub.add_parser(family)
        for name in cls.GRID:
            p.add_argument(f"--{name}", type=_range_arg, help=cls.GRID_HELP.get(name))
        p.set_defaults(func=cmd_verify)
        _add_format(p)
        _add_jobs(p, cpus)
        _add_output(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise AggloRankError("--jobs must be at least 1")
        return args.func(args)
    except (AggloRankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED if isinstance(exc, ConnectivityError) else EXIT_USAGE


def run() -> None:
    raise SystemExit(main())

"""Command-line front end.

Subcommands: gen (emit a family graph), rank (importance ranking of an
edge-list file), phi (graph-level agglomeration and average path length),
contract (contract one node), verify (engine vs closed forms over grids).

Exit codes: 0 success, 2 usage or parse error, 3 connectivity error,
4 verification mismatch.
"""

from __future__ import annotations

# The package's own modules come first: without cached bytecode each one is
# compiled at start-up, and compiling them before argparse and the rest are
# resident keeps the start's peak memory down.
from .agglomeration import imc_all, phi_and_length, usable_cpus
from .contraction import contract, contract_text
from .errors import AggloRankError, ConnectivityError, EdgeListError, FamilyParameterError
from .families import (FAMILIES, MAX_SIZE, check_class_nodes, generate, scan_class_comments,
                       write_labeled)
from .graph import _WRITE_NODES, Graph, _edge_lines, bfs_distances, parse_edge_list
from .reports import FORMATS, render_phi, render_rank, render_verify

import argparse
import re
import sys
from dataclasses import fields
from itertools import count, islice
from pathlib import Path
from typing import Iterable, Iterator

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DISCONNECTED = 3
EXIT_MISMATCH = 4

_RANGE = re.compile(r"([0-9]+)(?:\.\.([0-9]+))?")

# Family subcommands are the registry's names with hyphens.
_FAMILY_BY_COMMAND = {name.replace("_", "-"): cls for name, cls in FAMILIES.items()}


def _range_arg(text: str) -> tuple[int, int]:
    m = _RANGE.fullmatch(text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}")
    return int(m.group(1)), int(m.group(2) or m.group(1))


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


def _read_text(args: argparse.Namespace) -> str:
    try:
        return Path(args.input).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EdgeListError(f"{args.input}: not UTF-8 text ({exc})") from None


def _read_graph(args: argparse.Namespace):
    text = _read_text(args)
    return text, parse_edge_list(text, connected=True)


def cmd_gen(args: argparse.Namespace) -> int:
    cls = _FAMILY_BY_COMMAND[args.family]
    spec = cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
    if spec.order + spec.size > MAX_SIZE:
        raise FamilyParameterError(
            f"{spec.label()} would have {spec.order} nodes and {spec.size} edges; "
            f"gen builds at most {MAX_SIZE} nodes plus edges")
    _emit(args, [write_labeled(generate(spec))])
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    text, g = _read_graph(args)
    classes = scan_class_comments(text)
    check_class_nodes(classes, g.n)
    report = imc_all(g, jobs=args.jobs)
    _emit(args, [render_rank(report, classes or None, args.format)])
    return EXIT_OK


def cmd_phi(args: argparse.Namespace) -> int:
    _, g = _read_graph(args)
    value, length = phi_and_length(g)
    _emit(args, [render_phi(value, length, args.format)])
    return EXIT_OK


def cmd_contract(args: argparse.Namespace) -> int:
    text = _read_text(args)
    # Plain, connected text contracts without building its graph; any other
    # text, and any fault, takes the parser of record.
    contracted = contract_text(text, args.node)
    g = None if contracted else parse_edge_list(text, connected=True)
    del text  # neither path needs the text to write its result
    if g is not None:
        if not 0 <= args.node < g.n:
            raise AggloRankError(f"node {args.node} out of range for graph of order {g.n}")
        if g.n >= 2:
            bfs_distances(g, 0)  # connectivity precondition, names an unreachable node
        result = contract(g, args.node)
        del g  # the input graph is not needed to write the result
        merged = result.merged_into
        contracted = result.graph, (old for old, new in enumerate(result.new_ids) if new != merged)
    _emit(args, _contraction_blocks(*contracted))
    return EXIT_OK


def _contraction_blocks(g: Graph, survivors: Iterable[int]) -> Iterator[str]:
    # "# merged" with g's last id, the merged node, then the "# map" lines and
    # the edges of g, _WRITE_NODES nodes at a time.  Survivors come in ascending
    # old-id order, numbered 0, 1, ...
    yield f"# merged {g.n - 1}\n"
    rows = zip(survivors, count())
    while block := "".join([f"# map {old} {new}\n" for old, new in islice(rows, _WRITE_NODES)]):
        yield block
    yield from _edge_lines(g)


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_family  # only verify needs the closed forms

    cls = _FAMILY_BY_COMMAND[args.family]
    ranges = {name: getattr(args, name) for name in cls.GRID if getattr(args, name) is not None}
    report = verify_family(cls.NAME, ranges, jobs=args.jobs)
    _emit(args, [render_verify(report, args.format)])
    return EXIT_MISMATCH if report.mismatches else EXIT_OK


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write to this file instead of standard output")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default="table")


def _add_jobs(p: argparse.ArgumentParser, default: int) -> None:
    p.add_argument("--jobs", type=int, default=default,
                   help="worker processes for the per-node contractions (default: "
                        "the usable CPUs); the output is byte-identical for any value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agglorank",
        description="Rank influential nodes by node contraction and network agglomeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cpus = usable_cpus()

    gen = sub.add_parser("gen", help="generate a family graph as a labeled edge list")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    for command, cls in _FAMILY_BY_COMMAND.items():
        p = gen_sub.add_parser(command)
        for f in fields(cls):
            p.add_argument(f"--{f.name}", type=int, required=True)
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
    con.add_argument("--node", type=int, required=True)
    _add_output(con)
    con.set_defaults(func=cmd_contract)

    ver = sub.add_parser("verify", help="compare engine values against closed forms")
    ver_sub = ver.add_subparsers(dest="family", required=True)
    for command, cls in _FAMILY_BY_COMMAND.items():
        p = ver_sub.add_parser(command)
        for name in cls.GRID:
            p.add_argument(f"--{name}", type=_range_arg, help=cls.GRID_HELP.get(name))
        p.set_defaults(func=cmd_verify)
        _add_format(p)
        _add_jobs(p, cpus)
        _add_output(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise AggloRankError("--jobs must be at least 1")
        return args.func(args)
    except (AggloRankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED if isinstance(exc, ConnectivityError) else EXIT_USAGE


def run() -> None:
    raise SystemExit(main())

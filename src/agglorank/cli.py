"""Command-line front end.

Subcommands: gen (emit a family graph), rank (importance ranking of an
edge-list file), phi (graph-level agglomeration and average path length),
contract (contract one node), verify (engine vs closed forms over grids).

Exit codes: 0 success, 2 usage or parse error, 3 connectivity error,
4 verification mismatch.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from pathlib import Path

from .agglomeration import imc_all, phi_and_length, usable_cpus
from .contraction import contract
from .errors import AggloRankError, ConnectivityError, EdgeListError, FamilyParameterError
from .families import FAMILIES, generate, scan_class_comments, write_labeled
from .graph import bfs_distances, parse_edge_list, to_edge_list
from .reports import FORMATS, render_phi, render_rank, render_verify
from .verify import verify_family

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DISCONNECTED = 3
EXIT_MISMATCH = 4

_RANGE = re.compile(r"(\d+)\.\.(\d+)$")

# Nodes plus edges of the largest graph gen builds, counted from the spec before
# anything is allocated; a graph at the limit fits in 1 GiB of address space.
GEN_MAX_SIZE = 2_000_000

# Family subcommands are the registry's names with hyphens.
_FAMILY_BY_COMMAND = {name.replace("_", "-"): cls for name, cls in FAMILIES.items()}


def _range_arg(text: str) -> tuple[int, int]:
    m = _RANGE.match(text)
    if m:
        return int(m.group(1)), int(m.group(2))
    if text.isdigit():
        value = int(text)
        return value, value
    raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}")


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _read_graph(args: argparse.Namespace):
    text = Path(args.input).read_text()
    return text, parse_edge_list(text, connected=True)


def cmd_gen(args: argparse.Namespace) -> int:
    cls = _FAMILY_BY_COMMAND[args.family]
    spec = cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
    if spec.order + spec.size > GEN_MAX_SIZE:
        raise FamilyParameterError(
            f"{spec.label()} would have {spec.order} nodes and {spec.size} edges; "
            f"gen builds at most {GEN_MAX_SIZE} nodes plus edges")
    _emit(args, write_labeled(generate(spec)))
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    text, g = _read_graph(args)
    classes = scan_class_comments(text)
    for v in classes:
        if v >= g.n:
            raise EdgeListError(f"class comment for unknown node {v}")
    report = imc_all(g, jobs=args.jobs)
    _emit(args, render_rank(report, classes or None, args.format))
    return EXIT_OK


def cmd_phi(args: argparse.Namespace) -> int:
    _, g = _read_graph(args)
    value, length = phi_and_length(g)
    _emit(args, render_phi(value, length, args.format))
    return EXIT_OK


def cmd_contract(args: argparse.Namespace) -> int:
    _, g = _read_graph(args)
    if not 0 <= args.node < g.n:
        print(f"error: node {args.node} out of range for graph of order {g.n}",
              file=sys.stderr)
        return EXIT_USAGE
    if g.n >= 2:
        bfs_distances(g, 0)  # connectivity precondition, names an unreachable node
    result = contract(g, args.node)
    lines = [f"# merged {result.merged_into}"]
    lines += [f"# map {old} {new}" for old, new in sorted(result.old_to_new.items())]
    _emit(args, "".join(line + "\n" for line in lines) + to_edge_list(result.graph))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cls = _FAMILY_BY_COMMAND[args.family]
    ranges = {name: getattr(args, name) for name in cls.GRID if getattr(args, name) is not None}
    report = verify_family(cls.NAME, ranges, jobs=args.jobs)
    _emit(args, render_verify(report, args.format))
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
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (AggloRankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED if isinstance(exc, ConnectivityError) else EXIT_USAGE


def run() -> None:
    raise SystemExit(main())

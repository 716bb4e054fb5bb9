"""Seeded inputs, CLI invocations and output checks for each benchmark workload.

Each workload function writes its input files into a work directory and returns
the invocations of one pass, in a fixed order with the cheapest first.  Each
invocation carries the number of graph nodes it analyses and a check that
judges its stdout.  Inputs depend only on the seed; checks never run inside a
timed region.

The checks use references that share no code with the program: the min-plus
distance oracle of ``tests/oracles.py`` (or, above ``MINPLUS_MAX_N`` nodes, a
boolean matrix-product frontier) for every ``phi`` and ``L``, the ranking
invariants (n rows, sorted by imc descending then id ascending, imc >= 0),
the spec grid for ``verify``, and an independent contraction for
``contract``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

DEFAULT_SEED = 0

# The min-plus oracle materialises an n^3 int64 array: 216 MB at n = 300.
MINPLUS_MAX_N = 300

# The CLI's default verify grids (see README), as inclusive ranges.
DEFAULT_GRIDS = {
    "path": {"n": (4, 40)},
    "comet": {"s": (3, 10), "t": (4, 12)},
    "double-comet": {"a": (2, 6), "b": (2, 6), "k": (4, 10)},
    "lollipop": {"d": (4, 12), "nd": (2, 8)},
}
WIDE_DOUBLE_COMET = {"a": (2, 8), "b": (2, 8), "k": (4, 14)}

Check = Callable[[str], "str | None"]


@dataclass
class Invocation:
    """One CLI call: ``python -m agglorank *argv``; ``check`` returns an error or None."""

    label: str
    argv: list[str]
    nodes: int
    check: Check
    seeded: bool = True  # False when the seed does not change the output


@dataclass
class Inputs:
    invocations: list[Invocation]
    counters: dict[str, int]


class InputCounters:
    """Largest n, m, diameter and degree over a workload's input graphs."""

    def __init__(self):
        self.values = {"input.n_max": 0, "input.m_max": 0,
                       "input.diameter_max": 0, "input.degree_max": 0}

    def note(self, n: int, m: int, degree: int, diameter: int = 0) -> None:
        for key, value in (("n_max", n), ("m_max", m), ("degree_max", degree),
                           ("diameter_max", diameter)):
            self.values["input." + key] = max(self.values["input." + key], value)


# ---------------------------------------------------------------- graphs

def sparse_graph(rng: random.Random, n: int, avg_degree: int = 4) -> list[tuple[int, int]]:
    """Connected graph with n * avg_degree / 2 edges and seeded, shuffled ids.

    A random recursive tree guarantees connectivity; uniform extra edges fill
    up the edge count.
    """
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    m = n * avg_degree // 2
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def edge_text(edges: list[tuple[int, int]]) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def degrees(n: int, edges: list[tuple[int, int]]) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def distance_profile(n: int, edges: list[tuple[int, int]]) -> tuple[int, int]:
    """(sum of distances over ordered pairs, diameter) of a connected graph, without BFS."""
    if n <= MINPLUS_MAX_N:
        from oracles import UNREACHED, minplus_distance_matrix

        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        matrix = minplus_distance_matrix(SimpleNamespace(n=n, adj=adj))
        if matrix.max() >= UNREACHED:
            raise ValueError("input graph is disconnected")
        return int(matrix.sum()), int(matrix.max())
    import numpy as np

    # Level k adds every pair at distance > k: reach_k holds the pairs within k hops.
    adjacency = np.zeros((n, n), dtype=np.float32)
    us, vs = np.array(edges).T
    adjacency[us, vs] = adjacency[vs, us] = 1
    reach = np.eye(n, dtype=bool)
    total, diameter = 0, 0
    while (missing := n * n - int(reach.sum())) > 0:
        total += missing
        diameter += 1
        grown = reach | ((reach.astype(np.float32) @ adjacency) > 0)
        if np.array_equal(grown, reach):
            raise ValueError("input graph is disconnected")
        reach = grown
    return total, diameter


# ---------------------------------------------------------------- checks

def _check_graph_level(phi_text: str, length_text: str, n: int, dsum: int) -> str | None:
    if Fraction(phi_text) != Fraction(n - 1, dsum):
        return f"phi {phi_text} != oracle {Fraction(n - 1, dsum)}"
    if Fraction(length_text) != Fraction(dsum, n * (n - 1)):
        return f"L {length_text} != oracle {Fraction(dsum, n * (n - 1))}"
    return None


def _check_ranking(entries: list[tuple[int, Fraction]], n: int) -> str | None:
    if len(entries) != n:
        return f"{len(entries)} ranking rows for {n} nodes"
    if sorted(node for node, _ in entries) != list(range(n)):
        return "ranking rows are not one per node"
    keys = [(-imc, node) for node, imc in entries]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "ranking is not sorted by (imc descending, id ascending)"
    if any(imc < 0 for _, imc in entries):
        return "negative imc"
    return None


def rank_table_check(n: int, dsum: int) -> Check:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if lines[0].split()[0] != "phi" or lines[1].split()[0] != "L":
            return "missing phi/L lines"
        if lines[2].split() != ["node", "imc", "imc_decimal"]:
            return f"unexpected header {lines[2]!r}"
        rows = [line.split() for line in lines[3:]]
        return (_check_graph_level(lines[0].split()[1], lines[1].split()[1], n, dsum)
                or _check_ranking([(int(r[0]), Fraction(r[1])) for r in rows], n))
    return check


def rank_json_check(n: int, dsum: int, classes: dict[int, str]) -> Check:
    def check(out: str) -> str | None:
        doc = json.loads(out)
        entries = doc["entries"]
        if any(e["class"] != classes[e["node"]] for e in entries):
            return "class labels do not follow the node ids"
        return (_check_graph_level(doc["phi"], doc["avg_path_length"], n, dsum)
                or _check_ranking([(e["node"], Fraction(e["imc"])) for e in entries], n))
    return check


def phi_check(n: int, dsum: int) -> Check:
    def check(out: str) -> str | None:
        lines = [line.split() for line in out.splitlines()]
        if len(lines) != 2 or lines[0][0] != "phi" or lines[1][0] != "L":
            return "expected exactly a phi line and an L line"
        return _check_graph_level(lines[0][1], lines[1][1], n, dsum)
    return check


def expected_contraction(n: int, edges: list[tuple[int, int]], v: int) -> str:
    """The documented `contract` output, built independently of the program."""
    merged_set = {v}
    merged_set.update(b if a == v else a for a, b in edges if v in (a, b))
    survivors = [u for u in range(n) if u not in merged_set]
    new_id = {old: new for new, old in enumerate(survivors)}
    merged = len(survivors)
    out_edges = set()
    for a, b in edges:
        x, y = new_id.get(a, merged), new_id.get(b, merged)
        if x != y:
            out_edges.add((min(x, y), max(x, y)))
    lines = [f"# merged {merged}"] + [f"# map {old} {new_id[old]}" for old in survivors]
    if 1 + max((y for _, y in out_edges), default=-1) != merged + 1:
        lines.append(f"# n={merged + 1}")
    lines += [f"{x} {y}" for x, y in sorted(out_edges)]
    return "".join(line + "\n" for line in lines)


def spec_labels(family: str, grid: dict[str, tuple[int, int]]) -> dict[str, int]:
    """Spec label -> graph order for every point of a verify grid."""
    def span(name):
        lo, hi = grid[name]
        return range(lo, hi + 1)

    if family == "path":
        return {f"P({n})": n for n in span("n")}
    if family == "comet":
        return {f"C({s},{t})": s + t for s in span("s") for t in span("t")}
    if family == "double-comet":
        return {f"DC({a + b + k},{a},{b})": a + b + k
                for a in span("a") for b in span("b") for k in span("k")}
    return {f"L({d + nd},{d})": d + nd for d in span("d") for nd in span("nd")}


def verify_check(expected: dict[str, int]) -> Check:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        rows = [line.split() for line in lines[1:-1]
                if not line.startswith(("note:", "violation:"))]
        if lines[-1] != f"summary total={len(rows)} mismatches=0":
            return f"verify did not pass: {lines[-1]!r}"
        if any(len(row) != 5 or row[4] != "yes" for row in rows):
            return "a verify row does not match"
        if {row[0] for row in rows} != set(expected):
            return "verify did not cover its spec grid"
        return None
    return check


# ---------------------------------------------------------------- workloads

def _family_text(family_args: list[str], env: dict[str, str]) -> str:
    return subprocess.run([sys.executable, "-m", "agglorank", "gen", *family_args],
                          capture_output=True, text=True, check=True, env=env).stdout


def _permute_labeled(text: str, rng: random.Random):
    """Relabel a `gen` graph by a seeded permutation; class comments follow the ids."""
    header, classes, edges = [], {}, []
    for line in text.splitlines():
        if line.startswith("# class "):
            _, _, v, label = line.split()
            classes[int(v)] = label
        elif line.startswith("#"):
            header.append(line)
        else:
            u, v = map(int, line.split())
            edges.append((u, v))
    n = len(classes)
    perm = list(range(n))
    rng.shuffle(perm)
    new_classes = {perm[v]: label for v, label in classes.items()}
    new_edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
    lines = header + [f"# class {v} {new_classes[v]}" for v in range(n)]
    text = "".join(line + "\n" for line in lines) + edge_text(new_edges)
    return text, n, new_edges, new_classes


def rank_sparse(seed: int, workdir: Path, env: dict[str, str],
                sizes: tuple[int, ...] = (100, 200, 300)) -> Inputs:
    rng = random.Random(f"rank-sparse/{seed}")
    counters = InputCounters()
    invocations = []
    for n in sizes:
        edges = sparse_graph(rng, n)
        path = workdir / f"sparse-{n}.txt"
        path.write_text(edge_text(edges))
        dsum, diameter = distance_profile(n, edges)
        counters.note(n, len(edges), max(degrees(n, edges)), diameter)
        invocations.append(Invocation(f"rank-n{n}", ["rank", str(path)], n,
                                      rank_table_check(n, dsum)))
    return Inputs(invocations, counters.values)


def rank_shapes(seed: int, workdir: Path, env: dict[str, str],
                families: tuple[tuple[str, ...], ...] = (
                    ("lollipop", "--n", "120", "--d", "60"),
                    ("path", "--n", "250"),
                    ("lollipop", "--n", "200", "--d", "20"))) -> Inputs:
    rng = random.Random(f"rank-shapes/{seed}")
    counters = InputCounters()
    invocations = []
    for family_args in families:
        text, n, edges, classes = _permute_labeled(_family_text(list(family_args), env), rng)
        label = "-".join(arg.lstrip("-") for arg in family_args)
        path = workdir / f"{label}.txt"
        path.write_text(text)
        dsum, diameter = distance_profile(n, edges)
        counters.note(n, len(edges), max(degrees(n, edges)), diameter)
        invocations.append(Invocation(label, ["rank", str(path), "--format", "json"], n,
                                      rank_json_check(n, dsum, classes)))
    return Inputs(invocations, counters.values)


def _grid_counters(counters: InputCounters, family: str, grid) -> None:
    # Closed-form n, m, degree and diameter of the largest graphs of each family.
    hi = {name: bounds[1] for name, bounds in grid.items()}
    if family == "path":
        counters.note(hi["n"], hi["n"] - 1, 2, hi["n"] - 1)
    elif family == "comet":
        counters.note(hi["s"] + hi["t"], hi["s"] + hi["t"] - 1, hi["s"] + 1, hi["t"])
    elif family == "double-comet":
        n = hi["a"] + hi["b"] + hi["k"]
        counters.note(n, n - 1, max(hi["a"], hi["b"]) + 1, hi["k"] + 1)
    else:
        d, nd = hi["d"], hi["nd"]
        counters.note(d + nd, d - 1 + nd * (nd + 1) // 2, nd + 1, d)


def verify_grids(seed: int, workdir: Path, env: dict[str, str],
                 grids: tuple[tuple[str, dict], ...] = (
                     ("lollipop", DEFAULT_GRIDS["lollipop"]),
                     ("comet", DEFAULT_GRIDS["comet"]),
                     ("path", DEFAULT_GRIDS["path"]),
                     ("double-comet", DEFAULT_GRIDS["double-comet"]),
                     ("double-comet", WIDE_DOUBLE_COMET))) -> Inputs:
    """The seed does not affect this workload: the verify grids are fixed."""
    counters = InputCounters()
    invocations = []
    for family, grid in grids:
        ranges = [] if grid is DEFAULT_GRIDS[family] else [
            arg for name, (lo, hi) in grid.items() for arg in (f"--{name}", f"{lo}..{hi}")]
        label = "-".join([family] + [arg.lstrip("-") for arg in ranges])
        expected = spec_labels(family, grid)
        _grid_counters(counters, family, grid)
        invocations.append(Invocation(label, ["verify", family, *ranges, "--jobs", "2"],
                                      sum(expected.values()), verify_check(expected),
                                      seeded=False))
    return Inputs(invocations, counters.values)


def graph_large(seed: int, workdir: Path, env: dict[str, str],
                phi_n: int = 1500, contract_n: int = 100_000) -> Inputs:
    rng = random.Random(f"graph-large/{seed}")
    counters = InputCounters()
    edges = sparse_graph(rng, phi_n)
    path = workdir / f"sparse-{phi_n}.txt"
    path.write_text(edge_text(edges))
    dsum, diameter = distance_profile(phi_n, edges)
    counters.note(phi_n, len(edges), max(degrees(phi_n, edges)), diameter)
    phi_call = Invocation(f"phi-n{phi_n}", ["phi", str(path)], phi_n, phi_check(phi_n, dsum))

    # Linear work only, so no all-pairs diameter for this graph.
    edges = sparse_graph(rng, contract_n)
    path = workdir / f"sparse-{contract_n}.txt"
    path.write_text(edge_text(edges))
    deg = degrees(contract_n, edges)
    hub = deg.index(max(deg))
    counters.note(contract_n, len(edges), deg[hub])
    expected = expected_contraction(contract_n, edges, hub)
    contract_call = Invocation(f"contract-n{contract_n}",
                               ["contract", str(path), "--node", str(hub)], contract_n,
                               lambda out: None if out == expected
                               else "contract output differs from the reference contraction")
    return Inputs([phi_call, contract_call], counters.values)


def combine(*parts: Callable[..., Inputs]) -> Callable[..., Inputs]:
    """One workload made of the invocations of several, in order."""
    def build(seed: int, workdir: Path, env: dict[str, str]) -> Inputs:
        built = [part(seed, workdir, env) for part in parts]
        counters = {key: max(b.counters[key] for b in built) for key in built[0].counters}
        return Inputs([inv for b in built for inv in b.invocations], counters)
    return build


# Two workloads of about 17 s and 7 s a pass on two cores, so that a run of
# BENCHMARK.json's run_seconds holds several passes; the host's speed drifts
# by up to a quarter over minutes, and only long runs average that out.
WORKLOADS = {
    "rank": combine(rank_sparse, rank_shapes),
    "verify-graph": combine(verify_grids, graph_large),
}

"""Independent oracles and graph generators used across the test suite.

The distance oracle deliberately avoids BFS: it relaxes a full distance
matrix with min-plus products until it stabilizes, so it shares no code path
with the library's traversal.
"""

from __future__ import annotations

import heapq
import random
import re
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np

from agglorank.agglomeration import ImcEntry, RankReport
from agglorank.graph import Graph, bfs_distances, from_edge_list

UNREACHED = 1 << 40  # sentinel; comfortably addable without int64 overflow

# The bulk parser's plain check as one pattern, matched in full over a block:
# one or more plain lines ("u v" in ASCII digits, or a comment that starts
# the line and is no order header), the last newline optional.
_PLAIN_LINE = r"(?:[0-9]+ [0-9]+|#(?!\s*n\s*=)[^\n]*)"
PLAIN_BLOCK = re.compile(rf"(?:{_PLAIN_LINE}\n)*{_PLAIN_LINE}\n?")


def minplus_distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances by iterated matrix relaxation."""
    n = g.n
    dist = np.full((n, n), UNREACHED, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u in range(n):
        for v in g.adj[u]:
            dist[u, v] = 1
    for _ in range(n):
        relaxed = np.minimum(dist, (dist[:, :, None] + dist[None, :, :]).min(axis=1))
        if np.array_equal(relaxed, dist):
            break
        dist = relaxed
    return dist


def oracle_distance_sum(g: Graph) -> int:
    matrix = minplus_distance_matrix(g)
    assert matrix.max() < UNREACHED, "oracle_distance_sum needs a connected graph"
    return int(matrix.sum())


def _tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    # Random labeled tree via a uniform Pruefer sequence.
    if n == 1:
        return []
    return pruefer_edges([rng.randrange(n) for _ in range(n - 2)], n)


def pruefer_edges(code: list[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on n >= 2 nodes whose Pruefer sequence is
    ``code`` (n - 2 ids in range(n)); each tree has exactly one sequence."""
    child_count = [1] * n
    for x in code:
        child_count[x] += 1
    leaves = [v for v in range(n) if child_count[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        child_count[x] -= 1
        if child_count[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random connected labeled graph: a spanning tree plus random extra edges."""
    edges = {tuple(sorted(e)) for e in _tree_edges(rng, n)}
    extra_prob = rng.random() * 0.5
    for pair in combinations(range(n), 2):
        if pair not in edges and rng.random() < extra_prob:
            edges.add(pair)
    return from_edge_list(sorted(edges), n=n)


def with_pendant_trees(rng: random.Random, g: Graph, extra: int) -> Graph:
    """g with ``extra`` new nodes, each attached to a random earlier node."""
    edges = list(g.edges())
    for new in range(g.n, g.n + extra):
        edges.append((rng.randrange(new), new))
    return from_edge_list(edges, n=g.n + extra)


def all_connected_labeled_graphs(n: int):
    """Yield every connected labeled graph on n nodes (feasible for n <= 6)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if n > 1 and len(edges) < n - 1:
            continue
        g = from_edge_list(edges, n=n)
        stack, seen = [0], {0}
        while stack:
            for w in g.adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            yield g


def contraction_by_definition(g: Graph, v: int) -> tuple[Graph, int, dict[int, int]]:
    """Contract S = N[v] by mapping the edge set: (graph, merged id, old -> new).

    Every node of S becomes one node, edges inside S vanish, parallel edges
    collapse, and survivors are renumbered in ascending order with the merged
    node last.  Built from the edge set alone, not from adjacency rows.
    """
    s = {v, *g.adj[v]}
    survivors = sorted(set(range(g.n)) - s)
    old_to_new = {old: new for new, old in enumerate(survivors)}
    merged = len(survivors)
    edges = set()
    for a, b in g.edges():
        x, y = old_to_new.get(a, merged), old_to_new.get(b, merged)
        if x != y:
            edges.add((min(x, y), max(x, y)))
    return from_edge_list(sorted(edges), n=merged + 1), merged, old_to_new


def contraction_imc_all(g: Graph) -> RankReport:
    """``imc_all``'s report by the definition, from this module alone: each G/v
    by ``contraction_by_definition``, each phi from ``oracle_distance_sum``,
    and the entries sorted by imc descending, ties by ascending id."""
    total = oracle_distance_sum(g)
    phi_g = Fraction(g.n - 1, total)
    entries = []
    for v in range(g.n):
        contracted = contraction_by_definition(g, v)[0]
        k = contracted.n
        phi_v = Fraction(1) if k == 1 else Fraction(k - 1, oracle_distance_sum(contracted))
        entries.append(ImcEntry(node=v, imc=1 - phi_g / phi_v, contracted_order=k))
    entries.sort(key=lambda e: (-e.imc, e.node))
    return RankReport(phi=phi_g, avg_path_length=Fraction(total, g.n * (g.n - 1)),
                      entries=tuple(entries))


def distance_signature(g: Graph) -> tuple:
    """Canonical degree-and-distance signature; equal for isomorphic graphs,
    and distinguishing in practice for the small structured families here."""
    return tuple(sorted(tuple(sorted(bfs_distances(g, v))) for v in range(g.n)))


def random_edge_text(n: int, m: int) -> str:
    """Seeded connected sparse graph as plain "u v" text, edges shuffled:
    a random recursive tree (low ids carry the high degrees) plus extra edges."""
    rng = random.Random("parse-memory")
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return "".join(f"{u} {v}\n" for u, v in rng.sample(sorted(edges), m))


def graph_bytes(g: Graph) -> int:
    """The graph's own memory.  tracemalloc would miss the tuples that CPython
    takes from its free lists, which the graphs of earlier tests fill."""
    ints = {id(x): x for nbrs in g.adj for x in nbrs}.values()
    return sys.getsizeof(g.adj) + sum(map(sys.getsizeof, g.adj)) + sum(map(sys.getsizeof, ints))


def drain_tuple_free_lists() -> list[tuple]:
    """Take 2,000 tuples of each size 1-20 from CPython's free lists, and return
    them: while the caller holds them, tracemalloc traces every tuple made,
    whatever ran before."""
    return [tuple(range(1000, 1000 + k)) for k in range(1, 21) for _ in range(2000)]

"""Simple undirected graphs on dense integer ids: parsing, BFS, distance sums.

The edge-list text format is one edge per line ("u v", decimal ids), '#'
comment lines, blank lines ignored.  An optional "# n=<order>" comment fixes
the order explicitly, which is the only way to represent nodes that appear in
no edge.  Canonical output sorts edges by (min id, max id) with the smaller
id first on each line.
"""

from __future__ import annotations

import re
from collections import deque
from functools import reduce
from itertools import accumulate, compress, count
from operator import itemgetter, mul, or_, xor
from typing import Callable, Iterable, Iterator, NoReturn

from .errors import ConnectivityError, DegenerateOrderError, EdgeListError

_ORDER_HEADER = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


class Graph:
    """Immutable simple undirected graph on node ids 0..n-1.

    ``adj[v]`` is the sorted tuple of neighbors of v.  Adjacency is symmetric
    and loop-free.  Instances behave as plain values (equality is structural)
    and every operation in this module is a pure read, so graphs can be shared
    freely between threads.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...]):
        self.n = n
        self.adj = adj

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in canonical order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield u, v

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())!r})"


def _check_node(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise IndexError(f"node {v} out of range for graph of order {g.n}")


def _build(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(tuple(sorted(nbrs)) for nbrs in adj))


def _validated(
    edges: Iterable[tuple[int, int]],
    declared: Callable[[], int | None],
    line_of: Callable[[int], int] | None = None,
) -> tuple[int, list[tuple[int, int]]]:
    """Check edges and fix the order; return (order, canonical pairs).

    Rejects negative ids, self-loops and duplicates as the edges arrive, then
    ids at or above ``declared()``, which is read only once every edge is in
    (a "# n=" header may follow the edges).  With no declared order the order
    is 1 + the largest id.  An error names edge i by its line ``line_of(i)``
    when given, else as "edge i".
    """

    def error(i: int, message: str) -> EdgeListError:
        if line_of is None:
            return EdgeListError(f"edge {i}: {message}")
        return EdgeListError(message, line=line_of(i))

    seen: set[tuple[int, int]] = set()
    pairs: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(edges):
        key = (u, v) if u < v else (v, u)
        if key[0] < 0:
            raise error(i, f"negative node id in '{u} {v}'")
        if u == v:
            raise error(i, f"self-loop at node {u}")
        if key in seen:
            raise error(i, f"duplicate edge {u} {v}")
        seen.add(key)
        pairs.append(key)
    n = declared()
    top = max(map(itemgetter(1), pairs), default=-1)
    if n is None:
        if top < 0:
            raise EdgeListError("no edges and no declared order; graph order unknown")
        return top + 1, pairs
    if top >= n:
        i = next(i for i, (_, v) in enumerate(pairs) if v >= n)
        raise error(i, f"node id {pairs[i][1]} outside declared order n={n}")
    return n, pairs


def from_edge_list(edges: Iterable[tuple[int, int]], n: int | None = None) -> Graph:
    """Build a graph from (u, v) pairs, rejecting self-loops and duplicates.

    If ``n`` is omitted the order is 1 + the largest id appearing.  With an
    explicit ``n``, ids must all be below it; ids in [0, n) that appear in no
    edge become isolated nodes.
    """
    if n is not None and n < 1:
        raise EdgeListError(f"order must be at least 1, got n={n}")
    return _build(*_validated(edges, lambda: n))


def parse_edge_list(text: str, *, connected: bool = False) -> Graph:
    """Parse the edge-list text format; errors carry the offending line number.

    With ``connected``, fewer than n - 1 edges fail before n nodes are allocated.
    """
    declared_n: int | None = None
    lines: list[int] = []

    def edges() -> Iterator[tuple[int, int]]:
        nonlocal declared_n
        for line_no, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                m = _ORDER_HEADER.match(stripped)
                if m:
                    if declared_n is not None:
                        raise EdgeListError("second '# n=' header", line=line_no)
                    declared_n = int(m.group(1))
                    if declared_n < 1:
                        raise EdgeListError("declared order must be at least 1", line=line_no)
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise EdgeListError(f"expected two node ids, got {stripped!r}", line=line_no)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListError(f"non-integer node id in {stripped!r}", line=line_no) from None
            lines.append(line_no)
            yield u, v

    n, pairs = _validated(edges(), lambda: declared_n, lines.__getitem__)
    if connected and len(pairs) < n - 1:
        raise ConnectivityError(
            f"{len(pairs)} edges cannot connect {n} nodes (ids not dense?): a node is unreachable")
    return _build(n, pairs)


def to_edge_list(g: Graph) -> str:
    """Serialize canonically; round-trips through parse_edge_list.

    A "# n=<order>" header is emitted only when the edges alone do not pin the
    order, that is when the last node has no neighbor (isolated trailing
    nodes, or an edgeless single-node graph).
    """
    lines = [f"# n={g.n}\n"] if g.adj and not g.adj[-1] else []
    lines += [f"{u} {v}\n" for u, nbrs in enumerate(g.adj) for v in nbrs if v > u]
    return "".join(lines)


def degree(g: Graph, v: int) -> int:
    """Number of neighbors of v."""
    _check_node(g, v)
    return len(g.adj[v])


def _bfs(g: Graph, source: int) -> list[int]:
    # Hop distances from source; -1 marks unreached nodes.
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque((source,))
    adj = g.adj
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Exact hop distances from source to every node; the graph must be connected."""
    _check_node(g, source)
    dist = _bfs(g, source)
    for v, d in enumerate(dist):
        if d < 0:
            raise ConnectivityError(
                f"node {v} is unreachable from node {source}", unreachable=v
            )
    return dist


def is_connected(g: Graph) -> bool:
    """True iff a BFS from node 0 reaches every node."""
    return all(d >= 0 for d in _bfs(g, 0))


def _disconnected(g: Graph) -> NoReturn:
    bfs_distances(g, 0)  # g is disconnected: the BFS raises, naming a node
    raise AssertionError("a BFS reached every node of a disconnected graph")


def distance_sum(g: Graph) -> int:
    """Total shortest-path length over all ordered node pairs.

    Each unordered pair is counted twice, so the result is always even.

    Pendant trees are peeled off first: a leaf merges into its neighbor,
    which then stands for w nodes at a summed distance s from it, and the
    pairs inside a merged tree are counted as it grows.  A tree peels down to
    one node.  On what is left (the core, where no node is a leaf) every
    source is searched at once, with w bits for a source of weight w:
    ``front[v]`` holds the sources whose distance to v is the current level,
    and a node that has seen every source leaves the search.  A pair of core
    nodes x, y then adds w(x) * w(y) * d(x, y), and each core node x adds
    s(x) * (n - w(x)) in both directions, since trees hang off the core and
    no shortest path runs through one.  The n source bits go in blocks of at
    most ``_BLOCK_BITS // core order``, so a list of bitsets stays near 16 MiB.
    g is disconnected when a leaf or core node has no neighbor left, or when a
    level reaches nothing while a node is still open; only then does a BFS
    from node 0 run, to name an unreachable node in the ``ConnectivityError``.
    """
    if g.n < 2:
        raise DegenerateOrderError("distance sum requires at least two nodes")
    n, adj = g.n, g.adj
    degree = [len(nbrs) for nbrs in adj]
    weight = [1] * n
    spread = [0] * n
    alive = [True] * n
    total = 0
    remaining = n
    leaves = [v for v in range(n) if degree[v] == 1]
    while leaves and remaining > 1:
        leaf = leaves.pop()
        if not degree[leaf]:
            _disconnected(g)
        alive[leaf] = False
        remaining -= 1
        u = next(w for w in adj[leaf] if alive[w])
        a, b = weight[leaf], weight[u]
        total += 2 * (spread[leaf] * b + a * b + a * spread[u])
        spread[u] += spread[leaf] + a
        weight[u] += a
        degree[u] -= 1
        if degree[u] == 1:
            leaves.append(u)
    if remaining == 1:
        return total
    core = [v for v in range(n) if alive[v]]
    if not all(map(degree.__getitem__, core)):
        _disconnected(g)
    total += 2 * sum(spread[v] * (n - weight[v]) for v in core)
    return total + _weighted_core_sum(g, core, weight)


# Bits per source block times core order: 2^27 bits is 16 MiB per bitset list.
_BLOCK_BITS = 1 << 27


def _weighted_core_sum(g: Graph, core: list[int], weight: list[int]) -> int:
    # Sum of w(x) * w(y) * d(x, y) over ordered pairs of core nodes, by an
    # all-sources BFS over g's ids (peeled nodes keep front 0) in which source
    # x owns w(x) bits, so a popcount weighs the sources; the n bits are split
    # into blocks of bit positions.  Only nodes with unseen sources are searched.
    n, adj = g.n, g.adj
    weights = [weight[x] for x in core]
    ends = list(accumulate(weights))
    block = max(1, _BLOCK_BITS // len(core))
    total = 0
    for lo in range(0, n, block):
        full = (1 << min(block, n - lo)) - 1
        live = core
        new = [((1 << end) - (1 << end - w)) >> lo & full for w, end in zip(weights, ends)]
        unseen = [full ^ f for f in new]
        for level in count(1):
            front = [0] * n
            for x, f in zip(live, new):
                front[x] = f
            live, unseen = list(compress(live, unseen)), list(filter(None, unseen))
            if not live:
                break
            get = front.__getitem__
            new = [reduce(or_, map(get, adj[x])) & u for x, u in zip(live, unseen)]
            reached = sum(map(mul, map(weight.__getitem__, live), map(int.bit_count, new)))
            if not reached:
                _disconnected(g)
            total += level * reached
            unseen = list(map(xor, unseen, new))
    return total

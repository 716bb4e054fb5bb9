"""Simple undirected graphs on dense integer ids: parsing, BFS, distance sums.

The edge-list text format is one edge per line ("u v", ASCII decimal ids),
'#' comment lines, blank lines ignored.  An optional "# n=<order>" comment
fixes the order explicitly, which is the only way to represent nodes that
appear in no edge.  Canonical output sorts edges by (min id, max id) with the
smaller id first on each line.

Every graph is built by ``_from_blocks`` through a node table, with one int
object per node, and a self-loop or a duplicate is found from the built
adjacency.  Plain text ("u v" lines of ASCII digits and one space, and
comment lines that start the line and are no order header) parses this way
in bulk, checked and split one block of lines at a time; it declines ids at
or above a bound taken from the count of edge lines.  The bulk path reads
every line break of ``str.splitlines()`` as "\n" (``_newlines_only``).
Anything else, plain text with a fault, or such an id goes line by line
through ``_validated``, which gives the same graph and is the only code that
raises.  ``from_edge_list`` builds the same way and names a fault from
``_validated``.  ``contraction.contract_text`` renumbers the same plain blocks
on their way to ``_from_blocks``, to build a contracted graph without its
input graph.  ``to_edge_list`` joins the blocks of ``_edge_lines``, which the
``contract`` command writes one at a time.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, compress, count
from operator import itemgetter, mul, or_, xor
from typing import Callable, Iterable, Iterator, NoReturn

from .errors import ConnectivityError, DegenerateOrderError, EdgeListError

_ORDER_HEADER = re.compile(r"#\s*n\s*=\s*([0-9]+)\s*$")
# A node id on the line path: ASCII decimal, with a sign only to be refused as
# negative.  int() alone also reads "+1", "1_0" and non-ASCII digits.
_NODE_ID = re.compile(r"-?[0-9]+")
# The line breaks of str.splitlines() other than "\n".
_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# One line of plain text: "u v" in ASCII digits, or a comment that starts the
# line and is no order header.
_PLAIN_LINE = r"(?:[0-9]+ [0-9]+|#(?!\s*n\s*=)[^\n]*)"
# One or more plain lines, the last newline optional.
_PLAIN = re.compile(rf"(?:{_PLAIN_LINE}\n)*{_PLAIN_LINE}\n?")
_COMMENT_LINE = re.compile(r"^#.*\n?", re.MULTILINE)
# Plain text is checked and split in blocks of about this many characters,
# each ending at a newline, so the regex and the split hold one block at a time.
_BLOCK_CHARS = 1 << 14
# from_edge_list flattens this many edges at a time into the node table.
_BLOCK_EDGES = 1 << 12
# to_edge_list joins the lines of this many nodes at a time.
_WRITE_NODES = 4096


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple undirected graph on node ids 0..n-1.

    ``adj[v]`` is the sorted tuple of neighbors of v.  Adjacency is symmetric
    and loop-free.  Instances behave as plain values (equality is structural)
    and every operation in this module is a pure read, so graphs can be shared
    freely between threads.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in canonical order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield u, v

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())!r})"


def _check_node(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise IndexError(f"node {v} out of range for graph of order {g.n}")


def _validated(
    edges: Iterable[tuple[int, int]],
    declared: Callable[[], int | None],
    line_of: Callable[[int], int] | None = None,
    connected: bool = False,
) -> Graph:
    """Check edges, fix the order and build the graph through the node table.

    Rejects negative ids, self-loops and duplicates as the edges arrive, then
    ids at or above ``declared()``, which is read only once every edge is in
    (a "# n=" header may follow the edges).  With no declared order the order
    is 1 + the largest id.  With ``connected``, fewer than n - 1 edges fail
    before n nodes are allocated.  An error names edge i by its line
    ``line_of(i)`` when given, else as "edge i".
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
    del seen  # the graph is built without it
    n = declared()
    top = max(map(itemgetter(1), pairs), default=-1)
    if n is None:
        if top < 0:
            raise EdgeListError("no edges and no declared order; graph order unknown")
        n = top + 1
    elif top >= n:
        i = next(i for i, (_, v) in enumerate(pairs) if v >= n)
        raise error(i, f"node id {pairs[i][1]} outside declared order n={n}")
    if connected and len(pairs) < n - 1:
        raise ConnectivityError(
            f"{len(pairs)} edges cannot connect {n} nodes (ids not dense?): a node is unreachable")
    return _from_blocks(_edge_blocks(pairs), n, n, simple=True)


def _from_blocks(blocks: Iterable[list[int] | None], limit: int, order: int = 0, *,
                 connected: bool = False, simple: bool = False) -> Graph | None:
    """Build through a node table from blocks of flat ids u0, v0, u1, v1, ...

    ``node[i] is i``, so the graph holds one int object per node.  The order is
    the larger of ``order`` and 1 + the largest id.  None, without naming the
    fault, as soon as a block is None or holds an id outside [0, limit), when
    the graph would have no node or, with ``connected``, fewer than n - 1
    edges, or when a self-loop or a duplicate leaves a repeat in some
    neighbour list.  ``simple`` says the caller has already ruled out every
    self-loop and duplicate, so the neighbour lists are not searched again.
    """
    node: list[int] = []
    adj: list[list[int]] = []
    m = 0
    for ids in blocks:
        if ids is None:
            return None
        if not ids:
            continue
        top = max(ids)
        if top >= limit or min(ids) < 0:
            return None
        if top >= len(node):
            adj += [[] for _ in range(len(node), top + 1)]
            node += range(len(node), top + 1)
        pairs = map(node.__getitem__, ids)
        for u, v in zip(pairs, pairs):
            adj[u].append(v)
            adj[v].append(u)
        m += len(ids) // 2
    adj += [[] for _ in range(len(adj), order)]
    if not adj or (connected and m < len(adj) - 1):
        return None
    if not simple and sum(map(len, map(set, adj))) != 2 * m:
        return None
    # Sort each list in place and swap in its tuple, one list at a time.
    for v, nbrs in enumerate(adj):
        nbrs.sort()
        adj[v] = tuple(nbrs)
    return Graph(len(adj), tuple(adj))


def from_edge_list(edges: Iterable[tuple[int, int]], n: int | None = None) -> Graph:
    """Build a graph from (u, v) pairs, rejecting self-loops and duplicates.

    If ``n`` is omitted the order is 1 + the largest id appearing.  With an
    explicit ``n``, ids must all be below it; ids in [0, n) that appear in no
    edge become isolated nodes.  The edges are built through the node table;
    only a fault, or without ``n`` an id of 2m or more, goes to ``_validated``,
    which names the first bad edge.
    """
    if n is not None and n < 1:
        raise EdgeListError(f"order must be at least 1, got n={n}")
    edges = edges if isinstance(edges, list) else list(edges)
    limit = 2 * len(edges) if n is None else n
    return _from_blocks(_edge_blocks(edges), limit, n or 0) or _validated(edges, lambda: n)


def _edge_blocks(edges: list[tuple[int, int]]) -> Iterator[list[int] | None]:
    # u0, v0, u1, v1, ... of each block of edges; None once an edge is no pair.
    for lo in range(0, len(edges), _BLOCK_EDGES):
        block = edges[lo:lo + _BLOCK_EDGES]
        ids = list(chain.from_iterable(block))
        yield ids if len(ids) == 2 * len(block) else None


def parse_edge_list(text: str, *, connected: bool = False) -> Graph:
    """Parse the edge-list text format; errors carry the offending line number.

    With ``connected``, fewer than n - 1 edges fail before n nodes are allocated.
    Plain text, comment lines and any line break of ``str.splitlines()``
    included but no order header, takes a bulk path with the same result; the
    line path decides every other text and raises every error.
    """
    return _parse_plain(text, connected) or _parse_lines(text, connected)


def _parse_plain(text: str, connected: bool) -> Graph | None:
    # The graph of plain text, one block of lines at a time; None whenever
    # the text is not plain or holds a fault, so that the line path names it.
    text, bound = _plain_text(text, connected)
    return _from_blocks(_plain_blocks(text), bound, connected=connected)


def _plain_text(text: str, connected: bool) -> tuple[str, int]:
    # The text with "\n" line breaks, and the bound that plain text's ids stay
    # below.  An id at or above it would leave a node in no edge (or, under
    # connected, too few edges), so the table of ids never outgrows the edge
    # lines.  In plain text every comment line starts the text or follows "\n".
    text = _newlines_only(text)
    edge_lines = text.count("\n") + 1 - text.count("\n#") - text.startswith("#")
    return text, edge_lines + 1 if connected else 2 * edge_lines


def _newlines_only(text: str) -> str:
    # text with each line break of str.splitlines() written as "\n": every line
    # keeps its text and its number, and only a line break that ends the text goes.
    if any(c in text for c in _LINE_BREAKS):
        return "\n".join(text.splitlines())
    return text


def _plain_blocks(text: str) -> Iterator[list[int] | None]:
    # The ids of each block of whole lines, comment lines stripped; None, and
    # no more, once a block is not plain.
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(text)
        if not _PLAIN.fullmatch(text, start, end):
            yield None
            return
        block = text[start:end]
        if "#" in block:
            block = _COMMENT_LINE.sub("", block)
        try:
            ids = list(map(int, block.split()))
        except ValueError:  # an id longer than int() accepts
            ids = None
        yield ids
        start = end


def _node_id(token: str) -> int:
    if not _NODE_ID.fullmatch(token):
        raise ValueError(token)
    return int(token)


def _parse_lines(text: str, connected: bool) -> Graph:
    # The parser of record: line by line, every fault named with its line.
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
                u, v = map(_node_id, parts)
            except ValueError:
                raise EdgeListError(f"non-integer node id in {stripped!r}", line=line_no) from None
            lines.append(line_no)
            yield u, v

    return _validated(edges(), lambda: declared_n, lines.__getitem__, connected)


def to_edge_list(g: Graph) -> str:
    """Serialize canonically; round-trips through parse_edge_list.

    A "# n=<order>" header is emitted only when the edges alone do not pin the
    order, that is when the last node has no neighbor (isolated trailing
    nodes, or an edgeless single-node graph).
    """
    return "".join(_edge_lines(g))


def _edge_lines(g: Graph) -> Iterator[str]:
    # to_edge_list's text, the lines of _WRITE_NODES nodes at a time.
    adj = g.adj
    if adj and not adj[-1]:
        yield f"# n={g.n}\n"
    for lo in range(0, g.n, _WRITE_NODES):
        rows = enumerate(adj[lo:lo + _WRITE_NODES], lo)
        yield "".join([f"{u} {v}\n" for u, nbrs in rows for v in nbrs if v > u])


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


def _peel(g: Graph) -> tuple[int, list[int], list[int], list[int], list[tuple[int, int]]]:
    """Peel pendant trees off g: (pairs, core, weight, spread, peeled).

    A leaf merges into its neighbor, which then stands for w nodes at summed
    distance s from it; pairs counts the ordered pairs inside merged trees,
    and peeled lists each (leaf, neighbor) in peel order.  The core is what
    is left.  A tree peels down to one node: pairs is then its distance sum,
    a leaf's w its subtree size about that node, and the node's s its row
    sum.  g is disconnected when a leaf or core node has no neighbor left;
    only then does a BFS from node 0 run, to name an unreachable node.
    """
    n, adj = g.n, g.adj
    degree = [len(nbrs) for nbrs in adj]
    weight = [1] * n
    spread = [0] * n
    alive = [True] * n
    peeled = []
    total = 0
    leaves = [v for v in range(n) if degree[v] == 1]
    while leaves and len(peeled) < n - 1:
        leaf = leaves.pop()
        if not degree[leaf]:
            _disconnected(g)
        alive[leaf] = False
        u = next(w for w in adj[leaf] if alive[w])
        peeled.append((leaf, u))
        a, b = weight[leaf], weight[u]
        total += 2 * (spread[leaf] * b + a * b + a * spread[u])
        spread[u] += spread[leaf] + a
        weight[u] += a
        degree[u] -= 1
        if degree[u] == 1:
            leaves.append(u)
    core = [v for v in range(n) if alive[v]]
    if len(core) > 1 and not all(map(degree.__getitem__, core)):
        _disconnected(g)
    return total, core, weight, spread, peeled


def distance_sum(g: Graph) -> int:
    """Total shortest-path length over all ordered node pairs.

    Each unordered pair is counted twice, so the result is always even.

    Pendant trees are peeled off first (``_peel``); a tree peels down to one
    node, and a core of one node adds nothing.  On what is left (the core,
    where no node is a leaf) every source is searched at once, with w bits for
    a source of weight w: ``front[v]`` holds the sources whose distance to v is
    the current level, and a node that has seen every source leaves the search.
    A pair of core nodes x, y then adds w(x) * w(y) * d(x, y), and each core
    node x adds s(x) * (n - w(x)) in both directions, since trees hang off the
    core and no shortest path runs through one.  The n source bits go in blocks
    of at most ``_BLOCK_BITS // core order``, so a list of bitsets stays near
    16 MiB.  g is also disconnected when a level reaches nothing while a node
    is still open, and again a BFS from node 0 names an unreachable node.
    """
    if g.n < 2:
        raise DegenerateOrderError("distance sum requires at least two nodes")
    total, core, weight, spread, _ = _peel(g)
    total += 2 * sum(spread[v] * (g.n - weight[v]) for v in core)
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

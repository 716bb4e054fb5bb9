"""Simple undirected graphs on dense integer ids: parsing, BFS, distance sums.

The edge-list text format is one edge per line ("u v", ASCII decimal ids),
'#' comment lines, blank lines ignored.  An optional "# n=<order>" comment
fixes the order explicitly, which is the only way to represent nodes that
appear in no edge.  Canonical output sorts edges by (min id, max id) with the
smaller id first on each line.

Every graph is built through a node table, with one int object per node:
``_from_blocks`` sorts its neighbour lists, in which a self-loop or a
duplicate is found, and makes them tuples; the nodes in no edge share ``()``.
Plain text ("u v" lines of ASCII digits and one space, and comment lines that
start the line and are no order header) parses this way in bulk, split one
block of lines at a time; it declines ids at or above a bound taken from the
count of edge lines.  ``_plain_text`` decides once, for the whole text, whether it is plain,
by matching its first line and searching for a newline before a line that is
not plain, which holds no state from line to line.  The bulk path reads
every line break of ``str.splitlines()`` as "\n" (``_newlines_only``).
Anything else, plain text with a fault, or such an id goes line by line
through ``_validated``, which gives the same graph and is the only code that
raises.  ``from_edge_list`` builds the same way and names a fault from
``_validated``.  ``contraction.contract_text`` reads the same plain blocks,
and the lines that hold its node (``_ends_beside``, by ``_PLAIN_LINE``'s
syntax), to build G/v in flat int arrays, without its input graph, and
raises what the one breadth-first search (``_bfs``) raises on a disconnected
input (``_unreachable``).  That search and the writer of ``to_edge_list``
(``_edge_lines``) read rows by index, ``row(u)``, so they serve both a
``Graph``'s tuples and the flat rows that ``contract_text`` makes of text in
any order but the canonical one.  Every text writer, the edges', the
``contract`` command's, ``gen``'s and the reports' grids, hands its lines to
one joiner, ``_blocks``, which joins them ``_BLOCK_LINES`` at a time.

The "# class <id> <label>" lines of labeled text are found here too
(``scan_class_comments``), by one search of the text, so ``rank`` reads
them without the family registry, which imports the scan back.  ``_Record``
is the value-record base, with no ``dataclasses``, of ``Graph``,
``contraction.ContractionResult`` and the records of ``families`` and
``verify``; ``_frozen`` freezes ``_FrozenRecord`` and the engine's NamedTuples.
"""

from __future__ import annotations

import re
import sys
from functools import reduce
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import itemgetter, mul, or_, xor
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .errors import ConnectivityError, DegenerateOrderError, EdgeListError

_ORDER_HEADER = re.compile(r"#\s*n\s*=\s*([0-9]+)\s*$")
# A node id on the line path: ASCII decimal, with a sign only on a nonzero id,
# to be refused as negative; "-0" is no id.  int() alone also reads "+1",
# "1_0", "-0" and non-ASCII digits.
_NODE_ID = re.compile(r"[0-9]+|-0*[1-9][0-9]*")
# The line breaks of str.splitlines() other than "\n".
_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# One whole line of plain text: "u v" in ASCII digits, or a comment that starts
# the line and is no order header.  ``_ends_beside`` finds a node's edge lines
# by this syntax, so the two change together.
_PLAIN_LINE = re.compile(r"(?:[0-9]+ [0-9]+|#(?!\s*n\s*=)[^\n]*)(?:\n|\Z)")
# A newline that starts a line that is not plain: searched for, it keeps no
# state per line, as one pattern matched over the whole text would.
_NOT_PLAIN = re.compile(rf"\n(?!{_PLAIN_LINE.pattern})")
_COMMENT_LINE = re.compile(r"^#.*\n?", re.MULTILINE)
# A whole "# class <id> <label>" line, found in the text itself: "\n" ends a
# line (``_matching_lines`` writes other line breaks as "\n" first), and
# whitespace around and between fields is any but "\n", as str.strip() sees it.
_CLASS_LINE = re.compile(
    r"^[^\S\n]*#[^\S\n]*class[^\S\n]+([0-9]+)[^\S\n]+(\S+)[^\S\n]*$", re.MULTILINE)
# Plain text is split in blocks of about this many characters, each ending at
# a newline, so the split holds one block at a time.
# The split's strings take 10-14 bytes per character of "u v" lines; 4 KiB
# blocks parse as fast as 16 KiB ones and hold a quarter of that.
_BLOCK_CHARS = 1 << 12
# from_edge_list flattens this many edges at a time into the node table.
_BLOCK_EDGES = 1 << 12
# Every text writer joins this many lines at a time (``_blocks``).
_BLOCK_LINES = 4096
# The most rows a graph's tuple can hold: CPython refuses a longer tuple.
_MAX_ORDER = sys.maxsize // 8
# A message quotes a line, or an option's value, of up to this many
# characters, and names a longer one by its length.
_QUOTED = 80


def _frozen(self, name: str, *value) -> NoReturn:
    # __setattr__ and __delattr__ of a frozen value class, raising as a frozen
    # dataclass does; dataclasses is loaded only when one is called.
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class _Record:
    """A value class whose fields are its ``__slots__`` less ``__dict__``, in
    order, as a dataclass's are its annotated names, without loading
    ``dataclasses``; ``_fields`` names them, worked out once per class.

    It is made by position or by keyword, each field once, and then checked
    by ``_check()``.  It equals only a value of its own class with equal
    fields, shows as ``Name(field=value, ...)`` and pickles by its fields.
    ``_FrozenRecord`` also refuses to assign or delete a field, as a frozen
    dataclass does (``_frozen``), and hashes by its fields.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(field for field in cls.__slots__ if field != "__dict__")

    def __init__(self, *args, **kwargs) -> None:
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        for field, value in zip(fields, args):
            if field in kwargs:
                raise TypeError(f"{name}() got multiple values for field {field!r}")
            object.__setattr__(self, field, value)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing field {field!r}")
            object.__setattr__(self, field, kwargs.pop(field))
        if kwargs:
            raise TypeError(f"{name}() got an unexpected field {next(iter(kwargs))!r}")
        self._check()

    def _check(self) -> None:
        """Refuse field values that make no value of this class."""

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        pairs = (f"{field}={value!r}" for field, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    def __reduce__(self):
        return self.__class__, self._values()


class _FrozenRecord(_Record):
    __slots__ = ()
    __setattr__ = __delattr__ = _frozen

    def __hash__(self) -> int:
        return hash(self._values())


class Graph(_FrozenRecord):
    """Immutable simple undirected graph on node ids 0..n-1.

    ``adj[v]`` is the sorted tuple of neighbors of v.  Adjacency is symmetric
    and loop-free.  Instances behave as plain values (equality is structural)
    and every operation in this module is a pure read, so graphs can be shared
    freely between threads.
    """

    __slots__ = ("n", "adj")

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


def _digits(x: int) -> int:
    # The decimal digits of |x| >= 10, counted without writing x: an order,
    # 1 + the largest id, may have one digit more than str() writes.
    return len(str(abs(x) // 10)) + 1


def _id(x: int) -> str:
    # x for a message, or, wider than 64 bits, its digit count.
    return str(x) if abs(x).bit_length() <= 64 else f"{'-' * (x < 0)}<{_digits(x)} digits>"


def _quoted(text: str, what: str = "line") -> str:
    return repr(text) if len(text) <= _QUOTED else f"a {what} of {len(text)} characters"


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
            raise error(i, f"negative node id in '{_id(u)} {_id(v)}'")
        if u == v:
            raise error(i, f"self-loop at node {_id(u)}")
        if key in seen:
            raise error(i, f"duplicate edge {_id(u)} {_id(v)}")
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
        raise error(i, f"node id {_id(pairs[i][1])} outside declared order n={_id(n)}")
    if connected and len(pairs) < n - 1:
        # An order wider than 64 bits is named by its digit count, not its digits.
        nodes = n if n.bit_length() <= 64 else f"a {_digits(n)}-digit number of"
        raise ConnectivityError(
            f"{len(pairs)} edges cannot connect {nodes} nodes (ids not dense?): a node is unreachable")
    if n > _MAX_ORDER:
        raise EdgeListError(f"order {_id(n)} is too large for a graph")
    return _from_blocks(_edge_blocks(pairs), n, n, simple=True)


def _from_blocks(blocks: Iterable[list[int] | None], limit: int, order: int = 0,
                 simple: bool = False) -> Graph | None:
    """The graph of flat ids u0, v0, u1, ..., built through a node table.

    ``node[i] is i``, so the rows hold one int object per node.  The order is
    the larger of ``order`` and 1 + the largest id, and the nodes above the
    largest id share the empty row ``()``.  None, without naming the fault, as
    soon as a block is None or holds an id outside [0, limit), when ``limit``
    is more nodes than a graph holds, when there would be no node, or when a
    self-loop or a duplicate leaves a repeat in some neighbour list.
    ``simple`` says the caller has already ruled out every self-loop and
    duplicate, so the neighbour lists are not searched again.  The sorted
    lists become tuples from the last node down: an allocator effect, with
    which a 100,000-node parse peaked 1.5 MiB lower in RSS than first-up.
    """
    if limit > _MAX_ORDER:
        return None
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
            node += range(len(node), top + 1)
            adj += [[] for _ in range(len(adj), top + 1)]
        pairs = map(node.__getitem__, ids)
        for u, v in zip(pairs, pairs):
            adj[u].append(v)
            adj[v].append(u)
        m += len(ids) // 2
    if not (adj or order):
        return None
    if not simple and sum(map(len, map(set, adj))) != 2 * m:
        return None
    for nbrs in adj:
        nbrs.sort()
    for v in reversed(range(len(adj))):
        adj[v] = tuple(adj[v])
    if order > len(adj):  # no list of the rows in no edge, which share ()
        return Graph(order, tuple(chain(adj, repeat((), order - len(adj)))))
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
    plain = _plain_text(text, connected)
    return None if plain is None else _from_blocks(_plain_blocks(plain[0]), plain[1])


def _plain_text(text: str, connected: bool) -> tuple[str, int] | None:
    # The text with "\n" line breaks and the bound its ids stay below; None
    # unless its first line, and each line after a "\n" but a final one, is
    # plain.  A final "\n" ends a line and starts none, so each edge line is
    # one of m edges, and an id at or above the bound would give a node in
    # no edge (under connected, over m + 1 nodes).  In plain text every
    # comment line starts the text or follows "\n".
    text = _newlines_only(text)
    stop = len(text) - text.endswith("\n")
    if not _PLAIN_LINE.match(text, 0, stop) or _NOT_PLAIN.search(text, 0, stop):
        return None
    edge_lines = text.count("\n", 0, stop) + 1
    if "#" in text:
        edge_lines -= text.count("\n#") + text.startswith("#")
    return text, edge_lines + 1 if connected else 2 * edge_lines


def _ends_beside(text: str, v: int) -> list[str]:
    # The other end of each edge line of plain text that holds v.  Each
    # search starts with one character, "\n" or " ", which the regex engine
    # skips to; a pattern that starts with "^" is tried at every character.
    ends = re.findall(rf"\n0*{v} ([0-9]+)$", text, re.MULTILINE)
    if first := re.match(rf"0*{v} ([0-9]+)$", text, re.MULTILINE):
        ends.append(first[1])
    for m in re.finditer(rf" 0*{v}$", text, re.MULTILINE):
        start = text.rfind("\n", 0, m.start()) + 1
        if text[start] != "#":  # not a comment line
            ends.append(text[start:m.start()])
    return ends


def _newlines_only(text: str) -> str:
    # text with each line break of str.splitlines() written as "\n": every line
    # keeps its text and its number, and only a line break that ends the text
    # goes.  The same string as "\n".join(text.splitlines()), without a list
    # of every line.
    if any(c in text for c in _LINE_BREAKS):
        text = text.replace("\r\n", "\n").translate(dict.fromkeys(map(ord, _LINE_BREAKS), "\n"))
        return text[:-1] if text.endswith("\n") else text
    return text


def _matching_lines(pattern: re.Pattern, text: str) -> Iterator[tuple[int, re.Match]]:
    """(line number, match) of each line of text that pattern matches whole.

    Lines are numbered as ``str.splitlines()`` cuts them.  The text, its line
    breaks written as "\n", is searched as a whole, with each line number
    counted from the newlines since the last match.
    """
    text = _newlines_only(text)
    line_no, pos = 1, 0
    for m in pattern.finditer(text):
        line_no += text.count("\n", pos, m.start())
        pos = m.start()
        yield line_no, m


def scan_class_comments(text: str) -> dict[int, str]:
    """Collect "# class <id> <label>" lines; labels are kept as raw strings.

    The lines are found by one search of the text, its line breaks written as
    "\n" (``_matching_lines``); a second line for one node is an error at its
    line.
    """
    classes: dict[int, str] = {}
    for line_no, m in _matching_lines(_CLASS_LINE, text):
        v = _int_field(m.group(1), "class comment node id", line_no)
        if v in classes:
            raise EdgeListError(f"repeated class comment for node {_id(v)}", line=line_no)
        classes[v] = m.group(2)
    return classes


def check_class_nodes(classes: dict[int, str], order: int) -> None:
    """Refuse a class comment for a node that a graph of this order lacks."""
    for v in classes:
        if v >= order:
            raise EdgeListError(f"class comment for unknown node {_id(v)}")


def _plain_blocks(text: str) -> Iterator[list[int] | None]:
    # The ids of each block of whole lines of plain text, comment lines
    # stripped; None for a block with an id that int() refuses.
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(text)
        block = text[start:end]
        if "#" in block:
            block = _COMMENT_LINE.sub("", block)
        try:
            ids = list(map(int, block.split()))
        except ValueError:  # an id longer than int() accepts
            ids = None
        yield ids
        start = end


def _int_field(digits: str, what: str, line: int | None = None) -> int:
    # int(digits), or an EdgeListError at line, not quoting the field, for
    # one longer than int() reads (sys.get_int_max_str_digits()).
    try:
        return int(digits)
    except ValueError:
        raise EdgeListError(f"{what} of {len(digits.lstrip('-'))} digits is too long",
                            line=line) from None


def _node_id(token: str, line: int) -> int:
    # A ValueError for a token that is no decimal id; an EdgeListError for an
    # id too long for int().
    if not _NODE_ID.fullmatch(token):
        raise ValueError(token)
    return _int_field(token, "node id", line)


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
                    declared_n = _int_field(m.group(1), "declared order", line_no)
                    if declared_n < 1:
                        raise EdgeListError("declared order must be at least 1", line=line_no)
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise EdgeListError(f"expected two node ids, got {_quoted(stripped)}",
                                    line=line_no)
            try:
                u, v = (_node_id(part, line_no) for part in parts)
            except ValueError:
                raise EdgeListError(f"non-integer node id in {_quoted(stripped)}",
                                    line=line_no) from None
            lines.append(line_no)
            yield u, v

    return _validated(edges(), lambda: declared_n, lines.__getitem__, connected)


def to_edge_list(g: Graph) -> str:
    """Serialize canonically; round-trips through parse_edge_list.

    A "# n=<order>" header is emitted only when the edges alone do not pin the
    order, that is when the last node has no neighbor (isolated trailing
    nodes, or an edgeless single-node graph).
    """
    return "".join(_edge_lines(g.n, g.adj.__getitem__))


def _edge_lines(n: int, row: Callable[[int], Sequence[int]]) -> Iterator[str]:
    # to_edge_list's text of the n sorted rows row(0), row(1), ..., in blocks.
    if n and not row(n - 1):
        yield f"# n={n}\n"
    yield from _blocks(f"{u} {v}\n" for u in range(n) for v in row(u) if v > u)


def _blocks(lines: Iterable[str]) -> Iterator[str]:
    # The one joiner of every text writer: the lines, _BLOCK_LINES at a time,
    # each block joined when it is asked for, so a writer holds one block.
    lines = iter(lines)
    while block := "".join(islice(lines, _BLOCK_LINES)):
        yield block


def degree(g: Graph, v: int) -> int:
    """Number of neighbors of v."""
    _check_node(g, v)
    return len(g.adj[v])


def _bfs(n: int, row: Callable[[int], Iterable[int]],
         source: int) -> tuple[memoryview, list[int]]:
    # The nodes a breadth-first search from source reaches over the n rows
    # row(0), row(1), ..., in search order in a flat buffer of C ints, and
    # where each level ends in it: distance d holds order[ends[d - 1]:ends[d]],
    # from 0 at d = 0.  No int object and no distance is kept per node.
    seen = bytearray(n)
    seen[source] = 1
    order = memoryview(bytearray(4 * n)).cast("i")
    order[0] = source
    ends = []
    start, end = 0, 1
    while start < end:
        ends.append(end)
        for u in order[start:end]:
            for w in row(u):
                if not seen[w]:
                    seen[w] = 1
                    order[end] = w
                    end += 1
        start = ends[-1]
    return order[:end], ends


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Exact hop distances from source to every node; the graph must be connected."""
    _check_node(g, source)
    order, ends = _bfs(g.n, g.adj.__getitem__, source)
    dist = [-1] * g.n
    for d, (start, end) in enumerate(zip([0, *ends], ends)):
        for u in order[start:end]:
            dist[u] = d
    if len(order) < g.n:
        raise _unreachable(dist.index(-1), source)
    return dist


def _unreachable(v: int, source: int) -> ConnectivityError:
    # The error of a search from source that does not reach node v, the lowest.
    return ConnectivityError(f"node {v} is unreachable from node {source}", unreachable=v)


def is_connected(g: Graph) -> bool:
    """True iff a BFS from node 0 reaches every node."""
    return len(_bfs(g.n, g.adj.__getitem__, 0)[0]) == g.n


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

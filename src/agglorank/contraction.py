"""Node contraction: merge a node and its entire neighborhood into one node.

``contract`` contracts a built graph.  ``contract_text`` builds G/v from plain
text (``graph._plain_text``), a str or a regular file, without the input
graph and without ever holding the whole text: it reads the text twice, in
pieces of whole lines.  The first pass checks each piece plain, counts its
edge lines and finds N(v); the second renumbers each piece's id blocks, less
the edges that touch N[v], through a node table into one flat int array of
G/v's edges, canonical if the text is and otherwise sorted into canonical
columns (``_sorted_edges``).  G is checked connected by a union-find over
them, and G/v is written from them.  Nothing is made per node.  The merged
node is G/v's last id, n(G/v) - 1.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from functools import cached_property
from itertools import (accumulate, chain, compress, count, filterfalse, islice, pairwise, repeat,
                       zip_longest)
from operator import eq, lt
from stat import S_ISREG
from typing import TYPE_CHECKING, BinaryIO, Iterator, Sequence

from .errors import DegenerateOrderError
from .graph import (_BLOCK_CHARS, Graph, _blocks, _check_node, _ends_beside, _FrozenRecord,
                    _newlines_only, _plain_blocks, _plain_text, _unreachable)

if TYPE_CHECKING:
    from array import array

# The typecode of G/v's flat arrays, C int: the ids and the m sort offsets of
# a text of fewer than 2^30 lines fit it, and a longer text (over 4 GiB)
# declines.
_ID = "i"
# contract_text reads its text in pieces of this many characters, or bytes of
# a file, and the rest of the line the last of them is in.
_PIECE = 16 * _BLOCK_CHARS


class ContractionResult(_FrozenRecord):
    """Outcome of contracting one node.

    ``graph`` has order n - deg(v).  ``merged_into`` is the id of the merged
    node in the new graph.  ``new_ids[old]`` is the new id of every old node:
    survivors have 0, 1, ... in ascending old-id order, and the contracted
    node and its neighbors have ``merged_into``.  Its ids are the int objects
    of ``graph``, so the map costs one list slot per old node.  ``old_to_new``
    maps each surviving old id to its new id, iterating in ascending old-id
    order; it is built on first read, so a result that is never asked for it
    holds no dict, as ``__dict__`` holds only that cache.  Results are frozen
    records (``graph._FrozenRecord``), unhashable, as ``new_ids`` is a list.
    """

    __slots__ = ("graph", "merged_into", "new_ids", "__dict__")

    @cached_property
    def old_to_new(self) -> dict[int, int]:
        merged = self.merged_into
        return {old: new for old, new in enumerate(self.new_ids) if new != merged}


def contract(g: Graph, v: int) -> ContractionResult:
    """Replace v and all of N(v) by a single new node.

    Let S = {v} union N(v).  Edges between survivors are kept, every edge from
    a survivor into S reattaches to the merged node (parallel copies collapse),
    and edges inside S disappear.  Survivors are renumbered 0.. in ascending
    old-id order; the merged node always takes the largest id in the result,
    so the output is deterministic.  Contracting any node of a 2-node graph
    (or of any graph whose node set equals S) yields the 1-node graph.
    """
    if g.n < 2:
        raise DegenerateOrderError("cannot contract a node of a 1-node graph")
    _check_node(g, v)
    adj = g.adj
    removed = set(adj[v])
    removed.add(v)
    merged = g.n - len(removed)
    # new_of renumbers every old id: survivors in order, all of S to merged.
    # Survivor order is kept and merged is the largest id, so each list is
    # born sorted once its copies of merged are moved to the end as one.
    new_of = [merged] * g.n
    for old, new in zip(filterfalse(removed.__contains__, range(g.n)), count()):
        new_of[old] = new
    renumber = new_of.__getitem__
    rows: list[tuple[int, ...]] = []
    touching: list[int] = []
    for old, new in enumerate(new_of):
        if new == merged:
            continue
        nbrs = tuple(list(map(renumber, adj[old])))
        if merged in nbrs:
            nbrs = (*[w for w in nbrs if w != merged], merged)
            touching.append(new)
        rows.append(nbrs)
    rows.append(tuple(touching))
    contracted = Graph(merged + 1, tuple(rows))
    return ContractionResult(graph=contracted, merged_into=merged, new_ids=new_of)


def contract_text(text: str | BinaryIO,
                  v: int) -> tuple[int, Iterator[str], Iterator[int]] | str | BinaryIO:
    """Contract v in plain, connected edge-list text without building its graph.

    The text is a str or a file open in binary.  Returns the order n of G/v,
    whose last id n - 1 is the merged node, the blocks of ``to_edge_list`` of
    G/v, and the surviving old ids in ascending order, whose new ids are 0,
    1, ...: ``contract`` of the parsed text.  Returns the text itself, as
    given, for the parser of record to decide, when it is not plain
    (``graph._plain_text``) or holds a fault, or when no edge holds v (v
    isolated or out of the order); a file is then read whole by the caller,
    as it is when it is not a regular file, not UTF-8 or has a line longer
    than a piece (``_pieces``).  Raises what the parser of record raises
    when G is disconnected.

    No copy of the whole text is held: it is read twice, a piece at a time.
    The first pass checks each piece plain and counts its edge lines, which
    bound the ids, and finds N(v) from the lines that hold v
    (``graph._ends_beside``).  The second reads the pieces again, each the
    first pass read (by its hash), or the text declines, and renumbers each
    block of old ids, less its pairs that touch S = N[v], into one flat
    array of G/v's edges by a node table, which grows over each old id
    once: u becomes u minus the members of S below it, a count fixed
    between two members, so the table grows by ranges.  A self-loop or a
    duplicate on an edge that touches S would vanish, so a set of those
    pairs finds it.

    Canonical text (u < w on each line, lines strictly ascending), checked
    block by block, holds no other repeat and leaves the array canonical; any
    other order is sorted into canonical columns (``_sorted_edges``), which
    find a repeat.  The text is then dropped; G is checked connected
    (``_check_connected``), and G/v is written from the columns
    (``_pair_lines``).  No ``Graph`` is made.
    """
    from array import array  # only contract loads it: rank and phi do not

    edge_lines, others, hashes = 0, [], []
    for piece in _pieces(text):
        # _plain_text gives back a piece with no line break but "\n" as it is.
        if piece is None or (plain := _plain_text(piece, True)) is None or plain[0] is not piece:
            return text
        edge_lines += plain[1] - 1
        others += _ends_beside(piece, v)
        hashes.append(hash(piece))
    bound = edge_lines + 1
    if bound >= 1 << 30:  # too many lines for _ID
        return text
    if not others:
        return text  # v is isolated or out of the order
    try:
        removed = {v, *map(int, others)}
    except ValueError:  # an id longer than int() accepts
        return text
    # From one member of S up to the next, the old ids have as many members
    # below them; none reaches the bound.
    starts = pairwise([0, *(s + 1 for s in sorted(removed)), bound])
    table = chain.from_iterable(range(lo - k, hi - k) for k, (lo, hi) in enumerate(starts))
    node = array(_ID)  # node[u] is the new id of old id u
    ids = array(_ID)  # the new ids u0, w0, u1, w1, ... of G/v's edges
    touched: set[tuple[int, ...]] = set()
    top, last, ordered = -1, (-1, -1), True
    for piece, known in zip_longest(_pieces(text), hashes):
        if piece is None or hash(piece) != known:  # a file changed between the passes
            return text
        for block in _plain_blocks(piece):
            if block is None:
                return text
            # An id at or above the bound makes more nodes than the edges connect.
            if (top := max(top, max(block, default=-1))) >= bound:
                return text
            if ordered:  # so far canonical: each line above the last, smaller end first
                us, ws = block[::2], block[1::2]
                pairs = [last, *zip(us, ws)]
                ordered = all(map(lt, us, ws)) and all(map(lt, pairs, islice(pairs, 1, None)))
                last = pairs[-1]
            # Take out each pair that touches S, the last first, so that the
            # indices of the others hold.
            hits = compress(count(), map(removed.__contains__, block))
            for at in sorted({i & ~1 for i in hits}, reverse=True):
                key = tuple(sorted(block[at:at + 2]))
                if key[0] == key[1] or key in touched:
                    return text
                touched.add(key)
                del block[at:at + 2]
            node.extend(islice(table, top + 1 - len(node)))
            ids.fromlist(list(map(node.__getitem__, block)))
    n = top + 2 - len(removed)
    touching = [node[u] for u in sorted({u for pair in touched for u in pair} - removed)]
    del node
    survivors = filterfalse(removed.__contains__, range(top + 1))
    if ordered:
        column = memoryview(ids)
        edges = column[::2], column[1::2]
    elif (edges := _sorted_edges(ids, n - 1)) is None:
        return text
    del text, piece, plain
    us, ws = edges
    _check_connected(n, us, ws, touching, removed)
    return n, _blocks(_pair_lines(us, ws, touching, n - 1)), survivors


def _pieces(text: str | BinaryIO) -> Iterator[str | None]:
    # The text from its start in pieces of whole lines, each _PIECE long and
    # the rest of the line it ends in.  A str has its line breaks written as
    # "\n" (graph._newlines_only) and is cut by slicing.  A regular file is
    # read as text mode reads it: UTF-8, a byte-order mark dropped, "\r\n"
    # and "\r" as "\n"; a read that finds no newline in a piece's length
    # yields None and stops, as do a file that is not regular (it is not
    # read: a pipe cannot be read twice) and a piece that is not UTF-8.
    if isinstance(text, str):
        text = _newlines_only(text)
        start = 0
        while start < len(text):
            end = text.find("\n", start + _PIECE - 1) + 1 or len(text)
            yield text[start:end]
            start = end
        return
    if not S_ISREG(os.fstat(text.fileno()).st_mode):
        yield None
        return
    text.seek(0)
    codec = "utf-8-sig"
    while data := text.read(_PIECE):
        if not data.endswith(b"\n"):
            data += (rest := text.readline(_PIECE))
            if len(rest) == _PIECE and not rest.endswith(b"\n"):
                yield None
                return
        try:
            piece = data.decode(codec)
        except UnicodeDecodeError:
            yield None
            return
        codec = "utf-8"
        yield piece.replace("\r\n", "\n").replace("\r", "\n") if "\r" in piece else piece


def _pair_lines(us: Sequence[int], ws: Sequence[int], touching: Sequence[int],
                merged: int) -> Iterator[str]:
    # to_edge_list's lines of G/v: the canonical edges us[i] < ws[i] between
    # survivors, with each survivor in touching (ascending) joined to the
    # merged node right after its last of them, found by bisect.
    if not touching:  # G/v is the merged node alone
        yield "# n=1\n"
    lo = 0
    for u in touching:
        hi = bisect_right(us, u, lo)
        yield from (f"{a} {b}\n" for a, b in zip(us[lo:hi], ws[lo:hi]))
        yield f"{u} {merged}\n"
        lo = hi
    yield from (f"{a} {b}\n" for a, b in zip(us[lo:], ws[lo:]))


def _check_connected(n: int, us: Sequence[int], ws: Sequence[int], touching: Sequence[int],
                     removed: set[int]) -> None:
    # G is connected exactly when G/v is, as N[v] is: a union-find over G/v's
    # edges, with path halving.  No parent is above its node, so node 0 is a
    # root, the only one if G/v is connected.  If not, raise what
    # bfs_distances raises on G, for the lowest old id not joined to old id
    # 0, the members of S joined as the merged node is.
    from array import array

    parent = array(_ID, range(n))
    for u, w in chain(zip(us, ws), zip(touching, repeat(n - 1))):
        while (p := parent[u]) != u:
            parent[u] = u = parent[p]
        while (p := parent[w]) != w:
            parent[w] = w = parent[p]
        if u < w:
            parent[w] = u
        elif w < u:
            parent[u] = w
    if sum(map(eq, parent, range(n))) == 1:
        return
    for u in range(n):  # each parent is below its node, so rooted first
        parent[u] = parent[parent[u]]
    survivor = count()
    root = [parent[n - 1 if old in removed else next(survivor)]
            for old in range(n - 1 + len(removed))]
    raise _unreachable(next(old for old, r in enumerate(root) if r != root[0]), 0)


def _sorted_edges(ids: array, n: int) -> tuple[array, array] | None:
    # The edges u0 w0, u1 w1, ... of ids, on nodes below n, as two columns,
    # their smaller ends and their larger ends, sorted by the larger end and
    # then, stably, by the smaller: canonical order.  ids is emptied once the
    # columns hold them.  None when an edge is a self-loop or comes twice.
    from array import array

    pairs = iter(ids)
    us = array(_ID, map(min, pairs, pairs))
    pairs = iter(ids)
    ws = array(_ID, map(max, pairs, pairs))
    del ids[:]
    ws, us = _sorted_by(ws, us, n)
    us, ws = _sorted_by(us, ws, n)
    if any(map(eq, us, ws)) or any(map(eq, zip(us, ws), islice(zip(us, ws), 1, None))):
        return None
    return us, ws


def _sorted_by(keys: array, others: array, n: int) -> tuple[array, array]:
    # The pairs (keys[i], others[i]), keys below n, sorted by key by one
    # counting sort, in their order within a key: each key's slots end where
    # the keys up to it end, and the pairs are read from the last back while
    # each key's end steps down as its slots fill.  No cursor array is made.
    from array import array

    sizes = [0] * n  # a list: counts are small ints, which are not made anew
    for k in keys:
        sizes[k] += 1
    end = array(_ID, accumulate(sizes))
    del sizes
    sorted_keys, sorted_others = array(_ID, [0]) * len(keys), array(_ID, [0]) * len(keys)
    for k, w in zip(reversed(keys), reversed(others)):
        i = end[k] - 1
        sorted_keys[i] = k
        sorted_others[i] = w
        end[k] = i
    return sorted_keys, sorted_others

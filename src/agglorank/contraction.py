"""Node contraction: merge a node and its entire neighborhood into one node.

``contract`` contracts a built graph.  ``contract_text`` builds G/v from plain
text (``graph._plain_text``) without the input graph: its id blocks, less the
edges that touch N[v], are renumbered through a node table into one flat int
array of G/v's edges, and ``_flat_rows`` turns that into G/v's rows in two
more flat arrays (CSR, compressed sparse row): the row offsets and the
neighbours.  Nothing is made per node.  Either way the merged node is G/v's
last id, n(G/v) - 1.  ``graph`` reads the text and searches the rows.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, partial
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat
from operator import ge, sub
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .errors import DegenerateOrderError
from .graph import (Graph, _bfs, _check_node, _ends_beside, _FrozenRecord, _plain_blocks,
                    _plain_text)

if TYPE_CHECKING:
    from array import array

# The typecode of G/v's flat arrays, C int: the ids and the 2m row offsets of
# a text of fewer than 2^30 lines fit it, and a longer text (over 4 GiB)
# declines.
_ID = "i"


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


def contract_text(text: str, v: int) -> tuple[int, Callable[[int], Sequence[int]],
                                              Iterator[int]] | None:
    """Contract v in plain, connected edge-list text without building its graph.

    Returns the order n of G/v, whose last id n - 1 is the merged node, its
    rows ``row(u)`` (ascending), and the surviving old ids in ascending order,
    whose new ids are 0, 1, ...: the rows of ``contract`` of the parsed text.
    None when the text is not plain (``graph._plain_text``, before any search)
    or holds a fault, when no edge holds v (v isolated or out of the order), or
    when G is disconnected, so that the parser of record decides.  N(v) comes
    from the lines that hold v (``graph._ends_beside``).  Then each block of
    old ids, less its pairs that touch S = N[v], is renumbered into one flat
    array of G/v's edges, and every survivor next to S is joined once to the
    merged node, old id top + 1, after the last block.  A node table renumbers each
    old id once, as it grows over it: u becomes u minus the members of S below
    it, which sends top + 1 to n - 1.  ``_flat_rows`` makes the rows of that
    array (CSR): no list per node, no tuple and no ``Graph`` is made for G/v.
    A self-loop or a duplicate on an edge that touches S would vanish, so a set
    of those pairs finds it; ``_flat_rows`` finds the rest.  G is connected
    exactly when G/v is, since N[v] is connected, which ``graph._bfs``, the
    search of ``is_connected``, checks on the rows.
    """
    from array import array  # only contract loads it: rank and phi do not

    if (plain := _plain_text(text, connected=True)) is None:
        return None
    text, bound = plain
    if bound >= 1 << 30:  # too many lines for _ID
        return None
    if not (others := _ends_beside(text, v)):
        return None  # v is isolated or out of the order
    try:
        removed = {v, *map(int, others)}
    except ValueError:  # an id longer than int() accepts
        return None
    below = partial(bisect_left, sorted(removed))
    node = array(_ID)  # node[u] is the new id of old id u
    ids = array(_ID)  # the new ids u0, w0, u1, w1, ... of G/v's edges
    touched: set[tuple[int, ...]] = set()
    top = -1
    for block in _plain_blocks(text):
        if block is None:
            return None
        # An id at or above the bound makes more nodes than the edges connect.
        if (top := max(top, max(block, default=-1))) >= bound:
            return None
        # Take out each pair that touches S, the last first, so that the
        # indices of the others hold.
        hits = compress(count(), map(removed.__contains__, block))
        for at in sorted({i & ~1 for i in hits}, reverse=True):
            key = tuple(sorted(block[at:at + 2]))
            if key[0] == key[1] or key in touched:
                return None
            touched.add(key)
            del block[at:at + 2]
        new = range(len(node), top + 1)
        node.extend(map(sub, new, map(below, new)))
        ids.fromlist(list(map(node.__getitem__, block)))
    # The merged node enters as old id top + 1, above all of S.
    node.append(top + 1 - len(removed))
    for u in sorted({u for pair in touched for u in pair} - removed):
        ids.extend((node[u], node[-1]))
    n = node[-1] + 1
    del node
    if (row := _flat_rows(ids, n)) is None or len(_bfs(n, row, 0)[0]) < n:
        return None
    return n, row, filterfalse(removed.__contains__, range(top + 1))


def _flat_rows(ids: array, n: int) -> Callable[[int], array] | None:
    """``row(u)``, the ascending neighbours of u in the n-node graph whose
    edges are ids = u0, w0, u1, w1, ...

    Row u is ``nbr[start[u]:start[u + 1]]`` (CSR): one array of row offsets
    and one of neighbours.  The offsets start as the row ends, the degrees
    accumulated.  Each edge goes into both its rows from the last edge back,
    and a row's offset steps down as it fills, so that the filled offsets are
    the row starts and each row holds its entries in the order of ids; no
    cursor array is made.  So the rows of canonical text, whose lines ascend
    with the smaller end first, ascend too and are not sorted.  Any other
    order is sorted by one transposing pass, which fills the same way and
    builds no list per unsorted row.  ids is emptied once the rows hold its
    edges, so that the pass does not hold it too.  None when a self-loop or a
    duplicate leaves a repeat in some row.
    """
    from array import array

    degree = [0] * n  # a list: degrees are small ints, which are not made anew
    for u in ids:
        degree[u] += 1
    start = array(_ID, accumulate(degree))
    del degree
    nbr = array(_ID, [0]) * len(ids)
    pairs = reversed(ids)
    for w, u in zip(pairs, pairs):
        i = start[u] - 1
        nbr[i] = w
        start[u] = i
        i = start[w] - 1
        nbr[i] = u
        start[w] = i
    start.append(len(nbr))
    del ids[:]
    if not _ascending(start, nbr):
        # Entry w of row u puts u in row w.  The entries are read from the
        # last back, so their owners u descend and each row fills from its
        # end down, ascending.  The owners are counted from the offsets in
        # place; the ends, one copy, step down to the row starts.
        lengths = map(sub, reversed(start), islice(reversed(start), 1, None))
        owners = chain.from_iterable(map(repeat, range(n - 1, -1, -1), lengths))
        transposed, ends = array(_ID, [0]) * len(nbr), start[1:]
        for u, w in zip(owners, reversed(nbr)):
            i = ends[w] - 1
            transposed[i] = u
            ends[w] = i
        nbr = transposed
        del ends
        if not _ascending(start, nbr):
            return None
    return lambda u: nbr[start[u]:start[u + 1]]


def _ascending(start: array, nbr: array) -> bool:
    # Whether each row strictly ascends: every entry not above the one before
    # it starts a row.  Those entries and the row starts both come in
    # ascending order, so each is looked for by reading on in the starts.
    starts = iter(start)
    return all(i in starts for i in compress(count(1), map(ge, nbr, islice(nbr, 1, None))))

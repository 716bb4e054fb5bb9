"""Node contraction: merge a node and its entire neighborhood into one node.

``contract`` contracts a built graph.  ``contract_text`` builds G/v from plain
text (``graph._plain_text``) without the input graph: its id blocks, less the
edges that touch N[v], go to ``graph._rows``, whose node table renumbers each
old id as it first grows over it, so the one builder makes only G/v's sorted
neighbour lists.  Either way the merged node is G/v's last id, n(G/v) - 1.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cached_property, partial
from itertools import compress, count, filterfalse
from typing import Iterator

from .errors import DegenerateOrderError
from .graph import (Graph, _check_node, _frozen, _plain_blocks, _plain_text, _reaches_all,
                    _rows, _set)


class ContractionResult:
    """Outcome of contracting one node.

    ``graph`` has order n - deg(v).  ``merged_into`` is the id of the merged
    node in the new graph.  ``new_ids[old]`` is the new id of every old node:
    survivors have 0, 1, ... in ascending old-id order, and the contracted
    node and its neighbors have ``merged_into``.  Its ids are the int objects
    of ``graph``, so the map costs one list slot per old node.  ``old_to_new``
    maps each surviving old id to its new id, iterating in ascending old-id
    order; it is built on first read, so a result that is never asked for it
    holds no dict.  Results are frozen, equal when their fields are, and
    unhashable, as ``new_ids`` is a list.
    """

    __slots__ = ("graph", "merged_into", "new_ids", "__dict__")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, graph: Graph, merged_into: int, new_ids: list[int]) -> None:
        _set(self, "graph", graph)
        _set(self, "merged_into", merged_into)
        _set(self, "new_ids", new_ids)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.graph, self.merged_into, self.new_ids)
                == (other.graph, other.merged_into, other.new_ids))

    def __reduce__(self):
        return ContractionResult, (self.graph, self.merged_into, self.new_ids)

    def __repr__(self) -> str:
        return (f"ContractionResult(graph={self.graph!r}, merged_into={self.merged_into!r}, "
                f"new_ids={self.new_ids!r})")

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


def contract_text(text: str, v: int) -> tuple[list[list[int]], Iterator[int]] | None:
    """Contract v in plain, connected edge-list text without building its graph.

    Returns the sorted neighbour lists of G/v, whose last id is the merged
    node, and the surviving old ids in ascending order, whose new ids are
    0, 1, ...: the rows of ``contract`` of the parsed text, as lists.
    None when the text is not plain (``graph._plain_text``, before any search)
    or holds a fault, when no edge holds v (v isolated or out of the order), or
    when G is disconnected, so that the parser of record decides.  N(v) comes
    from one search for the lines that hold v.  Then each block of old ids goes
    to the builder less its pairs that touch S = N[v], and every survivor next
    to S is joined once to the merged node, old id top + 1, after the last
    block.  The builder's node table (``graph._rows``) renumbers each old id
    once, as it grows over it: u becomes u minus the members of S below it,
    which sends top + 1 to n - |S|.  The rows stay lists: no tuple and no
    ``Graph`` is made for G/v.  A self-loop or a duplicate on an edge that
    touches S would vanish, so a set of those pairs finds it; the builder finds
    the rest.  G is connected exactly when G/v is, since N[v] is connected,
    which ``is_connected``'s search checks on the rows.
    """
    if (plain := _plain_text(text, connected=True)) is None:
        return None
    text, bound = plain
    lines = re.findall(rf"^(?:0*{v} ([0-9]+)|([0-9]+) 0*{v})$", text, re.MULTILINE)
    if not lines:
        return None  # v is isolated or out of the order
    try:
        removed = {v, *[int(a or b) for a, b in lines]}
    except ValueError:  # an id longer than int() accepts
        return None
    below = partial(bisect_left, sorted(removed))
    touched: set[tuple[int, ...]] = set()
    top = -1

    def blocks() -> Iterator[list[int] | None]:
        nonlocal top
        for ids in _plain_blocks(text):
            if ids is None:
                yield None
                return
            top = max(top, max(ids, default=-1))
            # Take out each pair that touches S, the last first, so that the
            # indices of the others hold.
            hits = compress(count(), map(removed.__contains__, ids))
            for at in sorted({i & ~1 for i in hits}, reverse=True):
                key = tuple(sorted(ids[at:at + 2]))
                if key[0] == key[1] or key in touched:
                    yield None
                    return
                touched.add(key)
                del ids[at:at + 2]
            yield ids
        # The merged node enters as old id top + 1, above all of S.
        outside = {u for pair in touched for u in pair} - removed
        yield [x for u in outside for x in (u, top + 1)]

    # The limit is one past the bound, for the merged node alone: an id at the
    # bound puts the merged node past it, or leaves it out, and declines.
    rows = _rows(blocks(), bound + 1, 1,
                 renumber=lambda lo, hi: [u - below(u) for u in range(lo, hi)])
    # rows lack the merged node when S is in no edge with a survivor.
    if rows is None or len(rows) != top + 2 - len(removed) or not _reaches_all(rows):
        return None
    return rows, filterfalse(removed.__contains__, range(top + 1))

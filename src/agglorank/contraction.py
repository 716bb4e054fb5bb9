"""Node contraction: merge a node and its entire neighborhood into one node.

``contract`` contracts a built graph.  ``contract_text`` builds the contracted
graph of plain edge-list text without building the input graph: its id blocks
are renumbered on their way to ``graph._from_blocks``, so the one builder makes
only G/v.  Either way the merged node is G/v's last id, n(G/v) - 1.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress, count, filterfalse
from operator import sub
from typing import Iterator

from .errors import DegenerateOrderError
from .graph import Graph, _check_node, _from_blocks, _plain_blocks, _plain_text, is_connected


@dataclass(frozen=True)
class ContractionResult:
    """Outcome of contracting one node.

    ``graph`` has order n - deg(v).  ``merged_into`` is the id of the merged
    node in the new graph.  ``new_ids[old]`` is the new id of every old node:
    survivors have 0, 1, ... in ascending old-id order, and the contracted
    node and its neighbors have ``merged_into``.  Its ids are the int objects
    of ``graph``, so the map costs one list slot per old node.  ``old_to_new``
    maps each surviving old id to its new id, iterating in ascending old-id
    order; it is built on first read, so a result that is never asked for it
    holds no dict.
    """

    graph: Graph
    merged_into: int
    new_ids: list[int]

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


def contract_text(text: str, v: int) -> tuple[Graph, Iterator[int]] | None:
    """Contract v in plain, connected edge-list text without building its graph.

    Returns G/v, whose last id is the merged node, and the surviving old ids in
    ascending order, whose new ids are 0, 1, ...: what ``contract`` of the
    parsed text gives.
    None when the text is not plain (see ``graph``) or holds a fault, when no
    edge holds v (v isolated or out of the order), or when G is disconnected,
    so that the parser of record decides.  N(v) comes from one search for the
    lines that hold v.  Then each block of ids is renumbered on its way to the
    builder: a survivor u becomes u minus the members of S = N[v] below it,
    pairs inside S go, and every survivor next to S is joined once to the
    merged node n - |S| after the last block, once n is known.  A self-loop or
    a duplicate on an edge that touches S would vanish, so a set of those pairs
    finds it; the builder finds the rest.  G is connected exactly when G/v is,
    since N[v] is connected.
    """
    text, bound = _plain_text(text, connected=True)
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
            yield list(map(sub, ids, map(below, ids)))
        merged = top + 1 - len(removed)
        outside = sorted({u for pair in touched for u in pair} - removed)
        yield [x for u in outside for x in (u - below(u), merged)]

    g = _from_blocks(blocks(), bound, 1)
    # g lacks the merged node when S is in no edge with a survivor.
    if g is None or g.n != top + 2 - len(removed) or not is_connected(g):
        return None
    return g, filterfalse(removed.__contains__, range(top + 1))

"""Node contraction: merge a node and its entire neighborhood into one node."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, filterfalse

from .errors import DegenerateOrderError
from .graph import Graph, _check_node


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

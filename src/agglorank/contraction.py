"""Node contraction: merge a node and its entire neighborhood into one node."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse

from .errors import DegenerateOrderError
from .graph import Graph, _check_node


@dataclass(frozen=True)
class ContractionResult:
    """Outcome of contracting one node.

    ``graph`` has order n - deg(v).  ``merged_into`` is the id of the merged
    node in the new graph, and ``old_to_new`` maps each surviving old id to
    its new id (the contracted node and its neighbors have no entry); it
    iterates in ascending old-id order.
    """

    graph: Graph
    merged_into: int
    old_to_new: dict[int, int]


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
    survivors = list(filterfalse(removed.__contains__, range(g.n)))
    merged = len(survivors)
    # new_of renumbers every old id: survivors in order, all of S to merged.
    # Survivor order is kept and merged is the largest id, so each list is
    # born sorted once its copies of merged are moved to the end as one.
    new_of = [merged] * g.n
    for new, old in enumerate(survivors):
        new_of[old] = new
    renumber = new_of.__getitem__
    rows: list[tuple[int, ...]] = []
    touching: list[int] = []
    for old in survivors:
        nbrs = tuple(list(map(renumber, adj[old])))
        if merged in nbrs:
            nbrs = (*[w for w in nbrs if w != merged], merged)
            touching.append(new_of[old])
        rows.append(nbrs)
    rows.append(tuple(touching))
    contracted = Graph(merged + 1, tuple(rows))
    # The new ids are new_of's own int objects, shared with the rows.
    old_to_new = dict(zip(survivors, map(renumber, survivors)))
    return ContractionResult(graph=contracted, merged_into=merged, old_to_new=old_to_new)

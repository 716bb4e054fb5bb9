"""Node contraction: merge a node and its entire neighborhood into one node."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateOrderError
from .graph import Graph, _check_node


@dataclass(frozen=True)
class ContractionResult:
    """Outcome of contracting one node.

    ``graph`` has order n - deg(v).  ``merged_into`` is the id of the merged
    node in the new graph, and ``old_to_new`` maps each surviving old id to
    its new id (the contracted node and its neighbors have no entry).
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
    removed = set(g.adj[v])
    removed.add(v)
    survivors = [u for u in range(g.n) if u not in removed]
    old_to_new = {old: new for new, old in enumerate(survivors)}
    merged = len(survivors)
    # Renumbering keeps survivor order and the merged node comes last, so
    # each list is born sorted.
    adj: list[tuple[int, ...]] = []
    touching: list[int] = []
    for new, old in enumerate(survivors):
        nbrs = [old_to_new[w] for w in g.adj[old] if w not in removed]
        if len(nbrs) < len(g.adj[old]):
            nbrs.append(merged)
            touching.append(new)
        adj.append(tuple(nbrs))
    adj.append(tuple(touching))
    contracted = Graph(merged + 1, tuple(adj))
    return ContractionResult(graph=contracted, merged_into=merged, old_to_new=old_to_new)

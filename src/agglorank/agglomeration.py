"""Agglomeration, average path length, and contraction-based node importance.

All values are exact rationals.  ``Rational`` is ``fractions.Fraction``: it is
always reduced with a positive denominator, and since Python integers have
arbitrary precision the arithmetic can never overflow or wrap.

Importance follows the definition: each node is contracted and phi is taken
of the result.  Every phi comes from one distance sum, which peels pendant
trees (``graph._peel``) and then searches from all remaining sources at once,
a node leaving the search once it has seen them all; connectivity shows in
the same work.

A tree (a connected graph with n - 1 edges) is ranked from that peel alone,
without contracting: rerooting the peel gives every node's row sum, and each
contracted distance sum then follows from the rows of the node's neighbours
and the sizes of the branches around it, in O(n) for the whole tree.

The per-node contractions of the other graphs are independent, so a ranking
with ``jobs`` > 1 splits them round-robin over forked worker processes; trees
never fork.  A worker writes only ints, each contracted order and distance
sum, into its slots of one shared anonymous mapping; the parent builds every
``Fraction`` and the sort, so the report does not depend on ``jobs``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import attrgetter
from typing import NamedTuple, NoReturn

from .contraction import contract
from .errors import DegenerateOrderError
from .graph import Graph, _frozen, _peel, distance_sum
from .options import usable_cpus

Rational = Fraction


# ImcEntry and RankReport stay NamedTuples, not graph._FrozenRecords: an entry
# is made per node, which a NamedTuple does in C, and _replace serves callers.
class ImcEntry(NamedTuple):
    """Importance of one node: 1 - phi(G)/phi(G with the node contracted)."""

    node: int
    imc: Fraction
    contracted_order: int
    __setattr__ = __delattr__ = _frozen


class RankReport(NamedTuple):
    """Full ranking: graph-level phi and average path length, plus one entry
    per node sorted by importance descending, ties broken by ascending id."""

    phi: Fraction
    avg_path_length: Fraction
    entries: tuple[ImcEntry, ...]
    __setattr__ = __delattr__ = _frozen


def phi_and_length(g: Graph) -> tuple[Fraction, Fraction | None]:
    """phi(g) and the average path length, from a single distance sum.

    The 1-node graph has phi 1 and no average path length (None).
    """
    if g.n == 1:
        return Fraction(1), None
    return _phi_and_length_of(g.n, distance_sum(g))


def _phi_and_length_of(n: int, total: int) -> tuple[Fraction, Fraction]:
    return Fraction(n - 1, total), Fraction(total, n * (n - 1))


def average_path_length(g: Graph) -> Fraction:
    """Mean shortest-path distance over ordered distinct node pairs."""
    if g.n < 2:
        raise DegenerateOrderError("average path length requires at least two nodes")
    return phi_and_length(g)[1]


def phi(g: Graph) -> Fraction:
    """Agglomeration of g: (n - 1) / (sum of all ordered pairwise distances).

    The 1-node graph gets the maximum value 1.  For every connected graph the
    result lies in (0, 1], and equals 1 only when n = 1.
    """
    return phi_and_length(g)[0]


def _contracted_sum(item: tuple[Graph, int]) -> tuple[int, int]:
    # Order of G/v and its distance sum (0 when G/v is the 1-node graph).
    g, v = item
    contracted = contract(g, v).graph
    return contracted.n, distance_sum(contracted) if contracted.n > 1 else 0


def _tree_sums(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """DS(g) and ``_contracted_sum`` of every node of the tree g, in O(n).

    ``_peel(g)`` gives DS(g), or raises if g is no tree, the subtree sizes
    about the node it ends at and that node's row sum.  Rerooting in reverse
    peel order gives every other row: row(c) = row(p) + n - 2 size(c) for a
    leaf c peeled into p.  Contracting v merges S = N[v] and leaves
    T = n - deg(v) - 1 survivors, b_a of them in the branch of g - v at
    neighbour a.  DS(g) less the rows of S, plus the pairs inside S
    (2 deg^2 in all), is the sum over survivor pairs.  A survivor pair in two
    branches comes 2 closer, and P2 = T^2 - sum b_a^2 ordered pairs do; a
    pair in one branch keeps its distance.  A survivor x lies d(x, v) - 1
    from the merged node, row(v) - deg - T in all.  The row(v) terms cancel,
    so DS(g/v) = DS(g) - 2 (sum of row(a) over neighbours a + P2 + T - deg (deg - 1)).
    """
    n, adj = g.n, g.adj
    total, _, size, row, peeled = _peel(g)
    # Rows overwrite the spent spreads; the last node's spread is its row already.
    for c, p in reversed(peeled):
        row[c] = row[p] + n - 2 * size[c]
    sums = []
    for v, nbrs in enumerate(adj):
        deg = len(nbrs)
        t = n - deg - 1
        sv = size[v]
        near = squares = 0
        for a in nbrs:
            near += row[a]
            # A child's subtree is smaller than v's; v's parent's branch is the rest.
            b = (size[a] if size[a] < sv else n - sv) - 1
            squares += b * b
        sums.append((t + 1, total - 2 * (near + t * t - squares + t - deg * (deg - 1))))
    return total, sums


def _entry(v: int, phi_g: Fraction, order: int, total: int) -> ImcEntry:
    # imc = 1 - phi(G) / phi(G/v) as one Fraction, with phi(G) = p / q and
    # phi(G/v) = (order - 1) / total, or 1 when G/v is the 1-node graph.
    p, q = phi_g.as_integer_ratio()
    if order == 1:
        return ImcEntry(node=v, imc=Fraction(q - p, q), contracted_order=order)
    den = q * (order - 1)
    return ImcEntry(node=v, imc=Fraction(den - p * total, den), contracted_order=order)


def imc(g: Graph, v: int) -> ImcEntry:
    """Importance of node v by contraction."""
    if g.n < 2:
        raise DegenerateOrderError("importance requires at least two nodes")
    return _entry(v, phi(g), *_contracted_sum((g, v)))


# Contracting every node of a graph of order n costs about n^2 steps of the
# search: n distance sums over about n nodes each.  Below this many summed over
# the graphs, the 4 ms that forking and reaping a worker cost outweigh the
# second worker's share (measured on 2 cores, CPython 3.11, where the two break
# even at about n = 40-60 on sparse graphs and lollipops).
_FORK_MIN_WORK = 5_000


def _worker_count(jobs: int, items: list[tuple[Graph, int]]) -> int:
    # Each item costs about the order of its graph.  A process running other
    # threads stays serial: a forked child could inherit a lock that one of
    # them holds and block on it forever.
    import os
    import threading

    if jobs < 2 or not hasattr(os, "fork") or sum(g.n for g, _ in items) < _FORK_MIN_WORK:
        return 1
    if threading.active_count() > 1:
        return 1
    return min(jobs, usable_cpus(), len(items))


def _child(slots: memoryview, first: int, step: int, share: list[tuple[Graph, int]]) -> NoReturn:
    # Runs in a forked worker: store each item's order and distance sum in the
    # slot pairs from ``first`` on, ``step`` apart, and leave without unwinding,
    # so no stdio buffer or exit handler of the parent runs.  A sum of 2**64 or
    # more does not fit a slot, so the worker fails.
    import os

    code = 1
    try:
        for i, item in zip(range(first, len(slots), step), share):
            slots[i], slots[i + 1] = _contracted_sum(item)
        code = 0
    finally:
        os._exit(code)


def _contracted_sums(items: list[tuple[Graph, int]], jobs: int) -> list[tuple[int, int]]:
    """``_contracted_sum`` of every item, split round-robin over worker processes.

    Item i owns slots 2i and 2i + 1 of one shared anonymous mapping.  The
    parent forks one worker per extra share, computes share 0 itself, then
    reaps each worker in turn and reads its slots.  A share whose worker could
    not be forked, did not exit cleanly or left an order slot at 0 (a
    contracted order is at least 1) is computed by the parent, so a failed
    worker costs time, never a wrong or partial result.
    """
    workers = _worker_count(jobs, items)
    if workers == 1:
        return list(map(_contracted_sum, items))
    import mmap
    import os
    import signal

    shares = [items[k::workers] for k in range(workers)]
    slots = memoryview(mmap.mmap(-1, 16 * len(items))).cast("Q")
    pending: dict[int, int] = {}
    sums: list[tuple[int, int]] = [(0, 0)] * len(items)
    try:
        for k in range(1, workers):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                _child(slots, 2 * k, 2 * workers, shares[k])
            pending[k] = pid
        for k, share in enumerate(shares):
            failed = k in pending and os.waitpid(pending[k], 0)[1] != 0
            pending.pop(k, None)
            orders = slots[2 * k::2 * workers]
            sums[k::workers] = (list(map(_contracted_sum, share)) if failed or not all(orders)
                                else list(zip(orders, slots[2 * k + 1::2 * workers])))
    finally:
        for pid in pending.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return sums


def rank_graphs(graphs: list[Graph], *, jobs: int = 1) -> list[RankReport]:
    """Rank every node of each graph.  A graph with n - 1 edges is a tree or
    fails its peel, and a tree is ranked from that peel (``_tree_sums``); the
    other graphs' contractions go to at most ``jobs`` processes (``imc_all``)."""
    if any(g.n < 2 for g in graphs):
        raise DegenerateOrderError("ranking requires at least two nodes")
    walks = [_tree_sums(g) if g.edge_count() == g.n - 1 else (distance_sum(g), None)
             for g in graphs]
    items = [(g, v) for g, (_, tree) in zip(graphs, walks) if not tree for v in range(g.n)]
    sums = iter(_contracted_sums(items, jobs))
    reports = []
    for g, (total, tree) in zip(graphs, walks):
        phi_g, length = _phi_and_length_of(g.n, total)
        entries = [_entry(v, phi_g, *pair) for v, pair in enumerate(tree or islice(sums, g.n))]
        # Entries are in node order and the sort is stable, so ties keep ascending ids.
        entries.sort(key=attrgetter("imc"), reverse=True)
        reports.append(RankReport(phi=phi_g, avg_path_length=length, entries=tuple(entries)))
    return reports


def imc_all(g: Graph, *, jobs: int = 1) -> RankReport:
    """Rank every node.

    A tree is ranked in O(n) without contracting, in this process.  Any
    other graph contracts each node; with ``jobs`` > 1 the n contractions run
    in up to ``min(jobs, usable CPUs, n)`` forked worker processes, once the
    graph is large enough for that to pay and unless other threads run.  The
    report is identical for every value of ``jobs``.
    """
    return rank_graphs([g], jobs=jobs)[0]

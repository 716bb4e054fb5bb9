"""Agglomeration, average path length, and contraction-based node importance.

All values are exact rationals.  ``Rational`` is ``fractions.Fraction``: it is
always reduced with a positive denominator, and since Python integers have
arbitrary precision the arithmetic can never overflow or wrap.

Importance follows the definition: each node is contracted and phi is taken
of the result.  Every phi comes from one ``distance_sum``, which peels
pendant trees and searches from all remaining sources at once, a node leaving
the search once it has seen them all; connectivity shows in the same work.

The per-node contractions are independent, so a ranking with ``jobs`` > 1
splits them round-robin over forked worker processes.  A worker writes only
ints, each contracted order and distance sum, into its slots of one shared
anonymous mapping; the parent builds every ``Fraction`` and the sort, so the
report does not depend on ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

from .contraction import contract
from .errors import DegenerateOrderError
from .graph import Graph, distance_sum

Rational = Fraction


@dataclass(frozen=True)
class ImcEntry:
    """Importance of one node: 1 - phi(G)/phi(G with the node contracted)."""

    node: int
    imc: Fraction
    contracted_order: int


@dataclass(frozen=True)
class RankReport:
    """Full ranking: graph-level phi and average path length, plus one entry
    per node sorted by importance descending, ties broken by ascending id."""

    phi: Fraction
    avg_path_length: Fraction
    entries: tuple[ImcEntry, ...]


def phi_and_length(g: Graph) -> tuple[Fraction, Fraction | None]:
    """phi(g) and the average path length, from a single distance sum.

    The 1-node graph has phi 1 and no average path length (None).
    """
    if g.n == 1:
        return Fraction(1), None
    total = distance_sum(g)
    return Fraction(g.n - 1, total), Fraction(total, g.n * (g.n - 1))


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


def _entry(v: int, phi_g: Fraction, order: int, total: int) -> ImcEntry:
    phi_contracted = Fraction(order - 1, total) if order > 1 else Fraction(1)
    return ImcEntry(node=v, imc=1 - phi_g / phi_contracted, contracted_order=order)


def imc(g: Graph, v: int) -> ImcEntry:
    """Importance of node v by contraction."""
    if g.n < 2:
        raise DegenerateOrderError("importance requires at least two nodes")
    return _entry(v, phi(g), *_contracted_sum((g, v)))


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Ranking a graph of order n costs about n^2 steps of the search: n distance
# sums over about n nodes each.  Below this many summed over the graphs, the
# 4 ms that forking and reaping a worker cost outweigh the second worker's
# share (measured on 2 cores, CPython 3.11, where the two break even at about
# n = 40-60 on sparse graphs and lollipops and n = 90 on trees).
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
    """Rank every node of each graph, with the contractions of all graphs
    shared among at most ``jobs`` processes (see ``imc_all``)."""
    if any(g.n < 2 for g in graphs):
        raise DegenerateOrderError("ranking requires at least two nodes")
    lengths = [phi_and_length(g) for g in graphs]
    items = [(g, v) for g in graphs for v in range(g.n)]
    sums = iter(_contracted_sums(items, jobs))
    reports = []
    for g, (phi_g, length) in zip(graphs, lengths):
        entries = [_entry(v, phi_g, *next(sums)) for v in range(g.n)]
        entries.sort(key=lambda e: (-e.imc, e.node))
        reports.append(RankReport(phi=phi_g, avg_path_length=length, entries=tuple(entries)))
    return reports


def imc_all(g: Graph, *, jobs: int = 1) -> RankReport:
    """Rank every node.

    With ``jobs`` > 1 the n contractions run in up to ``min(jobs, usable
    CPUs, n)`` forked worker processes, once the graph is large enough for
    that to pay and unless other threads run; the report is identical for
    every value of ``jobs``.
    """
    return rank_graphs([g], jobs=jobs)[0]

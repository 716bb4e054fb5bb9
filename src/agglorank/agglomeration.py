"""Agglomeration, average path length, and contraction-based node importance.

All values are exact rationals.  ``Rational`` is ``fractions.Fraction``: it is
always reduced with a positive denominator, and since Python integers have
arbitrary precision the arithmetic can never overflow or wrap.

Importance follows the definition: each node is contracted and phi is taken
of the result.  Every phi comes from one ``distance_sum``, which peels
pendant trees and searches from all remaining sources at once, a node leaving
the search once it has seen them all; connectivity shows in the same work.

The per-node contractions are independent, so a ranking with ``jobs`` > 1
splits them round-robin over forked worker processes.  A worker sends back
only ints, each contracted order and distance sum, through a pipe; the parent
builds every ``Fraction`` and the sort, so the report does not depend on
``jobs``.
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
# 4 ms that a fork and pipe round trip costs outweigh the second worker's
# share (measured on 2 cores, CPython 3.11, where the two break even at about
# n = 40-60 on sparse graphs and lollipops and n = 90 on trees).
_FORK_MIN_WORK = 5_000


def _worker_count(jobs: int, items: int, work: int) -> int:
    # A process running other threads stays serial: a forked child could
    # inherit a lock that one of them holds and block on it forever.
    import os
    import threading

    if jobs < 2 or work < _FORK_MIN_WORK or not hasattr(os, "fork"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(jobs, usable_cpus(), items)


def _child(fd: int, share: list[tuple[Graph, int]]) -> NoReturn:
    # Runs in a forked worker: write the share's sums as decimal text and leave
    # without unwinding, so no stdio buffer or exit handler of the parent runs.
    import os

    code = 1
    try:
        with os.fdopen(fd, "w") as out:
            out.write(" ".join(str(x) for item in share for x in _contracted_sum(item)))
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, fd: int, share: list[tuple[Graph, int]]) -> list[tuple[int, int]]:
    # A worker's sums, or the parent's own if the worker failed in any way.
    # The worker is reaped on every path, and killed first if reading failed.
    import os
    import signal

    data = None
    try:
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        if data is None:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    values = data.split()
    if status or len(values) != 2 * len(share) or not all(map(bytes.isdigit, values)):
        return list(map(_contracted_sum, share))
    values = list(map(int, values))
    return list(zip(values[::2], values[1::2]))


def _contracted_sums(
    items: list[tuple[Graph, int]], work: int, jobs: int
) -> list[tuple[int, int]]:
    """``_contracted_sum`` of every item, split round-robin over worker processes.

    ``work`` estimates the cost of all items (see ``_FORK_MIN_WORK``).  The
    parent forks one worker per extra share, computes share 0 itself, then
    reads and reaps each worker in turn.  A share whose worker could not be
    forked or did not exit cleanly is computed by the parent, so a failed
    worker costs time, never a wrong or partial result.
    """
    workers = _worker_count(jobs, len(items), work)
    if workers == 1:
        return list(map(_contracted_sum, items))
    import os
    import signal

    shares = [items[k::workers] for k in range(workers)]
    pending: dict[int, tuple[int, int]] = {}
    sums: list[tuple[int, int]] = [(0, 0)] * len(items)
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                os.close(read)
                _child(write, shares[k])
            os.close(write)
            pending[k] = pid, read
        for k, share in enumerate(shares):
            sums[k::workers] = (_collect(*pending.pop(k), share) if k in pending
                                else list(map(_contracted_sum, share)))
    finally:
        for pid, read in pending.values():
            os.close(read)
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
    work = sum(g.n * g.n for g in graphs)
    sums = iter(_contracted_sums(items, work, jobs))
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

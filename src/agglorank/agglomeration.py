"""Agglomeration, average path length, and contraction-based node importance.

All values are exact rationals.  ``Rational`` is ``fractions.Fraction``: it is
always reduced with a positive denominator, and since Python integers have
arbitrary precision the arithmetic can never overflow or wrap.

Importance follows the definition: each node is contracted and phi is taken
of the result.  Every phi comes from one ``distance_sum``, which peels
pendant trees and searches from all remaining sources at once, a node leaving
the search once it has seen them all; connectivity shows in the same work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _imc_entry(g: Graph, v: int, phi_g: Fraction) -> ImcEntry:
    contracted = contract(g, v).graph
    return ImcEntry(node=v, imc=1 - phi_g / phi(contracted), contracted_order=contracted.n)


def imc(g: Graph, v: int) -> ImcEntry:
    """Importance of node v by contraction."""
    if g.n < 2:
        raise DegenerateOrderError("importance requires at least two nodes")
    return _imc_entry(g, v, phi(g))


def imc_all(g: Graph, *, jobs: int = 1) -> RankReport:
    """Rank every node.

    ``jobs`` is accepted for compatibility; it changes neither the report nor
    the speed.
    """
    if g.n < 2:
        raise DegenerateOrderError("ranking requires at least two nodes")
    phi_g, length = phi_and_length(g)
    entries = [_imc_entry(g, v, phi_g) for v in range(g.n)]
    entries.sort(key=lambda e: (-e.imc, e.node))
    return RankReport(phi=phi_g, avg_path_length=length, entries=tuple(entries))

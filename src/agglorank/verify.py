"""Grid verification of the contraction engine against the closed forms.

For every family spec in a parameter grid the harness generates the graph,
runs the full engine ranking, and compares graph-level agglomeration plus the
per-role importance values against the analytic formulas, demanding exact
rational equality.  Everything about a family comes from its spec class in
``families``: grid, roles and generator, the further transcriptions of its
formulas (``IMC_VARIANTS``), and the paper's importance orderings between its
roles (``expected_order()``).  Its closed forms are looked up by name as
``closed_forms.phi_<name>`` and ``closed_forms.imc_<name>[_<variant>]`` at
call time.  A broken ordering is a violation; a known exception ("not >") is
reported as a note with the exact values rather than counted as a mismatch.

A grid is checked one chunk of consecutive specs at a time, each chunk at
most ``_CHUNK`` nodes plus edges (or one larger spec): its graphs are
generated, ranked in one ``rank_graphs`` call, checked and dropped before
the next chunk is built.  Only the report's rows grow with the grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterator

from . import closed_forms as cf
from .agglomeration import RankReport, rank_graphs
from .errors import FamilyParameterError, FormulaDomainError
from .families import FAMILIES, MAX_SIZE, FamilySpec, LabeledGraph, NodeClass, generate

# Default grids; lower bounds double as the hard floor below which the
# importance formulas are not established and verification refuses to run.
DEFAULT_GRIDS: dict[str, dict[str, tuple[int, int]]] = {
    name: cls.GRID for name, cls in FAMILIES.items()
}

# The nodes plus edges of the specs that one chunk generates and ranks
# together.  The default lollipop grid, 2,331, is one chunk, so it forks once.
_CHUNK = 4096

_RELATIONS = {">": operator.gt, "==": operator.eq, "not >": operator.le}


@dataclass(frozen=True)
class VerifyRow:
    spec: str
    check: str
    analytic: Fraction
    engine: Fraction
    match: bool = field(init=False)

    def __post_init__(self):
        # The two values are compared once, here; the render and the count read the result.
        object.__setattr__(self, "match", self.analytic == self.engine)


@dataclass
class VerifyReport:
    rows: list[VerifyRow]
    notes: list[str]
    violations: list[str]

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def mismatches(self) -> int:
        return sum(not row.match for row in self.rows) + len(self.violations)


def resolve_ranges(
    family: str, requested: dict[str, tuple[int, int]] | None
) -> dict[str, tuple[int, int]]:
    """Merge requested ranges over the family defaults, enforcing the floors."""
    if family not in FAMILIES:
        raise FormulaDomainError(f"unknown family {family!r}")
    grid = dict(FAMILIES[family].GRID)
    for name, (lo, hi) in (requested or {}).items():
        if name not in grid:
            raise FormulaDomainError(f"family {family} has no parameter {name!r}")
        floor = grid[name][0]
        if lo < floor:
            raise FormulaDomainError(
                f"{family} verification requires {name} >= {floor}, got {name}={lo}"
            )
        if hi < lo:
            raise FormulaDomainError(f"empty range for {name}: {lo}..{hi}")
        grid[name] = (lo, hi)
    return grid


def grid_specs(family: str, ranges: dict[str, tuple[int, int]]) -> list[FamilySpec]:
    """Specs over the product of the ranges, in the family's grid order.

    A grid whose graphs sum to more than ``MAX_SIZE`` nodes plus edges is
    refused as soon as the running sum passes the limit.
    """
    cls = FAMILIES[family]
    bounds = [ranges[name] for name in cls.GRID]
    # Each graph has a node, so the number of points bounds the sum from below
    # and a huge range is refused before product() lists it.  A range is
    # counted as hi - lo + 1: len() of a range refuses one over sys.maxsize.
    size = math.prod(hi - lo + 1 for lo, hi in bounds)
    specs = []
    if size <= MAX_SIZE:
        size = 0
        for point in product(*(range(lo, hi + 1) for lo, hi in bounds)):
            spec = cls.from_grid(**dict(zip(cls.GRID, point)))
            size += spec.order + spec.size
            if size > MAX_SIZE:
                break
            specs.append(spec)
    if size > MAX_SIZE:
        raise FamilyParameterError(
            f"the {family} grid has more than {MAX_SIZE} nodes plus edges; "
            f"verify builds at most {MAX_SIZE}")
    return specs


def _ordering_checks(
    spec: FamilySpec, values: dict[NodeClass, Fraction], report: VerifyReport
) -> None:
    label = spec.label()
    for upper, relation, lower in spec.expected_order():
        if not _RELATIONS[relation](values[upper], values[lower]):
            report.violations.append(
                f"{label}: expected imc({upper.value}) {relation} imc({lower.value})")
        if relation == "not >":
            report.notes.append(
                f"{label}: {spec.EXCEPTION_NOTE}: imc({upper.value})={values[upper]}, "
                f"imc({lower.value})={values[lower]}")


def _check_spec(lg: LabeledGraph, ranking: RankReport, report: VerifyReport) -> None:
    spec = lg.spec
    label, params = spec.label(), spec.params()
    imc_by_node = {entry.node: entry.imc for entry in ranking.entries}

    phi_form = getattr(cf, f"phi_{spec.NAME}")
    report.rows.append(VerifyRow(label, "phi", phi_form(*params), ranking.phi))

    values: dict[NodeClass, Fraction] = {}
    for v, node_class in enumerate(lg.classes):
        seen = values.setdefault(node_class, imc_by_node[v])
        if seen != imc_by_node[v]:
            report.violations.append(
                f"{label}: engine imc differs between nodes of class {node_class.value}"
            )
    for variant in ("", *spec.IMC_VARIANTS):
        imc_form = getattr(cf, "_".join(filter(None, ("imc", spec.NAME, variant))))
        suffix = f"+{variant}" if variant else ""
        for node_class in spec.ROLES:
            report.rows.append(VerifyRow(label, node_class.value + suffix,
                                         imc_form(*params, node_class), values[node_class]))
    _ordering_checks(spec, values, report)


def _chunks(specs: list[FamilySpec]) -> Iterator[list[FamilySpec]]:
    # Runs of consecutive specs of at most _CHUNK nodes plus edges; a larger
    # spec is a chunk of its own.
    chunk, size = [], 0
    for spec in specs:
        if chunk and size + spec.order + spec.size > _CHUNK:
            yield chunk
            chunk, size = [], 0
        chunk.append(spec)
        size += spec.order + spec.size
    if chunk:
        yield chunk


def verify_family(
    family: str,
    ranges: dict[str, tuple[int, int]] | None = None,
    *,
    jobs: int = 1,
) -> VerifyReport:
    """Check one family over a grid, one chunk of specs at a time.

    Each chunk's graphs are generated, ranked, checked and dropped before the
    next chunk is built, so a grid holds no more than one chunk's graphs and
    rankings at once.  Specs whose graph is a tree (paths, comets, double
    comets) are ranked without contracting and never fork; the contractions
    of every other spec in a chunk are shared among up to ``jobs`` worker
    processes, as in ``imc_all``.  The report is identical for every value of
    ``jobs``.
    """
    report = VerifyReport(rows=[], notes=[], violations=[])
    for chunk in _chunks(grid_specs(family, resolve_ranges(family, ranges))):
        labeled = [generate(spec) for spec in chunk]
        for lg, ranking in zip(labeled, rank_graphs([lg.graph for lg in labeled], jobs=jobs)):
            _check_spec(lg, ranking, report)
    return report

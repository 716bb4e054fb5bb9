"""Grid verification of the contraction engine against the closed forms.

For every family spec in a parameter grid the harness generates the graph,
runs the full engine ranking, and compares graph-level agglomeration plus the
per-role importance values against the analytic formulas, demanding exact
rational equality.  What a family is (its grid, roles and generator) comes
from the registry in ``families``; its closed forms are looked up by name as
``closed_forms.phi_<name>`` and ``closed_forms.imc_<name>`` at call time.
The harness also checks the paper's expected importance orderings between
roles; the two lollipop parameter points where the generic clique-vs-inner
ordering is known to break are reported as notes with the exact values rather
than counted as mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import closed_forms as cf
from .agglomeration import RankReport, rank_graphs
from .errors import FormulaDomainError
from .families import (
    FAMILIES,
    DoubleCometSpec,
    FamilySpec,
    LabeledGraph,
    LollipopSpec,
    NodeClass,
    generate,
)

# Default grids; lower bounds double as the hard floor below which the
# importance formulas are not established and verification refuses to run.
DEFAULT_GRIDS: dict[str, dict[str, tuple[int, int]]] = {
    name: cls.GRID for name, cls in FAMILIES.items()
}

# Lollipop points where clique nodes do not outrank inner tail nodes.
LOLLIPOP_EXCEPTIONS = {(7, 4), (8, 5)}


@dataclass(frozen=True)
class VerifyRow:
    spec: str
    check: str
    analytic: Fraction
    engine: Fraction

    @property
    def match(self) -> bool:
        return self.analytic == self.engine


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
    if family not in DEFAULT_GRIDS:
        raise FormulaDomainError(f"unknown family {family!r}")
    grid = dict(DEFAULT_GRIDS[family])
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
    """Specs over the product of the ranges, in the family's grid order."""
    cls = FAMILIES[family]
    spans = [range(ranges[name][0], ranges[name][1] + 1) for name in cls.GRID]
    return [cls.from_grid(**dict(zip(cls.GRID, point))) for point in product(*spans)]


def _ordering_checks(
    spec: FamilySpec, values: dict[NodeClass, Fraction], report: VerifyReport
) -> None:
    family, label = spec.NAME, spec.label()

    def expect(cond: bool, description: str) -> None:
        if not cond:
            report.violations.append(f"{label}: expected {description}")

    if family == "path":
        expect(
            values[NodeClass.PATH_INNER] > values[NodeClass.PATH_END],
            "imc(inner) > imc(end)",
        )
    elif family == "comet":
        chain = (
            NodeClass.COMET_CENTER,
            NodeClass.COMET_PATH_INNER,
            NodeClass.COMET_PATH_END,
            NodeClass.COMET_STAR_LEAF,
        )
        for upper, lower in zip(chain, chain[1:]):
            expect(values[upper] > values[lower], f"imc({upper.value}) > imc({lower.value})")
    elif family == "double_comet":
        assert isinstance(spec, DoubleCometSpec)
        end_a = values[NodeClass.DC_END_A]
        end_b = values[NodeClass.DC_END_B]
        inner = values[NodeClass.DC_INNER]
        leaf_a = values[NodeClass.DC_LEAF_A]
        leaf_b = values[NodeClass.DC_LEAF_B]
        if spec.a > spec.b:
            for cond, desc in (
                (end_a > end_b, "imc(end A) > imc(end B)"),
                (end_b > inner, "imc(end B) > imc(inner)"),
                (inner > leaf_b, "imc(inner) > imc(leaf B)"),
                (leaf_b > leaf_a, "imc(leaf B) > imc(leaf A)"),
            ):
                expect(cond, desc + " when a > b")
        elif spec.b > spec.a:
            for cond, desc in (
                (end_b > end_a, "imc(end B) > imc(end A)"),
                (end_a > inner, "imc(end A) > imc(inner)"),
                (inner > leaf_a, "imc(inner) > imc(leaf A)"),
                (leaf_a > leaf_b, "imc(leaf A) > imc(leaf B)"),
            ):
                expect(cond, desc + " when b > a")
        else:
            expect(end_a == end_b, "imc(end A) == imc(end B) when a == b")
            expect(leaf_a == leaf_b, "imc(leaf A) == imc(leaf B) when a == b")
            expect(end_a > inner, "imc(ends) > imc(inner) when a == b")
            expect(inner > leaf_a, "imc(inner) > imc(leaves) when a == b")
    else:
        assert isinstance(spec, LollipopSpec)
        junction = values[NodeClass.LP_JUNCTION]
        inner = values[NodeClass.LP_PATH_INNER]
        end = values[NodeClass.LP_PATH_END]
        clique = values[NodeClass.LP_CLIQUE]
        expect(junction > inner, "imc(junction) > imc(tail inner)")
        expect(junction > end, "imc(junction) > imc(tail end)")
        expect(junction > clique, "imc(junction) > imc(clique)")
        expect(inner > end, "imc(tail inner) > imc(tail end)")
        expect(clique > end, "imc(clique) > imc(tail end)")
        clique_size = spec.n - spec.d
        if clique_size == 2:
            expect(inner > clique, "imc(tail inner) > imc(clique) when the clique has 2 nodes")
        elif (spec.n, spec.d) in LOLLIPOP_EXCEPTIONS:
            expect(
                not clique > inner,
                "the clique-over-inner ordering to fail at this known point",
            )
            report.notes.append(
                f"{label}: clique nodes do not outrank inner tail nodes here: "
                f"imc(lp_clique)={clique}, imc(lp_path_inner)={inner}"
            )
        else:
            expect(clique > inner, "imc(clique) > imc(tail inner)")


def _check_spec(lg: LabeledGraph, ranking: RankReport, report: VerifyReport) -> None:
    spec = lg.spec
    label, params = spec.label(), spec.params()
    imc_by_node = {entry.node: entry.imc for entry in ranking.entries}

    phi_form = getattr(cf, f"phi_{spec.NAME}")
    imc_form = getattr(cf, f"imc_{spec.NAME}")
    report.rows.append(VerifyRow(label, "phi", phi_form(*params), ranking.phi))

    values: dict[NodeClass, Fraction] = {}
    for v, node_class in enumerate(lg.classes):
        seen = values.setdefault(node_class, imc_by_node[v])
        if seen != imc_by_node[v]:
            report.violations.append(
                f"{label}: engine imc differs between nodes of class {node_class.value}"
            )
    for node_class in spec.ROLES:
        report.rows.append(
            VerifyRow(label, node_class.value, imc_form(*params, node_class), values[node_class])
        )
    if isinstance(spec, DoubleCometSpec):
        for node_class in spec.ROLES:
            report.rows.append(
                VerifyRow(
                    label,
                    node_class.value + "+condensed",
                    cf.imc_double_comet_condensed(*params, node_class),
                    values[node_class],
                )
            )
    _ordering_checks(spec, values, report)


def verify_family(
    family: str,
    ranges: dict[str, tuple[int, int]] | None = None,
    *,
    jobs: int = 1,
) -> VerifyReport:
    """Check one family over a grid.

    The contractions of every spec's ranking are shared among up to ``jobs``
    worker processes, as in ``imc_all``; the report is identical for every
    value of ``jobs``.
    """
    labeled = [generate(spec) for spec in grid_specs(family, resolve_ranges(family, ranges))]
    rankings = rank_graphs([lg.graph for lg in labeled], jobs=jobs)
    report = VerifyReport(rows=[], notes=[], violations=[])
    for lg, ranking in zip(labeled, rankings):
        _check_spec(lg, ranking, report)
    return report

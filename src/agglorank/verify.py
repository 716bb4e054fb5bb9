"""Grid verification of the contraction engine against the closed forms.

For every family spec in a parameter grid the harness generates the graph,
runs the full engine ranking, and compares graph-level agglomeration plus the
per-role importance values against the analytic formulas, demanding exact
rational equality.  It also checks the expected importance orderings between
roles; the two lollipop parameter points where the generic clique-vs-inner
ordering is known to break are reported as notes with the exact values rather
than counted as mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import closed_forms as cf
from .agglomeration import imc_all
from .errors import FormulaDomainError
from .families import (
    CometSpec,
    DoubleCometSpec,
    FamilySpec,
    LollipopSpec,
    NodeClass,
    PathSpec,
    generate,
)

FAMILIES = ("path", "comet", "double_comet", "lollipop")

# Default grids; lower bounds double as the hard floor below which the
# importance formulas are not established and verification refuses to run.
DEFAULT_GRIDS: dict[str, dict[str, tuple[int, int]]] = {
    "path": {"n": (4, 40)},
    "comet": {"s": (3, 10), "t": (4, 12)},
    "double_comet": {"a": (2, 6), "b": (2, 6), "k": (4, 10)},
    "lollipop": {"d": (4, 12), "nd": (2, 8)},
}

# Lollipop points where clique nodes do not outrank inner tail nodes.
LOLLIPOP_EXCEPTIONS = {(7, 4), (8, 5)}

_CLASS_ORDER: dict[str, tuple[NodeClass, ...]] = {
    "path": (NodeClass.PATH_END, NodeClass.PATH_INNER),
    "comet": (
        NodeClass.COMET_PATH_END,
        NodeClass.COMET_PATH_INNER,
        NodeClass.COMET_CENTER,
        NodeClass.COMET_STAR_LEAF,
    ),
    "double_comet": (
        NodeClass.DC_LEAF_A,
        NodeClass.DC_LEAF_B,
        NodeClass.DC_END_A,
        NodeClass.DC_END_B,
        NodeClass.DC_INNER,
    ),
    "lollipop": (
        NodeClass.LP_PATH_END,
        NodeClass.LP_PATH_INNER,
        NodeClass.LP_JUNCTION,
        NodeClass.LP_CLIQUE,
    ),
}


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
    def span(name: str) -> range:
        lo, hi = ranges[name]
        return range(lo, hi + 1)

    if family == "path":
        return [PathSpec(n) for n in span("n")]
    if family == "comet":
        return [CometSpec(s, t) for s in span("s") for t in span("t")]
    if family == "double_comet":
        return [
            DoubleCometSpec(n=a + b + k, a=a, b=b)
            for a in span("a")
            for b in span("b")
            for k in span("k")
        ]
    return [LollipopSpec(n=d + nd, d=d) for d in span("d") for nd in span("nd")]


def _analytic_phi(spec: FamilySpec) -> Fraction:
    if isinstance(spec, PathSpec):
        return cf.phi_path(spec.n)
    if isinstance(spec, CometSpec):
        return cf.phi_comet(spec.s, spec.t)
    if isinstance(spec, DoubleCometSpec):
        return cf.phi_double_comet(spec.n, spec.a, spec.b)
    return cf.phi_lollipop(spec.n, spec.d)


def _analytic_imc(spec: FamilySpec, node_class: NodeClass) -> Fraction:
    if isinstance(spec, PathSpec):
        return cf.imc_path(spec.n, node_class)
    if isinstance(spec, CometSpec):
        return cf.imc_comet(spec.s, spec.t, node_class)
    if isinstance(spec, DoubleCometSpec):
        return cf.imc_double_comet(spec.n, spec.a, spec.b, node_class)
    return cf.imc_lollipop(spec.n, spec.d, node_class)


def _ordering_checks(
    family: str,
    spec: FamilySpec,
    values: dict[NodeClass, Fraction],
    notes: list[str],
    violations: list[str],
) -> None:
    label = spec.label()

    def expect(cond: bool, description: str) -> None:
        if not cond:
            violations.append(f"{label}: expected {description}")

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
            notes.append(
                f"{label}: clique nodes do not outrank inner tail nodes here: "
                f"imc(lp_clique)={clique}, imc(lp_path_inner)={inner}"
            )
        else:
            expect(clique > inner, "imc(clique) > imc(tail inner)")


def _check_spec(
    family: str, spec: FamilySpec
) -> tuple[list[VerifyRow], list[str], list[str]]:
    label = spec.label()
    lg = generate(spec)
    report = imc_all(lg.graph)
    imc_by_node = {entry.node: entry.imc for entry in report.entries}

    rows = [VerifyRow(label, "phi", _analytic_phi(spec), report.phi)]
    notes: list[str] = []
    violations: list[str] = []

    values: dict[NodeClass, Fraction] = {}
    for v, node_class in enumerate(lg.classes):
        seen = values.setdefault(node_class, imc_by_node[v])
        if seen != imc_by_node[v]:
            violations.append(
                f"{label}: engine imc differs between nodes of class {node_class.value}"
            )
    for node_class in _CLASS_ORDER[family]:
        rows.append(
            VerifyRow(label, node_class.value, _analytic_imc(spec, node_class), values[node_class])
        )
    if isinstance(spec, DoubleCometSpec):
        for node_class in _CLASS_ORDER[family]:
            rows.append(
                VerifyRow(
                    label,
                    node_class.value + "+condensed",
                    cf.imc_double_comet_condensed(spec.n, spec.a, spec.b, node_class),
                    values[node_class],
                )
            )
    _ordering_checks(family, spec, values, notes, violations)
    return rows, notes, violations


def verify_family(
    family: str,
    ranges: dict[str, tuple[int, int]] | None = None,
    *,
    jobs: int = 1,
) -> VerifyReport:
    """Check one family over a grid.

    ``jobs`` is accepted for compatibility; it changes neither the report nor
    the speed.
    """
    specs = grid_specs(family, resolve_ranges(family, ranges))
    report = VerifyReport(rows=[], notes=[], violations=[])
    for rows, notes, violations in (_check_spec(family, spec) for spec in specs):
        report.rows.extend(rows)
        report.notes.extend(notes)
        report.violations.extend(violations)
    return report

"""Verification harness: row shapes, range policing, orderings, the size
limit, a family added from outside, parallel determinism."""

import pytest

from agglorank import agglomeration, closed_forms, verify
from agglorank.errors import FormulaDomainError
from agglorank.families import FAMILIES, MAX_SIZE, PathSpec
from agglorank.reports import FORMATS, render_verify
from agglorank.verify import (
    DEFAULT_GRIDS,
    VerifyReport,
    VerifyRow,
    _ordering_checks,
    grid_specs,
    resolve_ranges,
    verify_family,
)
from fractions import Fraction


def test_path_slice_has_no_mismatches():
    report = verify_family("path", {"n": (4, 12)})
    assert report.mismatches == 0
    assert report.total == 9 * 3  # phi + two classes per spec
    assert all(row.match for row in report.rows)


def test_comet_slice_rows():
    report = verify_family("comet", {"s": (3, 4), "t": (4, 5)})
    assert report.mismatches == 0
    assert {row.check for row in report.rows} == {
        "phi", "comet_path_end", "comet_path_inner", "comet_center", "comet_star_leaf",
    }


def test_double_comet_includes_condensed_cross_check():
    report = verify_family("double_comet", {"a": (2, 2), "b": (2, 2), "k": (4, 4)})
    checks = [row.check for row in report.rows]
    assert "dc_inner+condensed" in checks
    assert report.mismatches == 0
    assert report.total == 11  # phi + 5 classes + 5 condensed


def test_lollipop_exception_notes():
    report = verify_family("lollipop", {"d": (4, 5), "nd": (3, 3)})
    assert report.mismatches == 0
    assert len(report.notes) == 2
    assert any("L(7,4)" in note and "23/43" in note and "47/86" in note
               for note in report.notes)
    assert any("L(8,5)" in note and "33/68" in note for note in report.notes)


def test_below_formula_floor_is_rejected():
    with pytest.raises(FormulaDomainError, match="s >= 3"):
        verify_family("comet", {"s": (2, 5)})
    with pytest.raises(FormulaDomainError, match="n >= 4"):
        verify_family("path", {"n": (2, 10)})
    with pytest.raises(FormulaDomainError, match="d >= 4"):
        verify_family("lollipop", {"d": (3, 6)})


def test_unknown_family_rejected():
    with pytest.raises(FormulaDomainError, match="^unknown family 'cycle'$"):
        resolve_ranges("cycle", None)


def test_unknown_parameter_rejected():
    with pytest.raises(FormulaDomainError, match="no parameter"):
        verify_family("path", {"t": (4, 5)})


@pytest.mark.parametrize(
    "family,count,first,second,last",
    [
        ("path", 37, "P(4)", "P(5)", "P(40)"),
        ("comet", 72, "C(3,4)", "C(3,5)", "C(10,12)"),
        ("double_comet", 175, "DC(8,2,2)", "DC(9,2,2)", "DC(22,6,6)"),
        ("lollipop", 63, "L(6,4)", "L(7,4)", "L(20,12)"),
    ],
)
def test_default_grid_extent_and_order(family, count, first, second, last):
    labels = [spec.label() for spec in grid_specs(family, resolve_ranges(family, None))]
    assert len(labels) == count
    assert labels[:2] == [first, second]
    assert labels[-1] == last


def test_empty_range_rejected():
    with pytest.raises(FormulaDomainError, match="empty range"):
        resolve_ranges("path", {"n": (10, 5)})


def test_ranges_may_extend_upward():
    # the formula floor is enforced; larger upper bounds are allowed
    report = verify_family("path", {"n": (41, 45)})
    assert report.mismatches == 0


def test_parallel_report_matches_serial(cpus, forks):
    cpus(4)
    ranges = {"s": (3, 5), "t": (4, 16)}
    specs = grid_specs("comet", ranges)
    assert sum(spec.order**2 for spec in specs) >= agglomeration._FORK_MIN_WORK
    serial = verify_family("comet", ranges)
    parallel = verify_family("comet", ranges, jobs=4)
    assert forks == []  # comets are trees, ranked without contracting
    assert serial.rows == parallel.rows
    assert serial.notes == parallel.notes
    assert serial.violations == parallel.violations
    # Lollipops with a clique of 3 or more have cycles, so their ranking splits.
    serial = verify_family("lollipop")
    parallel = verify_family("lollipop", jobs=4)
    assert len(forks) == 3
    assert serial == parallel


@pytest.mark.parametrize("family", sorted(DEFAULT_GRIDS))
def test_a_report_is_the_same_for_any_chunk_bound(monkeypatch, family):
    monkeypatch.setattr(verify, "_CHUNK", MAX_SIZE)
    whole = verify_family(family)  # the grid as one chunk
    monkeypatch.setattr(verify, "_CHUNK", 1)  # one spec to a chunk
    assert verify_family(family) == whole
    monkeypatch.undo()
    assert verify_family(family) == whole


def test_a_grid_is_ranked_one_chunk_at_a_time(monkeypatch):
    ranges = {"d": (4, 16), "nd": (2, 12)}
    specs = grid_specs("lollipop", ranges)
    assert sum(spec.order + spec.size for spec in specs) > 2 * verify._CHUNK
    chunks = []

    def spy(graphs, *, jobs):
        chunks.append([g.n for g in graphs])
        assert len(graphs) == 1 or sum(g.n + g.edge_count() for g in graphs) <= verify._CHUNK
        return rank(graphs, jobs=jobs)

    rank = verify.rank_graphs
    monkeypatch.setattr(verify, "rank_graphs", spy)
    report = verify_family("lollipop", ranges)
    assert len(chunks) > 2
    assert sum(chunks, []) == [spec.order for spec in specs]  # each spec once, in grid order
    monkeypatch.setattr(verify, "_CHUNK", MAX_SIZE)
    assert verify_family("lollipop", ranges) == report
    assert chunks[-1] == [spec.order for spec in specs]  # the whole grid in one call


def test_mismatch_accounting():
    good = VerifyRow("X", "phi", Fraction(1, 2), Fraction(1, 2))
    bad = VerifyRow("X", "phi", Fraction(1, 2), Fraction(1, 3))
    report = VerifyReport(rows=[good, bad], notes=[], violations=["X: ordering"])
    assert report.total == 2
    assert report.mismatches == 2


def test_each_row_compares_its_values_once():
    # Rendering the report and counting its mismatches, as verify does, read
    # each row's match; the two Fractions are compared when the row is made.
    compared = []

    class Counted(Fraction):
        def __eq__(self, other):
            compared.append(self)
            return super().__eq__(other)

    rows = [VerifyRow("X", "phi", Counted(1, 2), Fraction(1, 2)),
            VerifyRow("X", "phi", Counted(1, 2), Fraction(1, 3))]
    report = VerifyReport(rows=rows, notes=[], violations=[])
    for fmt in FORMATS:
        render_verify(report, fmt)
    assert report.mismatches == 1
    assert len(compared) == len(rows)


def test_grid_at_the_size_limit_is_admitted():
    # P(500000) and P(500001) have 999,999 + 1,000,001 nodes plus edges.
    specs = grid_specs("path", {"n": (500_000, 500_001)})
    assert sum(spec.order + spec.size for spec in specs) == MAX_SIZE
    assert [spec.label() for spec in specs] == ["P(500000)", "P(500001)"]


def closed_form_values(spec):
    imc_form = getattr(closed_forms, f"imc_{spec.NAME}")
    return {role: imc_form(*spec.params(), role) for role in spec.ROLES}


def broken(values, upper, relation, lower):
    """Values that contradict one expected relation."""
    values = dict(values)
    if relation == ">":
        values[upper], values[lower] = values[lower], values[upper]
    else:  # "==" and "not >" break once the upper role outranks the lower
        values[upper] = values[lower] + 1
    return values


@pytest.mark.parametrize("family,kinds", [
    ("path", {">"}),
    ("comet", {">"}),
    ("double_comet", {">", "=="}),
    ("lollipop", {">", "not >"}),
])
def test_every_expected_relation_fires(family, kinds):
    seen = set()
    for spec in grid_specs(family, resolve_ranges(family, None)):
        values = closed_form_values(spec)
        report = VerifyReport(rows=[], notes=[], violations=[])
        _ordering_checks(spec, values, report)
        assert report.violations == []
        for upper, relation, lower in spec.expected_order():
            seen.add(relation)
            report = VerifyReport(rows=[], notes=[], violations=[])
            _ordering_checks(spec, broken(values, upper, relation, lower), report)
            wanted = f"{spec.label()}: expected imc({upper.value}) {relation} imc({lower.value})"
            assert wanted in report.violations
    assert seen == kinds


def test_a_new_family_needs_no_verify_edit(monkeypatch):
    class TwinPathSpec(PathSpec):
        NAME, ABBREV = "twin_path", "TP"
        IMC_VARIANTS = ("again",)

    monkeypatch.setitem(FAMILIES, TwinPathSpec.NAME, TwinPathSpec)
    for name, form in (("phi_twin_path", closed_forms.phi_path),
                       ("imc_twin_path", closed_forms.imc_path),
                       ("imc_twin_path_again", closed_forms.imc_path)):
        monkeypatch.setattr(closed_forms, name, form, raising=False)
    report = verify_family("twin_path", {"n": (4, 8)})
    assert report.mismatches == 0
    assert report.total == 5 * 5  # phi + two classes + two "again" rows per spec
    assert [row.check for row in report.rows[:5]] == [
        "phi", "path_end", "path_inner", "path_end+again", "path_inner+again"]
    assert report.rows[0].spec == "TP(4)"

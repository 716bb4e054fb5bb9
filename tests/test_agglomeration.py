"""Engine values: average path length, agglomeration, importance, ranking."""

import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from agglorank import agglomeration
from agglorank.agglomeration import (
    ImcEntry,
    RankReport,
    Rational,
    average_path_length,
    imc,
    imc_all,
    phi,
    phi_and_length,
)
from agglorank.errors import ConnectivityError, DegenerateOrderError
from agglorank.families import CometSpec, NodeClass, PathSpec, generate
from agglorank.graph import bfs_distances, distance_sum, from_edge_list

from oracles import all_connected_labeled_graphs, oracle_distance_sum, random_connected_graph


def path(n):
    return from_edge_list([(i, i + 1) for i in range(n - 1)])


def complete(n):
    return from_edge_list([(i, j) for i in range(n) for j in range(i + 1, n)])


def star(s):
    return from_edge_list([(0, j) for j in range(1, s + 1)])


def test_rational_carrier_is_exact_and_reduced():
    assert Rational is Fraction
    x = Rational(4, 8)
    assert (x.numerator, x.denominator) == (1, 2)
    y = Rational(3, -9)  # denominator normalizes to positive
    assert (y.numerator, y.denominator) == (-1, 3)
    big = Rational(10**30, 3) * Rational(3, 10**30)
    assert big == 1  # no overflow, ever


class TestAveragePathLength:
    def test_path4(self):
        assert average_path_length(path(4)) == Fraction(5, 3)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_complete_is_one(self, m):
        assert average_path_length(complete(m)) == 1

    def test_comet(self):
        assert average_path_length(generate(CometSpec(3, 4)).graph) == Fraction(46, 21)

    def test_single_node_degenerate(self):
        with pytest.raises(DegenerateOrderError):
            average_path_length(from_edge_list([], n=1))


class TestPhi:
    def test_path4(self):
        assert phi(path(4)) == Fraction(3, 20)

    def test_single_node_is_one(self):
        assert phi(from_edge_list([], n=1)) == 1

    @pytest.mark.parametrize("s", [1, 2, 3, 7])
    def test_star(self, s):
        assert phi(star(s)) == Fraction(1, 2 * s)

    def test_disconnected(self):
        with pytest.raises(ConnectivityError):
            phi(from_edge_list([(0, 1), (2, 3)]))

    def test_range_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(1, 8))
            value = phi(g)
            assert 0 < value <= 1
            assert (value == 1) == (g.n == 1)


class TestImc:
    def test_path4_end(self):
        entry = imc(path(4), 0)
        assert entry.imc == Fraction(2, 5)
        assert entry.contracted_order == 3

    def test_path4_inner(self):
        assert imc(path(4), 1).imc == Fraction(7, 10)

    def test_two_node_graph(self):
        for v in (0, 1):
            entry = imc(path(2), v)
            assert entry.imc == Fraction(1, 2)
            assert entry.contracted_order == 1

    def test_comet_center(self):
        assert imc(generate(CometSpec(3, 4)).graph, 3).imc == Fraction(17, 23)


class TestImcAll:
    def test_path4_ranking(self):
        report = imc_all(path(4))
        assert report.phi == Fraction(3, 20)
        assert [(e.node, e.imc) for e in report.entries] == [
            (1, Fraction(7, 10)),
            (2, Fraction(7, 10)),
            (0, Fraction(2, 5)),
            (3, Fraction(2, 5)),
        ]

    def test_comet_ranking_order(self):
        report = imc_all(generate(CometSpec(3, 4)).graph)
        values = {e.node: e.imc for e in report.entries}
        assert values[3] == Fraction(17, 23)       # center
        assert values[1] == values[2] == Fraction(11, 23)
        assert values[0] == Fraction(31, 115)
        assert values[4] == values[5] == values[6] == Fraction(19, 115)
        assert [e.node for e in report.entries] == [3, 1, 2, 0, 4, 5, 6]

    def test_complete_graph_ties_break_by_id(self):
        report = imc_all(complete(4))
        assert all(e.imc == Fraction(3, 4) for e in report.entries)
        assert [e.node for e in report.entries] == [0, 1, 2, 3]

    def test_every_node_covered_once(self):
        rng = random.Random(3)
        g = random_connected_graph(rng, 7)
        report = imc_all(g)
        assert sorted(e.node for e in report.entries) == list(range(7))

    def test_values_are_exact_rationals(self):
        report = imc_all(path(5))
        assert isinstance(report.phi, Fraction)
        assert all(isinstance(e.imc, Fraction) for e in report.entries)

    def test_parallel_report_is_identical(self):
        g = generate(CometSpec(4, 6)).graph
        baseline = imc_all(g)
        for jobs in (2, 4, 8):
            assert imc_all(g, jobs=jobs) == baseline

    def test_single_node_degenerate(self):
        with pytest.raises(DegenerateOrderError):
            imc_all(from_edge_list([], n=1))


def test_phi_matches_oracle_and_imc_nonnegative_on_random_graphs():
    rng = random.Random(2024)
    negative = []
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(2, 8))
        assert phi(g) == Fraction(g.n - 1, oracle_distance_sum(g))
        for entry in imc_all(g).entries:
            if entry.imc < 0:
                negative.append((list(g.edges()), entry.node, entry.imc))
    assert not negative, f"negative importance counterexamples: {negative[:5]}"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_matches_oracle_on_every_small_graph(n):
    for g in all_connected_labeled_graphs(n):
        assert phi(g) == Fraction(n - 1, oracle_distance_sum(g))
        assert all(entry.imc >= 0 for entry in imc_all(g).entries)


def test_path_formula_values_up_to_60():
    for n in range(4, 61):
        lg = generate(PathSpec(n))
        end = Fraction(2, n + 1)
        inner = Fraction(2 * (2 * n - 1), n * (n + 1))
        assert inner > end  # higher-degree inner nodes always rank higher
        for entry in imc_all(lg.graph).entries:
            expected = end if lg.classes[entry.node] is NodeClass.PATH_END else inner
            assert entry.imc == expected


def test_phi_and_length_share_one_distance_sum(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return distance_sum(g)

    monkeypatch.setattr(agglomeration, "distance_sum", counted)
    assert phi_and_length(path(4)) == (Fraction(3, 20), Fraction(5, 3))
    assert len(calls) == 1
    assert phi_and_length(from_edge_list([], n=1)) == (1, None)
    assert len(calls) == 1


@pytest.mark.parametrize("edges, n", [([(0, 1), (2, 3)], None), ([(1, 2)], 4),
                                      ([(0, 2), (2, 3)], 5)])
def test_disconnected_ranking_raises_before_the_per_node_loop(monkeypatch, edges, n):
    g = from_edge_list(edges, n=n)
    with pytest.raises(ConnectivityError) as expected:
        bfs_distances(g, 0)

    def per_node_loop(*args):
        raise AssertionError("the per-node loop ran on a disconnected graph")

    monkeypatch.setattr(agglomeration, "contract", per_node_loop)
    with pytest.raises(ConnectivityError) as raised:
        imc_all(g)
    assert str(raised.value) == str(expected.value)
    assert raised.value.unreachable == expected.value.unreachable


def test_single_node_ranking_and_importance_are_degenerate():
    g = from_edge_list([], n=1)
    with pytest.raises(DegenerateOrderError, match="ranking requires at least two nodes"):
        imc_all(g)
    with pytest.raises(DegenerateOrderError, match="importance requires at least two nodes"):
        imc(g, 0)


class TestValueClasses:
    """ImcEntry and RankReport behave as the frozen dataclasses they replace."""

    def test_imc_entry_by_position_and_keyword(self):
        entry = ImcEntry(0, Fraction(1, 2), 1)
        same = ImcEntry(node=0, imc=Fraction(1, 2), contracted_order=1)
        assert entry == same and entry is not same
        assert hash(entry) == hash(same) and len({entry, same}) == 1
        assert entry != ImcEntry(1, Fraction(1, 2), 1)
        assert (entry.node, entry.imc, entry.contracted_order) == (0, Fraction(1, 2), 1)
        assert repr(entry) == "ImcEntry(node=0, imc=Fraction(1, 2), contracted_order=1)"
        assert pickle.loads(pickle.dumps(entry)) == entry

    def test_rank_report_by_position_and_keyword(self):
        entries = (ImcEntry(0, Fraction(1, 2), 1), ImcEntry(1, Fraction(1, 2), 1))
        report = RankReport(Fraction(1, 2), Fraction(1), entries)
        same = RankReport(phi=Fraction(1, 2), avg_path_length=Fraction(1), entries=entries)
        assert report == same == imc_all(path(2))
        assert hash(report) == hash(same) and pickle.loads(pickle.dumps(report)) == report
        assert report != RankReport(Fraction(1, 2), Fraction(1), entries[:1])
        assert repr(report) == (
            "RankReport(phi=Fraction(1, 2), avg_path_length=Fraction(1, 1), entries=("
            "ImcEntry(node=0, imc=Fraction(1, 2), contracted_order=1), "
            "ImcEntry(node=1, imc=Fraction(1, 2), contracted_order=1)))")

    @pytest.mark.parametrize("value, name", [
        (ImcEntry(0, Fraction(1, 2), 1), "imc"),
        (ImcEntry(0, Fraction(1, 2), 1), "other"),
        (RankReport(Fraction(1), None, ()), "entries"),
    ])
    def test_fields_cannot_be_assigned_or_deleted(self, value, name):
        before = repr(value)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(value, name)
        assert repr(value) == before

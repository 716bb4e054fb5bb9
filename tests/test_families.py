"""Family generators: numbering, roles, degrees, identities, serialization."""

import pytest

from agglorank import closed_forms
from agglorank.agglomeration import phi
from agglorank.errors import EdgeListError, FamilyParameterError
from agglorank.families import (
    FAMILIES,
    CometSpec,
    DoubleCometSpec,
    LollipopSpec,
    NodeClass,
    PathSpec,
    class_of,
    generate,
    read_labeled,
    scan_class_comments,
    write_labeled,
)
from agglorank.graph import degree, is_connected

from oracles import distance_signature


def test_path_layout():
    lg = generate(PathSpec(5))
    assert list(lg.graph.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert class_of(lg, 0) is NodeClass.PATH_END
    assert class_of(lg, 4) is NodeClass.PATH_END
    assert all(class_of(lg, v) is NodeClass.PATH_INNER for v in (1, 2, 3))


def test_comet_layout():
    lg = generate(CometSpec(3, 4))
    # handle end, two inner handle nodes, center, three star leaves
    assert lg.classes == (
        NodeClass.COMET_PATH_END,
        NodeClass.COMET_PATH_INNER,
        NodeClass.COMET_PATH_INNER,
        NodeClass.COMET_CENTER,
        NodeClass.COMET_STAR_LEAF,
        NodeClass.COMET_STAR_LEAF,
        NodeClass.COMET_STAR_LEAF,
    )
    assert class_of(lg, 3) is NodeClass.COMET_CENTER
    assert degree(lg.graph, 3) == 4  # s + 1


def test_double_comet_layout():
    lg = generate(DoubleCometSpec(8, 2, 2))
    assert lg.classes[:2] == (NodeClass.DC_LEAF_A, NodeClass.DC_LEAF_A)
    assert lg.classes[2:4] == (NodeClass.DC_LEAF_B, NodeClass.DC_LEAF_B)
    assert class_of(lg, 4) is NodeClass.DC_END_A
    assert class_of(lg, 7) is NodeClass.DC_END_B
    assert class_of(lg, 5) is NodeClass.DC_INNER
    assert degree(lg.graph, 4) == 3  # a + 1


def test_lollipop_layout():
    lg = generate(LollipopSpec(10, 5))
    assert class_of(lg, 0) is NodeClass.LP_PATH_END
    assert class_of(lg, 4) is NodeClass.LP_JUNCTION
    assert all(class_of(lg, v) is NodeClass.LP_CLIQUE for v in range(5, 10))
    assert degree(lg.graph, 0) == 1
    assert degree(lg.graph, 4) == 6  # n - d + 1
    # clique nodes see each other plus the junction
    assert all(degree(lg.graph, v) == 5 for v in range(5, 10))


def test_class_of_out_of_range():
    for v in (3, -1):
        with pytest.raises(IndexError, match=rf"^node {v} out of range for graph of order 3$"):
            class_of(generate(PathSpec(3)), v)


@pytest.mark.parametrize(
    "spec",
    [
        PathSpec(2),
        PathSpec(9),
        CometSpec(1, 1),
        CometSpec(5, 1),
        CometSpec(1, 6),
        CometSpec(4, 7),
        DoubleCometSpec(6, 1, 1),
        DoubleCometSpec(12, 3, 4),
        LollipopSpec(3, 2),
        LollipopSpec(12, 5),
    ],
)
def test_generated_graphs_are_connected_and_ordered(spec):
    lg = generate(spec)
    assert lg.graph.n == spec.order
    assert lg.graph.edge_count() == spec.size
    assert is_connected(lg.graph)
    assert len(lg.classes) == lg.graph.n


def test_small_comet_edge_cases():
    star = generate(CometSpec(4, 1))  # no handle beyond the center
    assert star.classes == (NodeClass.COMET_CENTER,) + (NodeClass.COMET_STAR_LEAF,) * 4
    assert degree(star.graph, 0) == 4
    two = generate(CometSpec(2, 2))
    assert two.classes[0] is NodeClass.COMET_PATH_END  # no inner handle nodes
    assert NodeClass.COMET_PATH_INNER not in two.classes


@pytest.mark.parametrize(
    "bad,message",
    [
        (lambda: PathSpec(1), "n >= 2"),
        (lambda: CometSpec(0, 3), "s >= 1"),
        (lambda: CometSpec(3, 0), "t >= 1"),
        (lambda: DoubleCometSpec(4, 2, 1), "n - a - b >= 2"),
        (lambda: DoubleCometSpec(6, 0, 2), "a >= 1"),
        (lambda: LollipopSpec(5, 1), "d >= 2"),
        (lambda: LollipopSpec(4, 4), "n - d >= 1"),
    ],
)
def test_parameter_violations_name_the_bound(bad, message):
    with pytest.raises(FamilyParameterError, match=message):
        bad()


class TestCrossFamilyIdentities:
    def test_single_leaf_comet_is_a_path(self):
        for t in range(2, 12):
            comet = generate(CometSpec(1, t)).graph
            road = generate(PathSpec(t + 1)).graph
            assert distance_signature(comet) == distance_signature(road)
            assert phi(comet) == phi(road)

    def test_one_pendant_double_comet_is_a_path(self):
        for n in range(4, 14):
            dc = generate(DoubleCometSpec(n, 1, 1)).graph
            assert phi(dc) == phi(generate(PathSpec(n)).graph)

    def test_one_node_clique_lollipop_is_a_path(self):
        for d in range(2, 12):
            lp = generate(LollipopSpec(d + 1, d)).graph
            assert phi(lp) == phi(generate(PathSpec(d + 1)).graph)


class TestLabeledSerialization:
    @pytest.mark.parametrize(
        "spec",
        [PathSpec(5), CometSpec(3, 4), DoubleCometSpec(12, 3, 4), LollipopSpec(10, 5)],
        ids=lambda spec: spec.NAME,
    )
    def test_round_trip(self, spec):
        lg = generate(spec)
        text = write_labeled(lg)
        back = read_labeled(text)
        assert back == lg

    def test_text_shape(self):
        text = write_labeled(generate(PathSpec(4)))
        assert text.splitlines()[0] == "# family path n=4"
        assert "# class 0 path_end" in text
        assert text.endswith("0 1\n1 2\n2 3\n")

    def test_scan_is_lenient_about_unknown_labels(self):
        assert scan_class_comments("# class 0 hub\n0 1\n") == {0: "hub"}

    def test_read_labeled_requires_family_line(self):
        with pytest.raises(EdgeListError, match="family"):
            read_labeled("# class 0 path_end\n# class 1 path_end\n0 1\n")

    def test_read_labeled_requires_full_class_cover(self):
        with pytest.raises(EdgeListError, match="missing class"):
            read_labeled("# family path n=2\n# class 0 path_end\n0 1\n")

    def test_read_labeled_checks_multiplicities(self):
        bad = (
            "# family path n=2\n"
            "# class 0 path_end\n# class 1 path_inner\n0 1\n"
        )
        with pytest.raises(EdgeListError, match="multiplicities"):
            read_labeled(bad)

    @pytest.mark.parametrize("params, message", [
        ("n=4 x=9", "family path has no parameter 'x'"),
        ("n=4 n=5", "family path repeats parameter 'n'"),
    ])
    def test_read_labeled_refuses_unknown_and_repeated_parameters(self, params, message):
        text = write_labeled(generate(PathSpec(4))).replace("n=4", params, 1)
        with pytest.raises(EdgeListError, match=f"^{message}$"):
            read_labeled(text)

    def test_read_labeled_refuses_a_class_for_a_node_the_graph_lacks(self):
        text = write_labeled(generate(PathSpec(4))) + "# class 99 path_end\n"
        with pytest.raises(EdgeListError, match="^class comment for unknown node 99$"):
            read_labeled(text)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_registry_entry_is_complete(name):
    cls = FAMILIES[name]
    floor = cls.from_grid(**{param: lo for param, (lo, _) in cls.GRID.items()})
    assert set(generate(floor).classes) == set(cls.ROLES)
    assert callable(getattr(closed_forms, f"phi_{name}", None))
    assert callable(getattr(closed_forms, f"imc_{name}", None))

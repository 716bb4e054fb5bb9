"""Family generators: numbering, roles, degrees, identities, serialization."""

import dataclasses
import pickle
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agglorank import closed_forms, families, graph
from agglorank.agglomeration import phi
from agglorank.errors import ConnectivityError, EdgeListError, FamilyParameterError
from agglorank.families import (
    FAMILIES,
    CometSpec,
    DoubleCometSpec,
    LabeledGraph,
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
        (lambda: DoubleCometSpec(6, 2, 0), "b >= 1"),
        (lambda: LollipopSpec(5, 1), "d >= 2"),
        (lambda: LollipopSpec(4, 4), "n - d >= 1"),
    ],
)
def test_parameter_violations_name_the_bound(bad, message):
    with pytest.raises(FamilyParameterError, match=message):
        bad()


def test_generate_refuses_what_is_no_spec():
    with pytest.raises(TypeError, match=r"^not a family spec: \(4,\)$"):
        generate((4,))


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
        with pytest.raises(EdgeListError,
                           match="^node 1 has class 'path_inner'; P\\(2\\) gives it 'path_end'$"):
            read_labeled(bad)

    @pytest.mark.parametrize("params, message", [
        ("n=4 x=9", "family path has no parameter 'x'"),
        ("n=4 n=5", "family path repeats parameter 'n'"),
    ])
    def test_read_labeled_refuses_unknown_and_repeated_parameters(self, params, message):
        text = write_labeled(generate(PathSpec(4))).replace("n=4", params, 1)
        with pytest.raises(EdgeListError, match=f"^{message}$"):
            read_labeled(text)

    @pytest.mark.parametrize("line, replacement, message", [
        ("# family path n=4", "# family cycle n=4", "unknown family 'cycle'"),
        ("# family path n=4", "# family comet s=3", "family comet is missing parameter 't'"),
        ("# family path n=4", "# family path n=5", "graph order 4 does not match family order 5"),
        ("# class 0 path_end", "# class 0 hub", "node 0 has class 'hub'; P(4) gives it 'path_end'"),
        ("\n1 2\n", "\n0 2\n", "edge 0 2 is not an edge of P(4)"),
        ("\n0 1\n", "\n0 2\n", "edge 0 1 of P(4) is missing"),
        ("# class 0 path_end\n# class 1 path_inner", "# class 0 path_inner\n# class 1 path_end",
         "node 0 has class 'path_inner'; P(4) gives it 'path_end'"),
    ])
    def test_read_labeled_names_what_is_wrong(self, line, replacement, message):
        text = write_labeled(generate(PathSpec(4))).replace(line, replacement, 1)
        with pytest.raises(EdgeListError, match=f"^{re.escape(message)}$"):
            read_labeled(text)

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("\n1 2\n", "\n"),
         "2 edges cannot connect 4 nodes (ids not dense?): a node is unreachable"),
        (lambda text: text + "# n=1000000\n",
         "3 edges cannot connect 1000000 nodes (ids not dense?): a node is unreachable"),
    ], ids=["edge dropped", "order header"])
    def test_read_labeled_refuses_a_disconnected_text_before_building(self, monkeypatch,
                                                                      edit, message):
        text = edit(write_labeled(generate(PathSpec(4))))
        monkeypatch.setattr(PathSpec, "build", lambda spec: pytest.fail("the spec was built"))
        tracemalloc.start()
        try:
            with pytest.raises(ConnectivityError, match=f"^{re.escape(message)}$"):
                read_labeled(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_read_labeled_checks_the_order_before_building(self, monkeypatch):
        text = write_labeled(generate(PathSpec(4))).replace("n=4", "n=1000000000000", 1)
        monkeypatch.setattr(PathSpec, "build", lambda spec: pytest.fail("the spec was built"))
        with pytest.raises(EdgeListError,
                           match="^graph order 4 does not match family order 1000000000000$"):
            read_labeled(text)

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int() reads any length")
    def test_read_labeled_refuses_a_parameter_too_long_for_int(self):
        digits = sys.get_int_max_str_digits() + 1
        text = write_labeled(generate(PathSpec(4))).replace("n=4", f"n={'9' * digits}", 1)
        with pytest.raises(EdgeListError,
                           match=f"^family path parameter 'n' of {digits} digits is too long$"):
            read_labeled(text)

    def test_read_labeled_refuses_a_class_for_a_node_the_graph_lacks(self):
        text = write_labeled(generate(PathSpec(4))) + "# class 99 path_end\n"
        with pytest.raises(EdgeListError, match="^class comment for unknown node 99$"):
            read_labeled(text)

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_labeled_text_takes_the_bulk_path(self, monkeypatch, name):
        def no_lines(text, connected):
            raise AssertionError("labeled text went line by line")

        cls = FAMILIES[name]
        spec = cls.from_grid(**{param: hi for param, (_, hi) in cls.GRID.items()})
        lg = generate(spec)
        monkeypatch.setattr(graph, "_parse_lines", no_lines)
        assert read_labeled(write_labeled(lg)) == lg

    def test_repeated_lines_are_named_by_line(self):
        text = write_labeled(generate(PathSpec(4)))
        with pytest.raises(EdgeListError, match="^line 6: repeated class comment for node 2$"):
            scan_class_comments(text.replace("0 1\n", "# class 2 x\n"))
        with pytest.raises(EdgeListError, match="^line 4: second '# family' line$"):
            read_labeled(text.replace("# class 2 path_inner", "# family path n=4"))
        # A line break that str.splitlines() takes, other than "\n", counts a line.
        with pytest.raises(EdgeListError, match="^line 7: repeated class comment for node 2$"):
            scan_class_comments(text.replace("0 1\n", "#\u2028# class 2 x\n"))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_registry_entry_is_complete(name):
    cls = FAMILIES[name]
    floor = cls.from_grid(**{param: lo for param, (lo, _) in cls.GRID.items()})
    assert set(generate(floor).classes) == set(cls.ROLES)
    assert callable(getattr(closed_forms, f"phi_{name}", None))
    assert callable(getattr(closed_forms, f"imc_{name}", None))


# The scans that class and family lines had before they searched the whole
# text: every line of str.splitlines(), stripped, matched in turn.
_NUMBERED = {
    families._CLASS_LINE: re.compile(r"#\s*class\s+([0-9]+)\s+(\S+)\s*$"),
    families._FAMILY_LINE: re.compile(r"#\s*family\s+(\w+)((?:\s+[a-z]+=[0-9]+)+)\s*$"),
}


def numbered_lines(pattern, text):
    old = _NUMBERED[pattern]
    found = ((no, old.match(raw.strip())) for no, raw in enumerate(text.splitlines(), start=1))
    return [(no, m.groups()) for no, m in found if m]


def numbered_class_scan(text):
    classes = {}
    for line_no, (v, label) in numbered_lines(families._CLASS_LINE, text):
        if int(v) in classes:
            return f"line {line_no}: repeated class comment for node {int(v)}", line_no
        classes[int(v)] = label
    return classes


# Pieces of class and family lines, whitespace, and each line break of
# str.splitlines(), so that lines split, join and repeat.
_SCAN_PIECES = ["# class ", "#class", " class ", "class ", "# family path n=", " m=", "0", "1", "7", "٣",
                " ", "\t", "\xa0", "\x1f", "x", "path_end", "#", "\n", "\n", "\r\n",
                *graph._LINE_BREAKS]


@given(st.lists(st.sampled_from(_SCAN_PIECES), max_size=30).map("".join))
@example("#\nclass 1 x\n# class 2\ny\n# class 3 z\n\n# family path\nn=4\n")
@settings(max_examples=500, deadline=None)
def test_class_and_family_lines_are_found_as_the_numbered_loop_finds_them(text):
    for pattern in _NUMBERED:
        found = [(no, m.groups()) for no, m in families._matching_lines(pattern, text)]
        assert found == numbered_lines(pattern, text)
    try:
        scanned = scan_class_comments(text)
    except EdgeListError as exc:
        scanned = str(exc), exc.line
    assert scanned == numbered_class_scan(text)


class TestValueClasses:
    """The family specs and ``LabeledGraph`` behave as the frozen dataclasses
    they replace."""

    @pytest.mark.parametrize("spec, same, shown", [
        (PathSpec(4), PathSpec(n=4), "PathSpec(n=4)"),
        (CometSpec(3, 4), CometSpec(s=3, t=4), "CometSpec(s=3, t=4)"),
        (DoubleCometSpec(9, 2, 3), DoubleCometSpec(9, b=3, a=2), "DoubleCometSpec(n=9, a=2, b=3)"),
        (LollipopSpec(10, 5), LollipopSpec(d=5, n=10), "LollipopSpec(n=10, d=5)"),
    ])
    def test_a_spec_by_position_and_keyword(self, spec, same, shown):
        assert spec == same and spec is not same
        assert hash(spec) == hash(same) and len({spec, same}) == 1
        assert repr(spec) == shown
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert spec != type(spec)(*[value + 1 for value in spec.params()])

    def test_two_families_with_the_same_values_differ(self):
        assert CometSpec(5, 4) != LollipopSpec(5, 4)
        assert CometSpec(5, 4).params() == LollipopSpec(5, 4).params() == (5, 4)
        assert PathSpec(4) != (4,) and len({CometSpec(5, 4), LollipopSpec(5, 4)}) == 2

    @pytest.mark.parametrize("make", [
        lambda: PathSpec(), lambda: PathSpec(4, 5), lambda: PathSpec(4, n=4),
        lambda: PathSpec(m=4), lambda: CometSpec(3), lambda: DoubleCometSpec(9, 2, c=3),
    ])
    def test_a_spec_takes_each_field_once(self, make):
        with pytest.raises(TypeError):
            make()

    def test_a_labeled_graph_by_position_and_keyword(self):
        lg = generate(PathSpec(2))
        same = LabeledGraph(graph=lg.graph, classes=lg.classes, spec=PathSpec(2))
        assert lg == same == LabeledGraph(lg.graph, lg.classes, lg.spec)
        assert hash(lg) == hash(same) and pickle.loads(pickle.dumps(lg)) == lg
        assert lg != LabeledGraph(lg.graph, lg.classes, CometSpec(1, 1))
        assert repr(lg) == ("LabeledGraph(graph=Graph(n=2, edges=[(0, 1)]), classes=("
                            "<NodeClass.PATH_END: 'path_end'>, <NodeClass.PATH_END: 'path_end'>), "
                            "spec=PathSpec(n=2))")

    @pytest.mark.parametrize("value, name", [
        (PathSpec(4), "n"), (DoubleCometSpec(9, 2, 3), "b"), (LollipopSpec(10, 5), "other"),
        (generate(PathSpec(2)), "classes"),
    ])
    def test_fields_cannot_be_assigned_or_deleted(self, value, name):
        before = repr(value)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(value, name)
        assert repr(value) == before

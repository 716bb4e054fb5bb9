"""Family generators: numbering, roles, degrees, identities, serialization."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agglorank import closed_forms, families, graph
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

    @pytest.mark.parametrize("line, replacement, message", [
        ("# family path n=4", "# family cycle n=4", "unknown family 'cycle'"),
        ("# family path n=4", "# family comet s=3", "family comet is missing parameter 't'"),
        ("# family path n=4", "# family path n=5", "graph order 4 does not match family order 5"),
        ("# class 0 path_end", "# class 0 hub", "unknown node class 'hub'"),
    ])
    def test_read_labeled_names_what_is_wrong(self, line, replacement, message):
        text = write_labeled(generate(PathSpec(4))).replace(line, replacement, 1)
        with pytest.raises(EdgeListError, match=f"^{re.escape(message)}$"):
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

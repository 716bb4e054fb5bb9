"""Graph core: parsing, degrees, connectivity, BFS, distance sums."""

import dataclasses
import random
import sys
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agglorank import graph
from agglorank import contraction
from agglorank.contraction import ContractionResult, contract, contract_text
from agglorank.errors import ConnectivityError, DegenerateOrderError, EdgeListError
from agglorank.families import (
    FAMILIES,
    CometSpec,
    DoubleCometSpec,
    LabeledGraph,
    LollipopSpec,
    PathSpec,
    generate,
)
from agglorank.graph import (
    Graph,
    bfs_distances,
    degree,
    distance_sum,
    from_edge_list,
    is_connected,
    parse_edge_list,
    to_edge_list,
)
from agglorank.verify import VerifyReport, VerifyRow

from oracles import (
    PLAIN_BLOCK,
    UNREACHED,
    drain_tuple_free_lists,
    graph_bytes,
    minplus_distance_matrix,
    oracle_distance_sum,
    random_connected_graph,
    random_edge_text,
    with_pendant_trees,
)


def path(n):
    return from_edge_list([(i, i + 1) for i in range(n - 1)])


def complete(n):
    return from_edge_list([(i, j) for i in range(n) for j in range(i + 1, n)])


def comet_3_4():
    # handle 0-1-2-3 with star leaves 4,5,6 on node 3
    return from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)])


class TestFromEdgeList:
    def test_two_edge_path(self):
        g = from_edge_list([(0, 1), (1, 2)])
        assert g.n == 3
        assert [degree(g, v) for v in range(3)] == [1, 2, 1]

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListError, match="self-loop"):
            from_edge_list([(0, 0)])

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            from_edge_list([(0, 1), (1, 0)])

    def test_id_outside_declared_order(self):
        with pytest.raises(EdgeListError, match="outside declared order"):
            from_edge_list([(0, 5)], n=3)

    def test_negative_id(self):
        with pytest.raises(EdgeListError, match="negative"):
            from_edge_list([(-1, 2)])

    def test_explicit_order_adds_isolated_nodes(self):
        g = from_edge_list([(0, 1)], n=4)
        assert g.n == 4
        assert g.adj[2] == () and g.adj[3] == ()

    def test_no_edges_needs_explicit_order(self):
        with pytest.raises(EdgeListError):
            from_edge_list([])
        assert from_edge_list([], n=1).n == 1

    def test_order_below_one_rejected(self):
        with pytest.raises(EdgeListError, match="^order must be at least 1, got n=0$"):
            from_edge_list([(0, 1)], n=0)


class TestGraphValue:
    def test_fields_cannot_be_assigned(self):
        g = path(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 4
        assert g.n == 3

    def test_equal_graphs_hash_equal_whichever_way_built(self):
        parsed = parse_edge_list("1 2\n0 1\n")
        built = from_edge_list([(0, 1), (1, 2)])
        assert parsed == built and parsed is not built
        assert hash(parsed) == hash(built)
        assert len({parsed, built}) == 1
        assert parsed != path(4) and parsed != (3, parsed.adj)

    def test_repr_lists_the_edges(self):
        assert repr(path(3)) == "Graph(n=3, edges=[(0, 1), (1, 2)])"
        assert repr(from_edge_list([], n=2)) == "Graph(n=2, edges=[])"

    def test_built_by_position_or_keyword(self):
        adj = ((1,), (0, 2), (1,))
        assert Graph(3, adj) == Graph(n=3, adj=adj) == Graph(3, adj=adj) == path(3)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((3, (), 0), {}, r"^Graph\(\) takes 2 fields but 3 were given$"),
        ((3, ()), {"n": 3}, r"^Graph\(\) got multiple values for field 'n'$"),
        ((3,), {}, r"^Graph\(\) missing field 'adj'$"),
        ((), {"n": 3, "adj": (), "m": 0}, r"^Graph\(\) got an unexpected field 'm'$"),
    ])
    def test_each_field_once(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Graph(*args, **kwargs)

    def test_equal_only_to_a_graph(self):
        # Records compare by class first: the same field values in another
        # record class are another value.
        class Twin(graph._FrozenRecord):
            __slots__ = ("n", "adj")

        g = path(2)
        twin = Twin(g.n, g.adj)
        assert g != twin and twin != g and twin._values() == (g.n, g.adj)
        values = (g, (0, 0), [0, 0])
        result, labeled = ContractionResult(*values), LabeledGraph(*values)
        assert result != labeled and labeled != result
        assert g not in (twin, result, labeled, (g.n, g.adj))

    def test_records_hold_no_instance_dict(self):
        # A record's fields live in slots; a base that forgot ``__slots__ = ()``
        # would give every graph a dict.
        lg = generate(LollipopSpec(5, 2))
        row = VerifyRow("P(4)", "phi", Fraction(1, 2), Fraction(1, 2))
        specs = [PathSpec(4), CometSpec(3, 2), DoubleCometSpec(8, 2, 2), LollipopSpec(5, 2)]
        assert {type(spec) for spec in specs} == set(FAMILIES.values())
        for value in (lg.graph, *specs, lg, row, VerifyReport([row], [], [])):
            assert not hasattr(value, "__dict__"), type(value).__name__
        # A contraction result's dict holds the old_to_new cache alone, once read.
        result = contract(lg.graph, 0)
        assert result.__dict__ == {}
        old_to_new = result.old_to_new
        assert result.__dict__ == {"old_to_new": old_to_new}


class TestDegree:
    def test_path_examples(self):
        g = path(4)
        assert degree(g, 0) == 1
        assert degree(g, 1) == 2

    def test_complete(self):
        g = complete(4)
        assert all(degree(g, v) == 3 for v in range(4))

    @pytest.mark.parametrize("v", [-1, 4, 99])
    def test_out_of_range(self, v):
        with pytest.raises(IndexError):
            degree(path(4), v)


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path(5))

    def test_two_disjoint_edges(self):
        assert not is_connected(from_edge_list([(0, 1), (2, 3)]))

    def test_single_node(self):
        assert is_connected(from_edge_list([], n=1))

    def test_bfs_names_unreachable_node(self):
        g = from_edge_list([(0, 1), (2, 3)])
        with pytest.raises(ConnectivityError, match="unreachable") as info:
            bfs_distances(g, 0)
        assert info.value.unreachable in (2, 3)


class TestBfsDistances:
    def test_path_from_end(self):
        assert bfs_distances(path(4), 0) == [0, 1, 2, 3]

    def test_triangle(self):
        assert bfs_distances(complete(3), 1) == [1, 0, 1]

    def test_comet_from_handle_end(self):
        # hand-walked on the 7-node comet: 4 hops to each star leaf
        assert bfs_distances(comet_3_4(), 0) == [0, 1, 2, 3, 4, 4, 4]


class TestDistanceSum:
    def test_path4(self):
        assert distance_sum(path(4)) == 20

    def test_complete4(self):
        assert distance_sum(complete(4)) == 12

    def test_comet(self):
        assert distance_sum(comet_3_4()) == 92
        assert oracle_distance_sum(comet_3_4()) == 92

    def test_single_node_degenerate(self):
        with pytest.raises(DegenerateOrderError):
            distance_sum(from_edge_list([], n=1))

    def test_disconnected(self):
        with pytest.raises(ConnectivityError):
            distance_sum(from_edge_list([(0, 1), (2, 3)]))

    @pytest.mark.parametrize("n", range(2, 51))
    def test_path_closed_form(self, n):
        assert distance_sum(path(n)) == n * (n * n - 1) // 3


@pytest.mark.parametrize("block_bits", [1, 3, graph._BLOCK_BITS])
def test_distance_sum_against_minplus_oracle(monkeypatch, block_bits):
    # Pendant trees give core nodes weights above 1; small blocks split the
    # source bits, one source's among them, into several searches.
    monkeypatch.setattr(graph, "_BLOCK_BITS", block_bits)
    rng = random.Random(11)
    for _ in range(600):
        g = random_connected_graph(rng, rng.randint(2, 14))
        if rng.random() < 0.5:
            g = with_pendant_trees(rng, g, rng.randint(1, 20))
        assert distance_sum(g) == oracle_distance_sum(g)


# Disconnected graphs that the distance sum finds at each of its points: the
# peel (a leaf with no neighbor left), the core (a node with no neighbor) and
# the search (a level reaches nothing while a node still misses a source).
DISCONNECTED = {
    "two-paths": from_edge_list([(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]),
    "isolated-node": parse_edge_list("# n=5\n1 2\n2 3\n1 3\n3 4\n"),
    "two-cycles": from_edge_list([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),
}


@pytest.mark.parametrize("block_bits", [1, 3, graph._BLOCK_BITS])
@pytest.mark.parametrize("name", sorted(DISCONNECTED))
def test_disconnected_distance_sum_raises_what_a_bfs_raises(monkeypatch, name, block_bits):
    g = DISCONNECTED[name]
    with pytest.raises(ConnectivityError) as expected:
        bfs_distances(g, 0)
    monkeypatch.setattr(graph, "_BLOCK_BITS", block_bits)
    with pytest.raises(ConnectivityError) as raised:
        distance_sum(g)
    assert str(raised.value) == str(expected.value)
    assert raised.value.unreachable == expected.value.unreachable


@pytest.mark.parametrize("block_bits", [1, 3, graph._BLOCK_BITS])
def test_random_disconnected_distance_sums_raise_what_a_bfs_raises(monkeypatch, block_bits):
    # Two random components, some with pendant trees, ids interleaved.
    monkeypatch.setattr(graph, "_BLOCK_BITS", block_bits)
    rng = random.Random(13)
    for _ in range(200):
        parts = [with_pendant_trees(rng, random_connected_graph(rng, rng.randint(1, 8)),
                                    rng.randint(0, 4)) for _ in range(2)]
        n = parts[0].n + parts[1].n
        ids = rng.sample(range(n), n)
        edges = [(ids[u], ids[v]) for u, v in parts[0].edges()]
        edges += [(ids[parts[0].n + u], ids[parts[0].n + v]) for u, v in parts[1].edges()]
        g = from_edge_list(edges, n=n)
        with pytest.raises(ConnectivityError) as expected:
            bfs_distances(g, 0)
        with pytest.raises(ConnectivityError) as raised:
            distance_sum(g)
        assert (str(raised.value), raised.value.unreachable) == (
            str(expected.value), expected.value.unreachable)


def test_connected_distance_sum_runs_no_bfs(monkeypatch):
    rng = random.Random(5)
    single = from_edge_list([], n=1)
    graphs = [path(2), path(9), complete(5), comet_3_4(),
              generate(LollipopSpec(n=12, d=5)).graph, generate(LollipopSpec(n=9, d=7)).graph]
    graphs += [with_pendant_trees(rng, single, rng.randint(1, 12)) for _ in range(20)]
    graphs += [with_pendant_trees(rng, random_connected_graph(rng, rng.randint(2, 10)),
                                  rng.randint(0, 8)) for _ in range(40)]
    expected = [oracle_distance_sum(g) for g in graphs]

    def no_bfs(*args):
        raise AssertionError("distance_sum ran a BFS on a connected graph")

    monkeypatch.setattr(graph, "bfs_distances", no_bfs)
    monkeypatch.setattr(graph, "_bfs", no_bfs)
    assert [distance_sum(g) for g in graphs] == expected


def test_connected_parse_keeps_every_graph_with_enough_edges():
    # Fewer than n - 1 edges are refused (tests/test_cli.py); the rest parse
    # as without the check, disconnected ones included.
    for text in ("# n=1\n", "0 1\n", "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"):
        assert parse_edge_list(text, connected=True) == parse_edge_list(text)


class TestSerialization:
    def test_path3_canonical(self):
        assert to_edge_list(path(3)) == "0 1\n1 2\n"

    def test_triangle_canonical(self):
        assert to_edge_list(complete(3)) == "0 1\n0 2\n1 2\n"

    def test_single_node_header(self):
        assert to_edge_list(from_edge_list([], n=1)) == "# n=1\n"

    def test_isolated_tail_gets_header(self):
        g = from_edge_list([(0, 1)], n=3)
        text = to_edge_list(g)
        assert text == "# n=3\n0 1\n"
        assert parse_edge_list(text) == g

    def test_isolated_inner_node_gets_no_header(self):
        g = from_edge_list([(0, 2)], n=3)
        assert to_edge_list(g) == "0 2\n"
        assert parse_edge_list("0 2\n") == g

    def test_edgeless_graph_is_only_a_header(self):
        assert to_edge_list(from_edge_list([], n=3)) == "# n=3\n"

    def test_round_trip(self):
        g = comet_3_4()
        assert parse_edge_list(to_edge_list(g)) == g


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=30),
       st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_serialization_matches_its_definition(pairs, spare):
    # The header appears exactly when 1 + the largest id in an edge is not n.
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    inferred = 1 + max(v for _, v in edges) if edges else 0
    n = max(inferred, 1) + spare
    body = "".join(f"{u} {v}\n" for u, v in edges)
    header = f"# n={n}\n" if inferred != n else ""
    assert to_edge_list(from_edge_list(edges, n=n)) == header + body


class TestParseEdgeList:
    def test_comments_and_blanks(self):
        g = parse_edge_list("# a comment\n\n0 1\n# another\n1 2\n")
        assert g == path(3)

    def test_order_header(self):
        g = parse_edge_list("# n=4\n0 1\n")
        assert g.n == 4 and not is_connected(g)

    def test_header_conflict(self):
        with pytest.raises(EdgeListError, match="outside declared order"):
            parse_edge_list("# n=2\n0 5\n")

    def test_error_carries_line_number(self):
        with pytest.raises(EdgeListError, match="line 3") as info:
            parse_edge_list("0 1\n1 2\n2 2\n")
        assert info.value.line == 3

    def test_duplicate_line_number(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("0 1\n1 0\n")

    def test_garbage_line(self):
        with pytest.raises(EdgeListError, match="line 1"):
            parse_edge_list("zero one\n")

    def test_empty_input(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("")

    def test_order_header_after_the_edges(self):
        with pytest.raises(EdgeListError, match="outside declared order") as info:
            parse_edge_list("0 5\n# n=3\n")
        assert info.value.line == 1


# Each kind of bad edge, as (word in the message, edges, index of the bad
# edge, declared order).
_BAD_EDGES = [
    ("negative", [(0, 1), (-1, 2)], 1, None),
    ("self-loop", [(0, 1), (1, 2), (2, 2)], 2, None),
    ("duplicate", [(0, 1), (1, 2), (2, 1)], 2, None),
    ("outside declared order", [(0, 1), (1, 5), (1, 2)], 1, 3),
]


@pytest.mark.parametrize("word,edges,bad,n", _BAD_EDGES, ids=[c[0] for c in _BAD_EDGES])
def test_bad_edge_is_located_by_index_and_by_line(word, edges, bad, n):
    with pytest.raises(EdgeListError, match=f"^edge {bad}: .*{word}"):
        from_edge_list(edges, n=n)
    text = "# a comment\n" + "".join(f"{u} {v}\n" for u, v in edges)
    if n is not None:
        text += f"# n={n}\n"
    with pytest.raises(EdgeListError, match=word) as info:
        parse_edge_list(text)
    assert info.value.line == bad + 2


# Edges with every kind of fault, and a declared order that some ids exceed.
@given(st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 9)), max_size=12),
       st.one_of(st.none(), st.integers(1, 10)))
@settings(max_examples=300, deadline=None)
def test_from_edge_list_agrees_with_the_validator(edges, n):
    def outcome(build):
        try:
            return build()
        except EdgeListError as exc:
            return str(exc)

    assert (outcome(lambda: from_edge_list(edges, n=n))
            == outcome(lambda: graph._validated(edges, lambda: n)))
    assert (outcome(lambda: from_edge_list(iter(edges), n=n))
            == outcome(lambda: from_edge_list(edges, n=n)))


def test_from_edge_list_builds_through_the_node_table(monkeypatch):
    def no_validator(*args):
        raise AssertionError("edges without a fault went to the validator")

    monkeypatch.setattr(graph, "_validated", no_validator)
    # Each endpoint its own int object; the graph keeps one per node.
    edges = [(int(str(u)), int(str(v))) for u, v in [(2000, 2001), (2001, 2002), (2000, 2002)]]
    g = from_edge_list(edges, n=2003)
    assert g.n == 2003 and g.adj[2001] == (2000, 2002) and g.adj[0] == ()
    assert _shared_ints(g) == 3
    assert from_edge_list([(i, i + 1) for i in range(3 * graph._BLOCK_EDGES)]) == path(
        3 * graph._BLOCK_EDGES + 1)


# Tokens that int() reads but that are no ASCII decimal id.
@pytest.mark.parametrize("line", ["1_0 2", "+1 2", "٣ 1", "0 １", "1 ৫"])
def test_node_ids_are_ascii_decimal(line):
    text = f"0 1\n{line}\n"
    with pytest.raises(EdgeListError) as info:
        parse_edge_list(text)
    assert (str(info.value), info.value.line) == (
        f"line 2: non-integer node id in {line!r}", 2)
    assert_paths_agree(text)


def test_a_signed_id_is_still_refused_as_negative():
    with pytest.raises(EdgeListError, match="^line 1: negative node id in '-1 2'$"):
        parse_edge_list("-01 2\n")


def test_an_order_header_needs_ascii_digits():
    # "# n=٣" is an ordinary comment, so the order comes from the edges.
    assert parse_edge_list("# n=٣\n0 1\n") == path(2)
    assert parse_edge_list("# n=3\n0 1\n").n == 3


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int() reads any length")
@pytest.mark.parametrize("connected", [False, True])
def test_an_order_header_too_long_for_int_is_named_at_its_line(connected):
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(EdgeListError) as info:
        parse_edge_list(f"0 1\n# n={'9' * digits}\n", connected=connected)
    assert str(info.value) == f"line 2: declared order of {digits} digits is too long"
    assert info.value.line == 2


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int() reads any length")
def test_a_class_id_too_long_for_int_is_named_at_its_line():
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(EdgeListError) as info:
        graph.scan_class_comments(f"0 1\n# class 0 x\n# class {'9' * digits} x\n")
    assert str(info.value) == f"line 3: class comment node id of {digits} digits is too long"
    assert info.value.line == 3


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int() reads any length")
@pytest.mark.parametrize("line", ["1 {}", "{} 1", "-{} 1"])
def test_a_node_id_too_long_for_int_is_named_by_its_digits(line):
    digits = sys.get_int_max_str_digits() + 1
    text = "0 1\n" + line.format("9" * digits) + "\n"
    for connected in (False, True):
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(text, connected=connected)
        assert (str(info.value), info.value.line) \
            == (f"line 2: node id of {digits} digits is too long", 2)


@pytest.mark.parametrize("digits", [19, 20, 4000])
def test_a_long_order_too_large_to_connect_is_named_by_its_digits(digits):
    # An order wider than 64 bits is named by its digit count; 10^19 - 1,
    # of 64 bits, is still written out.
    order = "9" * digits
    with pytest.raises(ConnectivityError) as info:
        parse_edge_list(f"# n={order}\n0 1\n", connected=True)
    nodes = order if digits < 20 else f"a {digits}-digit number of"
    assert str(info.value) \
        == f"1 edges cannot connect {nodes} nodes (ids not dense?): a node is unreachable"


_NINES = "9" * 4000

# A line-path fault in a field far longer than a message should quote, and the
# message that names it by its length: (text, message, line).
_LONG_FIELDS = [
    ("0 1\n1 2 " + "9" * 5000 + "\n", "expected two node ids, got a line of 5004 characters", 2),
    ("0 1\n1 x" + "9" * 5000 + "\n", "non-integer node id in a line of 5003 characters", 2),
    (f"0 1\n-{_NINES} 2\n", "negative node id in '-<4000 digits> 2'", 2),
    (f"0 1\n-1 {_NINES}\n", "negative node id in '-1 <4000 digits>'", 2),
    (f"# n=5\n0 1\n1 {_NINES}\n", "node id <4000 digits> outside declared order n=5", 3),
    (f"# n={_NINES}\n0 1\n1 {_NINES}0\n",
     "node id <4001 digits> outside declared order n=<4000 digits>", 3),
    (f"0 1\n{_NINES} {_NINES}\n", "self-loop at node <4000 digits>", 2),
    (f"0 1\n1 {_NINES}\n{_NINES} 1\n", "duplicate edge <4000 digits> 1", 3),
]


@pytest.mark.parametrize("text,message,line", _LONG_FIELDS,
                         ids=["three ids", "non-integer", "negative first", "negative second",
                              "outside order", "outside long order", "self-loop", "duplicate"])
def test_a_long_field_is_named_by_its_length(text, message, line):
    for connected in (False, True):
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(text, connected=connected)
        assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)
    assert_paths_agree(text)


def test_a_line_of_80_characters_is_still_quoted():
    line = "1 2 " + "3" * 76
    with pytest.raises(EdgeListError, match=f"^line 2: expected two node ids, got {line!r}$"):
        parse_edge_list(f"0 1\n{line}\n")


def test_a_long_class_id_is_named_by_its_digits():
    classes = graph.scan_class_comments(f"# class {_NINES} x\n0 1\n")
    with pytest.raises(EdgeListError, match="^class comment for unknown node <4000 digits>$"):
        graph.check_class_nodes(classes, 2)
    with pytest.raises(EdgeListError,
                       match="^line 2: repeated class comment for node <4000 digits>$"):
        graph.scan_class_comments(f"# class {_NINES} x\n# class {_NINES} y\n")


@pytest.mark.parametrize("text,order", [
    (f"# n={_NINES}\n0 1\n", "<4000 digits>"),
    (f"0 1\n1 {_NINES}\n", "<4001 digits>"),  # the order is 1 + the largest id
    (f"0 1\n1 {sys.maxsize}\n", str(sys.maxsize + 1)),
], ids=["long header", "long id", "id of sys.maxsize"])
def test_an_order_too_large_for_a_tuple_is_an_edge_list_error(text, order):
    # Without connected nothing refuses the order before the build, which
    # would raise OverflowError or MemoryError; it is refused first.
    with pytest.raises(EdgeListError, match=f"^order {order} is too large for a graph$"):
        parse_edge_list(text)
    assert_paths_agree(text)


def test_from_edge_list_refuses_an_order_too_large_for_a_tuple():
    for edges, n in (([(0, 1)], 10**30), ([(0, 10**30)], None)):
        with pytest.raises(EdgeListError, match="^order <31 digits> is too large for a graph$"):
            from_edge_list(edges, n)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int() reads any length")
def test_an_order_one_digit_longer_than_str_writes_is_named_by_its_digits():
    # The longest id int() reads makes an order str() refuses to write.
    digits = sys.get_int_max_str_digits()
    with pytest.raises(ConnectivityError, match=f"cannot connect a {digits + 1}-digit number of"):
        parse_edge_list(f"0 1\n1 {'9' * digits}\n", connected=True)


def test_nodes_in_no_edge_share_the_empty_row():
    # A "# n=" header far above the edges makes no list per node: the graph
    # is its tuple of rows, one pointer each, all but two the shared ().  The
    # bound leaves room for the tuple's growth as it is filled.
    n = 1_000_000
    tracemalloc.start()
    try:
        g = parse_edge_list(f"# n={n}\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == from_edge_list([(0, 1)], n=n)
    assert g.adj[2] == () and g.adj[2] is g.adj[n - 1]
    assert peak < 12 * n, f"parse peak {peak} B for {n} nodes"


@st.composite
def connected_graphs(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_connected_graph(random.Random(seed), n)


@given(connected_graphs())
@settings(max_examples=150)
def test_distance_sum_is_even(g):
    assert distance_sum(g) % 2 == 0


@given(connected_graphs())
@settings(max_examples=100)
def test_bfs_matches_relaxation_oracle(g):
    matrix = minplus_distance_matrix(g)
    for v in range(g.n):
        assert bfs_distances(g, v) == list(matrix[v])
    # symmetry comes with the oracle agreement, but assert it explicitly
    assert (matrix == matrix.T).all()


@st.composite
def some_graphs(draw, max_n=12):
    """A random graph of 1..max_n nodes, connected or not: one to three random
    connected parts with their ids interleaved, and its edges in a random
    order, each either way round."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(1, max_n)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
    ids = rng.sample(range(n), n)
    edges = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        part = random_connected_graph(rng, hi - lo)
        edges += [(ids[lo + u], ids[lo + v])[::rng.choice((1, -1))] for u, v in part.edges()]
    rng.shuffle(edges)
    return from_edge_list(edges, n=n), edges


@given(some_graphs())
@settings(max_examples=200, deadline=None)
def test_one_search_serves_tuple_and_flat_rows(graph_and_edges):
    # The same levels from a Graph's tuples and from contract_text's flat rows
    # of the same edges (sorted by _flat_rows's transposing pass); distances
    # and connectivity as the min-plus oracle has them.
    g, edges = graph_and_edges
    flat = contraction._flat_rows(array("i", [x for edge in edges for x in edge]), g.n)
    matrix = minplus_distance_matrix(g)
    for source in range(g.n):
        order, ends = graph._bfs(g.n, g.adj.__getitem__, source)
        assert graph._bfs(g.n, flat, source) == (order, ends)
        unreached = [v for v in range(g.n) if matrix[source, v] == UNREACHED]
        if unreached:
            with pytest.raises(ConnectivityError) as info:
                bfs_distances(g, source)
            assert info.value.unreachable == unreached[0]
        else:
            assert bfs_distances(g, source) == list(matrix[source])
        assert len(order) == g.n - len(unreached) == ends[-1]
    assert is_connected(g) == (matrix < UNREACHED).all()


@given(connected_graphs())
@settings(max_examples=100)
def test_serialization_round_trip(g):
    assert parse_edge_list(to_edge_list(g)) == g


@given(connected_graphs())
@settings(max_examples=100)
def test_edge_distance_step_is_at_most_one(g):
    for source in range(g.n):
        dist = bfs_distances(g, source)
        for u, v in g.edges():
            assert abs(dist[u] - dist[v]) <= 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_random_generator_is_connected(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, rng.randint(2, 9))
    assert is_connected(g)


# Pieces of hostile edge-list text: signs, underscores and non-ASCII digits
# that int() reads but a node id may not hold, line breaks that
# str.splitlines() splits on, order headers and class comments.
_TEXT_PIECES = list("0123456789 \t\n\r\x0b+-_#n=x") + [
    "# n=", "#n=", "# class ", "٣", "１", "৫", "\u2028", "\x85", "\x1c"]
_REAL_BUILD = graph._from_blocks


class _Unbuilt(Exception):
    pass


def _bounded_build(blocks, limit, order=0, **flags):
    # Random digits can name an order far too large to allocate.
    if order > 10_000:
        raise _Unbuilt(order)
    return _REAL_BUILD(blocks, limit, order, **flags)


def _outcome(parse, text, connected):
    """The graph a parser returns, or what it raises: type, message and line."""
    with mock.patch.object(graph, "_from_blocks", _bounded_build):
        try:
            return parse(text, connected=connected)
        except (EdgeListError, ConnectivityError, _Unbuilt) as exc:
            return type(exc), str(exc), getattr(exc, "line", None)


def assert_paths_agree(text):
    for connected in (False, True):
        assert (_outcome(parse_edge_list, text, connected)
                == _outcome(graph._parse_lines, text, connected))


@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=40).map("".join))
@settings(max_examples=300, deadline=None)
def test_parse_of_arbitrary_text_gives_a_graph_or_a_documented_error(text):
    assert_paths_agree(text)
    try:
        g = parse_edge_list(text, connected=True)
    except (EdgeListError, ConnectivityError):
        return
    assert isinstance(g, Graph) and g.n >= 1


# Plain lines, sometimes with a fault or a separator that is not plain.
_EDGE = st.tuples(st.integers(0, 12), st.integers(0, 12))
_SEPARATORS = st.sampled_from([" ", " ", " ", "\t", "  "])
_ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", ""])


# Comment lines: those of labeled files, a bare "#", order headers (which
# only the line path reads), and comments that hold each line break of
# str.splitlines() other than "\n" before an edge.
_COMMENTS = st.sampled_from(["# class 3 path_end", "# family path n=4", "#", "# n=3", "#n=3",
                             *(f"# x{c}1 2" for c in graph._LINE_BREAKS)])


@st.composite
def plain_texts(draw):
    lines = draw(st.lists(st.one_of(_EDGE, _EDGE, _COMMENTS), max_size=20))
    return "".join((line if isinstance(line, str) else f"{line[0]}{draw(_SEPARATORS)}{line[1]}")
                   + draw(_ENDINGS) for line in lines)


@given(plain_texts())
@settings(max_examples=300, deadline=None)
def test_bulk_path_raises_nothing_and_agrees_with_the_line_path(text):
    assert_paths_agree(text)
    for connected in (False, True):
        g = graph._parse_plain(text, connected)
        if g is not None:
            assert g == graph._parse_lines(text, connected)


@given(plain_texts())
@settings(max_examples=300, deadline=None)
def test_the_line_search_reads_the_plain_grammar(text):
    # contract_text finds v's neighbours with _ends_beside and the rest of the
    # edges with _plain_blocks; on any text the grammar takes as plain, the two
    # read the same edges, so a grammar change that leaves the search behind
    # fails here.
    plain = graph._plain_text(text, False)
    assume(plain is not None)
    text = plain[0]
    ids = [x for block in graph._plain_blocks(text) for x in block]
    pairs = list(zip(ids[::2], ids[1::2]))
    for v in range(14):
        expected = Counter([w for u, w in pairs if u == v] + [u for u, w in pairs if w == v])
        assert Counter(map(int, graph._ends_beside(text, v))) == expected


def _no_lines(text, connected):
    raise AssertionError("plain text went line by line")


def test_plain_text_takes_the_bulk_path(monkeypatch):
    monkeypatch.setattr(graph, "_parse_lines", _no_lines)
    assert parse_edge_list("0 1\n1 2\n2 0\n3 2", connected=True) == from_edge_list(
        [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert parse_edge_list(to_edge_list(path(500)), connected=True) == path(500)


# Plain text with a fault, as (text, connected, error type, message, line).
_PLAIN_FAULTS = [
    ("0 1\n1 1\n1 2\n", False, EdgeListError, "line 2: self-loop at node 1", 2),
    ("0 1\n1 2\n2 1\n", False, EdgeListError, "line 3: duplicate edge 2 1", 3),
    ("0 1\n1 2\n1 0", True, EdgeListError, "line 3: duplicate edge 1 0", 3),
    ("0 1\n1 " + "9" * 5000 + "\n", False, EdgeListError,
     "line 2: node id of 5000 digits is too long", 2),
    ("0 1\n2 3\n", True, ConnectivityError,
     "2 edges cannot connect 4 nodes (ids not dense?): a node is unreachable", None),
    ("0 2000000", True, ConnectivityError,
     "1 edges cannot connect 2000001 nodes (ids not dense?): a node is unreachable", None),
    ("", False, EdgeListError, "no edges and no declared order; graph order unknown", None),
    ("0 1 2\n3\n", False, EdgeListError, "line 1: expected two node ids, got '0 1 2'", 1),
]


@pytest.mark.parametrize("text,connected,kind,message,line", _PLAIN_FAULTS,
                         ids=["self-loop", "reversed duplicate", "duplicate, no newline",
                              "5000 digits", "too few edges", "far id", "empty",
                              "two lines, four ids"])
def test_plain_text_with_a_fault_is_named_by_the_line_path(text, connected, kind,
                                                           message, line):
    assert graph._parse_plain(text, connected) is None
    with pytest.raises(kind) as info:
        parse_edge_list(text, connected=connected)
    assert (str(info.value), getattr(info.value, "line", None)) == (message, line)
    assert_paths_agree(text)


@pytest.mark.parametrize("text", ["0 1\r\n1 2\r\n", "0\t1\n1\t2\n", "0 1\n1 2",
                                  "0  1\n1 2\n", " 0 1\n1 2\n", "0 1\n\n1 2\n",
                                  "01 2\n1 0\n"])
def test_near_plain_text_gives_the_same_graph(text):
    assert parse_edge_list(text, connected=True) == path(3)
    assert_paths_agree(text)


# Block sizes that put a block boundary inside almost any short text: one line
# per block, and blocks of about two lines.
_SMALL_BLOCKS = [1, 7]
# Whole-block sizes: the parser's own, and 16 KiB, its size before 4 KiB.
_WHOLE_BLOCKS = [1 << 14, graph._BLOCK_CHARS]


@pytest.mark.parametrize("block_chars", _SMALL_BLOCKS)
@given(text=plain_texts())
@settings(max_examples=300, deadline=None)
def test_bulk_path_agrees_with_the_line_path_across_blocks(block_chars, text):
    with mock.patch.object(graph, "_BLOCK_CHARS", block_chars):
        assert_paths_agree(text)
        for connected in (False, True):
            g = graph._parse_plain(text, connected)
            if g is not None:
                assert g == graph._parse_lines(text, connected)


@pytest.mark.parametrize("block_chars", _SMALL_BLOCKS)
@pytest.mark.parametrize("text,connected,kind,message,line", _PLAIN_FAULTS,
                         ids=["self-loop", "reversed duplicate", "duplicate, no newline",
                              "5000 digits", "too few edges", "far id", "empty",
                              "two lines, four ids"])
def test_plain_faults_across_blocks(monkeypatch, block_chars, text, connected, kind,
                                    message, line):
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    test_plain_text_with_a_fault_is_named_by_the_line_path(text, connected, kind, message,
                                                           line)


@pytest.mark.parametrize("block_chars", [*_SMALL_BLOCKS, *_WHOLE_BLOCKS])
def test_ids_at_the_bound_go_line_by_line(monkeypatch, block_chars):
    # The bound is m + 1 under connected and 2m otherwise, with m the count of
    # edge lines: a final newline ends a line and starts none.
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    for text in ("0 2\n", "0 2"):
        assert graph._parse_plain(text, True) is None
        with pytest.raises(ConnectivityError, match="1 edges cannot connect 3 nodes"):
            parse_edge_list(text, connected=True)
    assert graph._parse_plain("0 1\n1 3\n", True) is None
    assert graph._parse_plain("0 1\n1 2\n", True) == path(3)
    assert graph._parse_plain("0 9\n1 2\n", False) is None
    assert parse_edge_list("0 9\n1 2\n") == from_edge_list([(0, 9), (1, 2)])
    assert graph._parse_plain("0 4\n1 2\n", False) is None  # 4 = 2 * 2 lines
    # Just below the bound the bulk path builds the isolated nodes itself.
    for text in ("0 3\n1 3\n", "0 3\n1 3"):
        assert graph._parse_plain(text, False) == from_edge_list([(0, 3), (1, 3)])
    assert graph._parse_plain("0 5\n1 2\n0 1\n", False) == from_edge_list(
        [(0, 5), (1, 2), (0, 1)])
    # Between the bound and the one of a count with the final newline as a
    # line of its own, the line path builds the same graph.
    for text, edges in (("0 3\n", [(0, 3)]), ("0 5\n1 2\n", [(0, 5), (1, 2)])):
        assert graph._parse_plain(text, False) is None
        assert parse_edge_list(text) == from_edge_list(edges)
    for text in ("0 3\n", "0 9\n1 2\n", "0 6\n1 2\n", "0 5\n1 2\n", "0 2\n", "0 2",
                 "0 1\n1 3\n", "0 1\n1 2\n", "0 4\n1 2\n", "0 3\n1 3\n", "0 3\n1 3",
                 "0 5\n1 2\n0 1\n"):
        assert_paths_agree(text)


@pytest.mark.parametrize("block_chars", [*_SMALL_BLOCKS, *_WHOLE_BLOCKS])
def test_comment_lines_take_the_bulk_path(monkeypatch, block_chars):
    # Blocks of comments alone add no ids; a comment may hold any character
    # but a line break, and may end the text without a newline.
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(graph, "_parse_lines", _no_lines)
    text = ("# family path n=3\n# class 0 path_end\n#\n#\t n 3 = ×\n0 1\n"
            "# class 1 path_inner\n1 2\n# end")
    assert parse_edge_list(text, connected=True) == path(3)
    assert parse_edge_list("#\n" * 50 + to_edge_list(path(50)) + "#\n" * 50) == path(50)


@pytest.mark.parametrize("block_chars", [*_SMALL_BLOCKS, *_WHOLE_BLOCKS])
@pytest.mark.parametrize("text", ["# n=3\n0 1\n1 2\n", "#n = 3\n0 1\n1 2\n",
                                  "0 1\n # x\n1 2\n", "0 1\n# x\u2028 1 2\n2 3\n"])
def test_order_headers_and_indented_comments_go_line_by_line(monkeypatch, block_chars, text):
    # In the last, the line break ends the comment, and " 1 2" is indented.
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    assert graph._parse_plain(text, False) is None
    assert_paths_agree(text)


@pytest.mark.parametrize("block_chars", [*_SMALL_BLOCKS, *_WHOLE_BLOCKS])
@pytest.mark.parametrize("brk", ["\r\n", *graph._LINE_BREAKS])
def test_other_line_breaks_take_the_bulk_path(monkeypatch, block_chars, brk):
    # Each break ends its line, in a comment too: "1 2" after "# x" is an edge.
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    text = f"0 1{brk}# x{brk}1 2{brk}2 3{brk}"
    assert_paths_agree(text)
    monkeypatch.setattr(graph, "_parse_lines", _no_lines)
    assert parse_edge_list(text, connected=True) == path(4)


@pytest.mark.parametrize("block_chars", [*_SMALL_BLOCKS, *_WHOLE_BLOCKS])
def test_the_id_bound_counts_edge_lines_only(monkeypatch, block_chars):
    # Else a text of comments and one far edge would allocate a node table
    # as long as the text.
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    text = "#\n" * 1000 + "0 999\n"
    assert graph._parse_plain(text, False) is None
    assert graph._parse_plain(text, True) is None
    assert graph._parse_plain("#\n" * 1000 + "0 1\n", True) == path(2)
    assert_paths_agree(text)


def _shared_ints(g):
    return len({id(x) for nbrs in g.adj for x in nbrs})


def test_the_line_path_keeps_one_int_per_node():
    text = random_edge_text(2000, 4000).replace(" ", "\t")
    assert graph._parse_plain(text, True) is None
    g = parse_edge_list(text, connected=True)
    assert (g.n, g.edge_count()) == (2000, 4000)
    assert _shared_ints(g) == g.n


def test_line_breaks_are_those_of_splitlines():
    breaks = {c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) == 2}
    assert sorted(graph._LINE_BREAKS) == sorted(breaks - {"\n"})


# Pieces of text over digits, space, "\n", "#", "n", "=" and "\t", some of them
# whole plain lines, order headers or comments; _PIECES adds "\r".
_LF_PIECES = ["0", "7", "12", " ", "\n", "#", "n", "=", "\t", "1 2\n", "# x\n", "#n=", "# n ="]
_PIECES = st.lists(st.sampled_from([*_LF_PIECES, "\r", "\r\n"]), max_size=16).map("".join)


def _is_plain(text):
    return graph._plain_text(text, False) is not None


@given(_PIECES)
@settings(max_examples=500, deadline=None)
def test_the_plain_check_agrees_with_one_pattern_on_whole_texts(text):
    assert _is_plain(text) == bool(PLAIN_BLOCK.fullmatch(graph._newlines_only(text)))


@given(st.lists(st.sampled_from(["0 1\n", "12 7\n", "#\n", "# x\n", "# class 3 path_end\n"]),
                max_size=30).map("".join),
       st.sampled_from(["", " ", "7", "x", "0\t1", " 0 1", "0  1", "0 1 ", "0 1 2", " # x",
                        "# n=3", "#n = 3"]),
       st.lists(st.sampled_from(_LF_PIECES), max_size=16).map("".join))
@settings(max_examples=500, deadline=None)
def test_the_plain_check_finds_a_line_that_is_not_plain_after_any_prefix(before, line, after):
    text = f"{before}{line}\n{after}"
    assert not PLAIN_BLOCK.fullmatch(text)
    assert not _is_plain(text)


def test_the_plain_check_holds_no_state_per_line():
    # One pattern matched over a whole 16 KiB block kept about 450 KiB of
    # backtracking state, some 300 bytes a line; the check takes the whole text.
    text = random_edge_text(20_000, 40_000)
    tracemalloc.start()
    try:
        plain = _is_plain(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plain
    assert peak < 1 << 14, f"checking {len(text)} characters took {peak} B"


def _no_blocks(text):
    raise AssertionError("text that is not plain was split into blocks")


def test_a_last_line_that_is_not_plain_is_found_before_any_block(monkeypatch):
    lines = random_edge_text(1000, 2000).splitlines(keepends=True)
    text = "".join(lines[:-1]) + lines[-1].replace(" ", "\t")
    monkeypatch.setattr(graph, "_plain_blocks", _no_blocks)
    monkeypatch.setattr(contraction, "_plain_blocks", _no_blocks)
    assert parse_edge_list(text, connected=True) == graph._parse_lines(text, True)
    assert contract_text(text, 0) is text


@given(st.lists(st.sampled_from(["a", "\n", "\r\n", *graph._LINE_BREAKS]), max_size=12)
       .map("".join))
@settings(max_examples=500, deadline=None)
def test_newlines_only_is_the_join_of_splitlines(text):
    # A text with only "\n" breaks is kept as it is, a final "\n" included.
    other_breaks = any(c in text for c in graph._LINE_BREAKS)
    assert graph._newlines_only(text) == ("\n".join(text.splitlines()) if other_breaks else text)


def test_plain_parse_memory_stays_near_the_graph():
    n, m = 20_000, 40_000
    assert_parse_peak_near_the_graph(random_edge_text(n, m), n, m)


def test_labeled_parse_memory_stays_near_the_graph():
    n, m = 20_000, 40_000
    head = "# family none\n" + "".join(f"# class {v} role_{v % 7}\n" for v in range(n))
    assert_parse_peak_near_the_graph(head + random_edge_text(n, m), n, m)


def assert_parse_peak_near_the_graph(text, n, m):
    held = drain_tuple_free_lists()
    tracemalloc.start()
    try:
        g = parse_edge_list(text, connected=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del held
    size = graph_bytes(g)
    assert (g.n, g.edge_count()) == (n, m)
    assert peak < 2 * size, f"parse peak {peak} B for a graph of {size} B"
    assert _shared_ints(g) == n
    contracted = contract(g, 0).graph
    assert _shared_ints(contracted) == contracted.n

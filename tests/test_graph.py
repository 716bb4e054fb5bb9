"""Graph core: parsing, degrees, connectivity, BFS, distance sums."""

import dataclasses
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agglorank import graph
from agglorank.contraction import contract
from agglorank.errors import ConnectivityError, DegenerateOrderError, EdgeListError
from agglorank.families import LollipopSpec, generate
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

from oracles import (
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
     "line 2: non-integer node id in '1 " + "9" * 5000 + "'", 2),
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


@pytest.mark.parametrize("block_chars", [*_SMALL_BLOCKS, graph._BLOCK_CHARS])
def test_ids_at_the_bound_go_line_by_line(monkeypatch, block_chars):
    # The bound is lines + 1 under connected and 2 * lines otherwise, with
    # lines = newlines + 1.
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    assert graph._parse_plain("0 3\n", True) is None
    with pytest.raises(ConnectivityError, match="1 edges cannot connect 4 nodes"):
        parse_edge_list("0 3\n", connected=True)
    assert graph._parse_plain("0 9\n1 2\n", False) is None
    assert parse_edge_list("0 9\n1 2\n") == from_edge_list([(0, 9), (1, 2)])
    assert graph._parse_plain("0 6\n1 2\n", False) is None  # 6 = 2 * 3 lines
    # Just below the bound the bulk path builds the isolated nodes itself.
    assert graph._parse_plain("0 3\n", False) == from_edge_list([(0, 3)])
    assert graph._parse_plain("0 5\n1 2\n", False) == from_edge_list([(0, 5), (1, 2)])
    for text in ("0 3\n", "0 9\n1 2\n", "0 6\n1 2\n", "0 5\n1 2\n"):
        assert_paths_agree(text)


@pytest.mark.parametrize("block_chars", [*_SMALL_BLOCKS, graph._BLOCK_CHARS])
def test_comment_lines_take_the_bulk_path(monkeypatch, block_chars):
    # Blocks of comments alone add no ids; a comment may hold any character
    # but a line break, and may end the text without a newline.
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(graph, "_parse_lines", _no_lines)
    text = ("# family path n=3\n# class 0 path_end\n#\n#\t n 3 = ×\n0 1\n"
            "# class 1 path_inner\n1 2\n# end")
    assert parse_edge_list(text, connected=True) == path(3)
    assert parse_edge_list("#\n" * 50 + to_edge_list(path(50)) + "#\n" * 50) == path(50)


@pytest.mark.parametrize("block_chars", [*_SMALL_BLOCKS, graph._BLOCK_CHARS])
@pytest.mark.parametrize("text", ["# n=3\n0 1\n1 2\n", "#n = 3\n0 1\n1 2\n",
                                  "0 1\n # x\n1 2\n", "0 1\n# x\u2028 1 2\n2 3\n"])
def test_order_headers_and_indented_comments_go_line_by_line(monkeypatch, block_chars, text):
    # In the last, the line break ends the comment, and " 1 2" is indented.
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    assert graph._parse_plain(text, False) is None
    assert_paths_agree(text)


@pytest.mark.parametrize("block_chars", [*_SMALL_BLOCKS, graph._BLOCK_CHARS])
@pytest.mark.parametrize("brk", ["\r\n", *graph._LINE_BREAKS])
def test_other_line_breaks_take_the_bulk_path(monkeypatch, block_chars, brk):
    # Each break ends its line, in a comment too: "1 2" after "# x" is an edge.
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    text = f"0 1{brk}# x{brk}1 2{brk}2 3{brk}"
    assert_paths_agree(text)
    monkeypatch.setattr(graph, "_parse_lines", _no_lines)
    assert parse_edge_list(text, connected=True) == path(4)


@pytest.mark.parametrize("block_chars", [*_SMALL_BLOCKS, graph._BLOCK_CHARS])
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

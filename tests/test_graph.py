"""Graph core: parsing, degrees, connectivity, BFS, distance sums."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agglorank import graph
from agglorank.errors import ConnectivityError, DegenerateOrderError, EdgeListError
from agglorank.graph import (
    bfs_distances,
    degree,
    distance_sum,
    from_edge_list,
    is_connected,
    parse_edge_list,
    to_edge_list,
)

from oracles import minplus_distance_matrix, oracle_distance_sum, random_connected_graph


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


def _with_pendant_trees(rng, g, extra):
    # Attach `extra` new nodes, each to a random earlier node.
    edges = list(g.edges())
    for new in range(g.n, g.n + extra):
        edges.append((rng.randrange(new), new))
    return from_edge_list(edges, n=g.n + extra)


@pytest.mark.parametrize("block_bits", [1, 3, graph._BLOCK_BITS])
def test_distance_sum_against_minplus_oracle(monkeypatch, block_bits):
    # Pendant trees give core nodes weights above 1; small blocks split the
    # source bits, one source's among them, into several searches.
    monkeypatch.setattr(graph, "_BLOCK_BITS", block_bits)
    rng = random.Random(11)
    for _ in range(600):
        g = random_connected_graph(rng, rng.randint(2, 14))
        if rng.random() < 0.5:
            g = _with_pendant_trees(rng, g, rng.randint(1, 20))
        assert distance_sum(g) == oracle_distance_sum(g)


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

    def test_round_trip(self):
        g = comet_3_4()
        assert parse_edge_list(to_edge_list(g)) == g


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

"""Node contraction semantics and family-closure structure checks."""

import dataclasses
import pickle
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agglorank.contraction import ContractionResult, _flat_rows, contract
from agglorank.errors import DegenerateOrderError
from agglorank.families import (
    CometSpec,
    DoubleCometSpec,
    LollipopSpec,
    NodeClass,
    PathSpec,
    generate,
)
from agglorank.graph import degree, from_edge_list, is_connected

from oracles import (
    contraction_by_definition,
    distance_signature,
    random_connected_graph,
    with_pendant_trees,
)


def path(n):
    return from_edge_list([(i, i + 1) for i in range(n - 1)])


def complete(n):
    return from_edge_list([(i, j) for i in range(n) for j in range(i + 1, n)])


def sig_of(spec):
    return distance_signature(generate(spec).graph)


def test_path_end_contracts_to_shorter_path():
    for n in range(3, 9):
        result = contract(path(n), 0)
        assert distance_signature(result.graph) == distance_signature(path(n - 1))


def test_path_inner_contracts_to_path_minus_two():
    for n in range(4, 9):
        for v in range(1, n - 1):
            result = contract(path(n), v)
            assert distance_signature(result.graph) == distance_signature(path(n - 2))


def test_comet_center_contracts_to_bare_handle():
    result = contract(generate(CometSpec(3, 4)).graph, 3)
    assert distance_signature(result.graph) == distance_signature(path(3))


def test_lollipop_clique_node_contracts_to_tail_path():
    lg = generate(LollipopSpec(10, 5))
    result = contract(lg.graph, 7)
    assert distance_signature(result.graph) == distance_signature(path(5))


def test_complete_graph_collapses_to_single_node():
    for n in range(2, 6):
        result = contract(complete(n), 0)
        assert result.graph.n == 1
        assert result.graph.adj == ((),)
        assert result.merged_into == 0
        assert result.old_to_new == {}


def test_two_node_graph_collapses():
    assert contract(path(2), 1).graph.n == 1


def test_single_node_rejected():
    with pytest.raises(DegenerateOrderError):
        contract(from_edge_list([], n=1), 0)


def test_node_out_of_range():
    with pytest.raises(IndexError):
        contract(path(3), 7)


def test_renumbering_is_ascending_with_merged_last():
    # star center 2 on nodes {0,1,2,3} plus a pendant chain 3-4-5
    g = from_edge_list([(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
    result = contract(g, 2)
    # removed {0,1,2,3}; survivors 4,5 renumber to 0,1; merged node is 2
    assert result.old_to_new == {4: 0, 5: 1}
    assert result.merged_into == 2
    assert list(result.graph.edges()) == [(0, 1), (0, 2)]


def test_old_to_new_iterates_in_ascending_old_id_order():
    # The CLI writes "# map" lines in this order without sorting.
    rng = random.Random(11)
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(2, 12))
        for v in range(g.n):
            result = contract(g, v)
            old_ids = list(result.old_to_new)
            assert old_ids == sorted(old_ids)
            assert list(result.old_to_new.values()) == list(range(result.merged_into))
            assert [result.old_to_new.get(old, result.merged_into) for old in range(g.n)] \
                == result.new_ids


def test_old_to_new_is_built_on_first_read_and_leaves_equality_alone():
    g = from_edge_list([(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
    result, again = contract(g, 2), contract(g, 2)
    assert "old_to_new" not in vars(result)  # a ranking never reads it
    assert result.old_to_new is result.old_to_new == {4: 0, 5: 1}
    assert result == again and "old_to_new" not in vars(again)
    assert result != contract(g, 0)



def test_result_is_a_frozen_value_built_by_position_or_keyword():
    g = from_edge_list([(0, 1), (1, 2)])
    result = contract(g, 0)
    merged = from_edge_list([(0, 1)])
    assert result == ContractionResult(merged, 1, [1, 1, 0])
    assert result == ContractionResult(graph=merged, merged_into=1, new_ids=[1, 1, 0])
    assert result != ContractionResult(merged, 1, [1, 0, 1])
    assert repr(result) == ("ContractionResult(graph=Graph(n=2, edges=[(0, 1)]), "
                            "merged_into=1, new_ids=[1, 1, 0])")
    with pytest.raises(TypeError, match="unhashable"):
        hash(result)  # new_ids is a list
    for name in ("graph", "merged_into", "new_ids", "old_to_new"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(result, name, None)
    for value, name in ((result, "new_ids"), (g, "adj")):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(value, name)
    assert result.new_ids == [1, 1, 0] and g.adj == ((1,), (0, 2), (1,))
    assert result.old_to_new == {2: 0}
    for value in (g, result):
        assert pickle.loads(pickle.dumps(value)) == value
    assert result == ContractionResult(merged, new_ids=[1, 1, 0], merged_into=1)
    for args, kwargs, message in [
        ((merged, 1, [1, 1, 0], None), {}, "takes 3 fields but 4 were given"),
        ((merged, 1), {"merged_into": 1, "new_ids": []},
         "got multiple values for field 'merged_into'"),
        ((merged,), {"merged_into": 1}, "missing field 'new_ids'"),
        ((merged, 1, [1, 1, 0]), {"old_to_new": {}}, "got an unexpected field 'old_to_new'"),
    ]:
        with pytest.raises(TypeError, match=rf"^ContractionResult\(\) {message}$"):
            ContractionResult(*args, **kwargs)
    assert result != merged and merged != result


def relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list([(perm[u], perm[v]) for u, v in g.edges()], n=g.n)


@st.composite
def contraction_inputs(draw):
    """Graphs with shuffled ids: random ones with pendant trees, cliques with
    tails, complete graphs (where S is every node) and complete bipartite
    graphs (where every survivor touches S more than once)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "clique with tail", "complete", "bipartite"]))
    if kind == "random":
        core = random_connected_graph(rng, draw(st.integers(2, 9)))
        g = with_pendant_trees(rng, core, draw(st.integers(0, 6)))
    elif kind == "clique with tail":
        g = generate(LollipopSpec(draw(st.integers(3, 10)), 2)).graph
        g = with_pendant_trees(rng, g, draw(st.integers(0, 4)))
    elif kind == "complete":
        g = complete(draw(st.integers(2, 7)))
    else:
        a, b = draw(st.integers(1, 4)), draw(st.integers(2, 4))
        g = from_edge_list([(i, a + j) for i in range(a) for j in range(b)])
    return relabeled(rng, g)


@given(contraction_inputs())
@settings(max_examples=200, deadline=None)
def test_contraction_matches_its_definition_at_every_node(g):
    for v in range(g.n):
        result = contract(g, v)
        assert (result.graph, result.merged_into, result.old_to_new) == \
            contraction_by_definition(g, v)


def test_order_decrement_and_invariants_on_random_graphs():
    rng = random.Random(7)
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(2, 8))
        v = rng.randrange(g.n)
        result = contract(g, v)
        assert result.graph.n == g.n - degree(g, v)
        assert is_connected(result.graph)
        for u in range(result.graph.n):
            nbrs = result.graph.adj[u]
            assert u not in nbrs
            assert len(set(nbrs)) == len(nbrs)
            assert all(u in result.graph.adj[w] for w in nbrs)


# Contracting one node of a family member lands back in a named family.
@pytest.mark.parametrize(
    "spec,node_class,target",
    [
        (CometSpec(3, 4), NodeClass.COMET_PATH_END, CometSpec(3, 3)),
        (CometSpec(3, 4), NodeClass.COMET_PATH_INNER, CometSpec(3, 2)),
        (CometSpec(4, 6), NodeClass.COMET_STAR_LEAF, CometSpec(3, 6)),
        (DoubleCometSpec(8, 2, 2), NodeClass.DC_END_A, CometSpec(2, 3)),
        (DoubleCometSpec(8, 2, 2), NodeClass.DC_INNER, DoubleCometSpec(6, 2, 2)),
        (DoubleCometSpec(10, 3, 2), NodeClass.DC_LEAF_A, DoubleCometSpec(9, 2, 2)),
        (LollipopSpec(10, 5), NodeClass.LP_PATH_END, LollipopSpec(9, 4)),
        (LollipopSpec(10, 5), NodeClass.LP_PATH_INNER, LollipopSpec(8, 3)),
        (LollipopSpec(10, 5), NodeClass.LP_JUNCTION, PathSpec(4)),
    ],
)
def test_family_closure(spec, node_class, target):
    lg = generate(spec)
    expected = sig_of(target)
    for v, c in enumerate(lg.classes):
        if c is node_class:
            assert distance_signature(contract(lg.graph, v).graph) == expected


@pytest.mark.parametrize("order, copies", [("canonical", 1), ("shuffled", 2)])
def test_flat_rows_hold_no_cursor_array(order, copies):
    # The rows of P(100001) from its 200,000 ids.  Canonical lines fill the
    # neighbour array and the row offsets, and the ascent check reads them in
    # place; shuffled lines add one transposed copy of each.  A cursor array
    # beside the offsets (4 bytes a node) overshoots the bound.
    n = 100_001
    edges = [(u, u + 1) for u in range(n - 1)]
    if order == "shuffled":
        random.Random(order).shuffle(edges)
        edges = [(w, u) for u, w in edges]
    ids = array("i", [u for edge in edges for u in edge])
    bound = copies * (ids.itemsize * len(ids) + ids.itemsize * (n + 1)) + 64 * 1024
    tracemalloc.start()
    try:
        row = _flat_rows(ids, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"_flat_rows peak {peak} B, bound {bound} B"
    assert [tuple(row(u)) for u in (0, 1, n // 2, n - 1)] == [(1,), (0, 2), (n // 2 - 1, n // 2 + 1),
                                                              (n - 2,)]
    assert not ids  # emptied once the rows hold its edges

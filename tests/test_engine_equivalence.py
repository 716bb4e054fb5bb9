"""Trees are ranked without contracting, from the one leaf peel that a
distance sum also runs (``graph._peel``, then ``agglomeration._tree_sums``);
every other graph contracts each node.  Both must give the report of the
definition: ``imc(g, v)``, contract-then-phi, for every node, with phi equal
to the min-plus oracle's and entries sorted by importance descending, ties by
ascending id.  ``oracles.contraction_imc_all`` builds that report from the
test oracles alone, for any engine to equal."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agglorank import agglomeration, graph
from agglorank import closed_forms as cf
from agglorank.agglomeration import ImcEntry, imc, imc_all, rank_graphs
from agglorank.errors import ConnectivityError
from agglorank.families import CometSpec, LollipopSpec, PathSpec, generate
from agglorank.graph import Graph, bfs_distances, from_edge_list, parse_edge_list

from oracles import (
    all_connected_labeled_graphs,
    contraction_imc_all,
    oracle_distance_sum,
    pruefer_edges,
    random_connected_graph,
    with_pendant_trees,
)


def pruefer_tree(code: list[int], n: int) -> Graph:
    return from_edge_list(pruefer_edges(code, n), n=n)


def assert_ranks_by_definition(g: Graph, report) -> None:
    by_node = [imc(g, v) for v in range(g.n)]
    assert report.entries == tuple(sorted(by_node, key=lambda e: (-e.imc, e.node)))
    assert report.phi == Fraction(g.n - 1, oracle_distance_sum(g))


@pytest.mark.parametrize("n", range(2, 8))
def test_every_labeled_tree_ranks_by_definition(n):
    trees = [pruefer_tree(list(code), n) for code in product(range(n), repeat=n - 2)]
    assert len(trees) == n ** (n - 2)
    for g, report in zip(trees, rank_graphs(trees)):
        assert_ranks_by_definition(g, report)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2,
                                             max_size=n - 2))))
def test_random_trees_rank_by_definition(case):
    n, code = case
    g = pruefer_tree(code, n)
    assert_ranks_by_definition(g, imc_all(g))


@pytest.mark.parametrize("jobs", [1, 2])
def test_trees_and_cyclic_graphs_in_one_call_rank_as_alone(jobs, cpus):
    cpus(2)
    rng = random.Random(11)
    graphs = [
        generate(PathSpec(30)).graph,
        generate(LollipopSpec(80, 20)).graph,  # above the size at which the split forks
        pruefer_tree([rng.randrange(25) for _ in range(23)], 25),
        random_connected_graph(rng, 12),
        from_edge_list([(0, 1)]),
        generate(CometSpec(4, 9)).graph,
        generate(LollipopSpec(9, 4)).graph,
    ]
    assert rank_graphs(graphs, jobs=jobs) == [imc_all(g) for g in graphs]


def _no_contract(g, v):
    raise AssertionError("a tree was ranked by contraction")


LARGE_TREES = [
    (generate(PathSpec(5000)), cf.phi_path, cf.imc_path, (5000,)),
    (generate(CometSpec(1000, 4000)), cf.phi_comet, cf.imc_comet, (1000, 4000)),
]


@pytest.mark.parametrize("labeled, phi_form, imc_form, params", LARGE_TREES)
def test_large_trees_rank_without_contracting(monkeypatch, labeled, phi_form, imc_form,
                                              params):
    monkeypatch.setattr(agglomeration, "contract", _no_contract)
    g = labeled.graph
    expected = [ImcEntry(v, imc_form(*params, role), g.n - len(g.adj[v]))
                for v, role in enumerate(labeled.classes)]
    report = imc_all(g, jobs=2)
    assert report.phi == phi_form(*params)
    assert report.entries == tuple(sorted(expected, key=lambda e: (-e.imc, e.node)))


def _second_walk(*args):
    raise AssertionError("a tree was walked again after its peel")


@pytest.mark.parametrize("labeled, phi_form, imc_form, params", LARGE_TREES)
def test_large_trees_rank_from_their_peel_alone(monkeypatch, labeled, phi_form, imc_form,
                                                params):
    # phi, L, connectivity and every contracted sum come from the one peel.
    monkeypatch.setattr(agglomeration, "distance_sum", _second_walk)
    monkeypatch.setattr(agglomeration, "phi_and_length", _second_walk)
    monkeypatch.setattr(graph, "_bfs", _second_walk)
    test_large_trees_rank_without_contracting(monkeypatch, labeled, phi_form, imc_form, params)


def test_a_disconnected_graph_with_n_minus_1_edges_is_no_tree():
    # n - 1 edges, but not connected: a triangle and an isolated node, a
    # triangle and an edge, a triangle and a path of three nodes.
    for text in ("# n=4\n0 1\n1 2\n0 2\n", "0 1\n1 2\n0 2\n3 4\n", "0 1\n1 2\n0 2\n3 4\n4 5\n"):
        g = parse_edge_list(text)
        assert g.edge_count() == g.n - 1
        with pytest.raises(ConnectivityError) as bfs:
            bfs_distances(g, 0)
        with pytest.raises(ConnectivityError) as err:
            imc_all(g)
        assert str(err.value) == str(bfs.value) == "node 3 is unreachable from node 0"
        assert err.value.unreachable == bfs.value.unreachable == 3


# Connected labelled graphs on n nodes, n = 2..5.
_CONNECTED_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728}


@pytest.mark.parametrize("n", sorted(_CONNECTED_COUNTS))
def test_every_small_connected_graph_ranks_as_the_contraction_oracle(n):
    graphs = list(all_connected_labeled_graphs(n))
    assert len(graphs) == _CONNECTED_COUNTS[n]
    for g in graphs:
        assert imc_all(g) == contraction_imc_all(g)


def _relabeled(rng: random.Random, n: int, edges) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edge_list([(perm[u], perm[v]) for u, v in edges], n=n)


def _pendant_trees(rng: random.Random) -> Graph:
    return with_pendant_trees(rng, random_connected_graph(rng, rng.randint(2, 8)),
                              rng.randint(1, 8))


def _clique_with_tails(rng: random.Random) -> Graph:
    # K_k, then 1-3 tails of 1-4 nodes, each hung off any node built so far.
    k = rng.randint(2, 8)
    edges = [(u, v) for v in range(k) for u in range(v)]
    n = k
    for _ in range(rng.randint(1, 3)):
        end = rng.randrange(n)
        for _ in range(rng.randint(1, 4)):
            edges.append((end, n))
            end, n = n, n + 1
    return _relabeled(rng, n, edges)


def _true_twins(rng: random.Random) -> Graph:
    # A random connected graph with node x blown up into a clique of w nodes,
    # each joined to all of N(x): w nodes with one closed neighbourhood.
    base = random_connected_graph(rng, rng.randint(2, 7))
    x, w = rng.randrange(base.n), rng.randint(2, 5)
    twins = [x, *range(base.n, base.n + w - 1)]
    edges = [*base.edges(), *((t, u) for t in twins[1:] for u in base.adj[x]),
             *((a, b) for i, b in enumerate(twins) for a in twins[:i])]
    return _relabeled(rng, base.n + w - 1, edges)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([_pendant_trees, _clique_with_tails, _true_twins]),
       st.integers(0, 2**32 - 1))
def test_structured_graphs_rank_as_the_contraction_oracle(build, seed):
    g = build(random.Random(seed))
    assert imc_all(g) == contraction_imc_all(g)


def _sparse(rng: random.Random, n: int) -> Graph:
    # The rank workload's recipe at degree 4: a random recursive tree, uniform
    # extra edges up to 2n, then shuffled ids.
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 2 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return _relabeled(rng, n, sorted(edges))


def _lollipop(rng: random.Random, n: int, d: int) -> Graph:
    g = generate(LollipopSpec(n, d)).graph
    return _relabeled(rng, n, g.edges())


_RANK_SHAPES = [(_sparse, (n,), seed) for n in (12, 20, 30, 40) for seed in range(3)] + [
    (_lollipop, (12, 6), 0), (_lollipop, (20, 2), 0), (_lollipop, (30, 15), 1)]


@pytest.mark.parametrize("build, args, seed", _RANK_SHAPES,
                         ids=["-".join([b.__name__[1:], *map(str, a), f"seed{s}"])
                              for b, a, s in _RANK_SHAPES])
def test_rank_workload_shapes_rank_as_the_contraction_oracle(build, args, seed):
    g = build(random.Random(seed), *args)
    assert imc_all(g) == contraction_imc_all(g)

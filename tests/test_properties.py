"""Invariants of the importance ranking on random graphs: relabelling and symmetry."""

import random
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from agglorank.agglomeration import imc_all
from agglorank.graph import from_edge_list

from oracles import random_connected_graph


@st.composite
def graphs_and_relabellings(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    g = random_connected_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n)
    return g, draw(st.permutations(range(n)))


@given(graphs_and_relabellings())
@settings(max_examples=60, deadline=None)
def test_imc_is_invariant_under_relabelling(case):
    g, perm = case
    h = from_edge_list([(perm[u], perm[v]) for u, v in g.edges()], n=g.n)
    before, after = imc_all(g), imc_all(h)
    assert after.phi == before.phi
    after_by_node = {entry.node: entry.imc for entry in after.entries}
    assert all(after_by_node[perm[e.node]] == e.imc for e in before.entries)


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_nodes_in_one_automorphism_orbit_tie(n, seed):
    g = random_connected_graph(random.Random(seed), n)
    edges = set(g.edges())
    values = {entry.node: entry.imc for entry in imc_all(g).entries}
    for perm in permutations(range(n)):
        if {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges:
            assert all(values[perm[v]] == values[v] for v in range(n))

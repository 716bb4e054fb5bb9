"""Invariants of the importance ranking on random graphs: relabelling, symmetry,
and agreement with the min-plus distance oracle."""

import random
from fractions import Fraction
from itertools import permutations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from agglorank.agglomeration import imc, imc_all, phi
from agglorank.contraction import contract
from agglorank.graph import from_edge_list

from oracles import minplus_distance_matrix, random_connected_graph, with_pendant_trees


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


@st.composite
def small_connected_graphs(draw, max_n=9):
    # Half of them carry pendant trees, so the distance sum peels before it searches.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, max_n))
    extra = draw(st.integers(1, n - 1)) if draw(st.booleans()) else 0
    return with_pendant_trees(rng, random_connected_graph(rng, n - extra), extra)


def oracle_contracted_phi(dist, v):
    # Contracting v merges S = N[v] into one node m at distance d(x, v) - 1
    # from each survivor x, and survivors x, y gain the path through m:
    # d'(x, y) = min(d(x, y), d(x, v) + d(v, y) - 2).
    survivors = [x for x in range(len(dist)) if dist[x, v] >= 2]
    if not survivors:
        return Fraction(1)
    to_v = dist[survivors, v]
    pairs = np.minimum(dist[np.ix_(survivors, survivors)], to_v[:, None] + to_v[None, :] - 2)
    return Fraction(len(survivors), int(pairs.sum()) + 2 * int((to_v - 1).sum()))


@given(small_connected_graphs())
@settings(max_examples=80, deadline=None)
def test_contracted_phi_and_imc_match_the_minplus_oracle(g):
    dist = minplus_distance_matrix(g)
    phi_g = Fraction(g.n - 1, int(dist.sum()))
    for v in range(g.n):
        expected = oracle_contracted_phi(dist, v)
        assert phi(contract(g, v).graph) == expected
        assert imc(g, v).imc == 1 - phi_g / expected

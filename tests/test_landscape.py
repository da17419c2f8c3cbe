"""Exhaustive enumeration, exact minima, and local-minimum certificates."""

import random

import pytest

from nodecut import (
    TieBreakPolicy,
    TooLarge,
    enumerate_connected_subgraphs,
    exact_local_minima,
    load_edge_list,
    psi,
    run_all_seeds,
    verify_local_minimum,
)
from conftest import (
    KARATE_NODES,
    PATH3,
    TWO_TRIANGLES,
    brute_force_connected_sets,
    indices_of,
    labels_of,
    random_connected_graph,
    random_weighted_graph,
)


def test_enumerate_path3():
    g = load_edge_list(PATH3)
    got = {labels_of(g, s) for s in enumerate_connected_subgraphs(g)}
    assert got == {frozenset("12"), frozenset("23"), frozenset("123")}


def test_enumerate_triangle():
    g = load_edge_list("1 2\n2 3\n1 3")
    assert len(list(enumerate_connected_subgraphs(g))) == 4


def test_enumerate_matches_subset_filter_oracle():
    rng = random.Random(23)
    for trial in range(6):
        g = random_connected_graph(rng, rng.randrange(5, 11), rng.randrange(0, 12))
        enumerated = list(enumerate_connected_subgraphs(g))
        assert len(enumerated) == len(set(enumerated)), "no duplicates"
        assert set(enumerated) == brute_force_connected_sets(g)


def test_enumeration_cap():
    g = load_edge_list(PATH3)
    with pytest.raises(TooLarge):
        list(enumerate_connected_subgraphs(g, max_nodes=2))
    assert len(list(enumerate_connected_subgraphs(g, max_nodes=2, force=True))) == 3


def test_exact_minima_path3_empty():
    # both 2-node sets sit above the whole graph, which is the ground state
    assert exact_local_minima(load_edge_list(PATH3)) == []


def test_exact_minima_two_triangles():
    g = load_edge_list(TWO_TRIANGLES)
    minima = {labels_of(g, s) for s in exact_local_minima(g)}
    assert minima == {frozenset("1234"), frozenset("3456")}
    for s in minima:
        assert psi(g, indices_of(g, s)) == pytest.approx(1 / 12, abs=1e-12)


def test_greedy_minima_subset_of_exact():
    """Unit and weighted graphs, deterministic and random tie-breaking."""
    rng = random.Random(41)
    for make in (random_connected_graph, random_weighted_graph):
        for policy in (TieBreakPolicy(), TieBreakPolicy("random", 3)):
            for trial in range(8):
                g = make(rng, rng.randrange(5, 12), rng.randrange(0, 8))
                exact = set(exact_local_minima(g))
                for c in run_all_seeds(g, policy).communities:
                    assert c.nodes in exact


def test_verify_karate_communities(karate):
    for nodes in KARATE_NODES.values():
        assert verify_local_minimum(karate, indices_of(karate, nodes))


def test_verify_rejects_perturbed_c1(karate):
    c1 = set(indices_of(karate, KARATE_NODES["C1"]))
    outside = karate.index_of("5")
    assert not verify_local_minimum(karate, c1 | {outside})


def test_whole_graph_is_a_minimum(karate):
    assert verify_local_minimum(karate, set(range(karate.n)))

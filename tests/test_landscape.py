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
from nodecut.graph import minimum_sort_key
from nodecut.landscape import _places
from nodecut.psi import MOVE_TOL
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


def nodes_of(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def random_graphs(seed: int, count: int):
    """count unit and count weighted connected graphs of 4-12 nodes."""
    rng = random.Random(seed)
    for make in (random_connected_graph, random_weighted_graph):
        for _ in range(count):
            n = rng.randrange(4, 13)
            yield make(rng, n, rng.randrange(0, n + 2))


def recursive_growth_order(g) -> list[frozenset[int]]:
    """Every connected set of >= 2 nodes in the order of recursive anchor/banned growth."""
    nbrs = [frozenset(j for j, _, _ in g.adj[i]) for i in range(g.n)]
    out = []

    def grow(current, banned):
        if len(current) >= 2:
            out.append(current)
        local_banned = set(banned)
        for u in sorted({j for i in current for j in nbrs[i]} - current - banned):
            grow(current | {u}, local_banned)
            local_banned.add(u)

    for anchor in range(g.n):
        grow(frozenset({anchor}), set(range(anchor)))
    return out


def reference_minima(g) -> list[frozenset[int]]:
    """Exact minima from every connected set, from-scratch psi and single-node moves."""
    values = {s: psi(g, s) for s in brute_force_connected_sets(g)}
    minima = []
    for s, value in values.items():
        if value == 0.0:
            continue
        frontier = {j for i in s for j, _, _ in g.adj[i]} - s
        moves = [s | {x} for x in frontier] + [s - {x} for x in s]
        if all(values.get(t, value) >= value - MOVE_TOL for t in moves):
            minima.append(s)
    return sorted(minima, key=lambda s: minimum_sort_key(g, values[s], s))


def test_enumerate_path3():
    g = load_edge_list(PATH3)
    got = {labels_of(g, nodes_of(s)) for s in enumerate_connected_subgraphs(g)}
    assert got == {frozenset("12"), frozenset("23"), frozenset("123")}


def test_enumerate_triangle():
    g = load_edge_list("1 2\n2 3\n1 3")
    assert list(enumerate_connected_subgraphs(g)) == [0b011, 0b111, 0b101, 0b110]


def test_enumerate_matches_subset_filter_oracle():
    for g in random_graphs(23, 30):
        enumerated = list(enumerate_connected_subgraphs(g))
        assert all(isinstance(s, int) for s in enumerated)
        assert len(enumerated) == len(set(enumerated)), "no duplicates"
        assert {nodes_of(s) for s in enumerated} == brute_force_connected_sets(g)


def test_enumeration_order_is_recursive_growth_order():
    for g in random_graphs(29, 10):
        assert [nodes_of(s) for s in enumerate_connected_subgraphs(g)] == recursive_growth_order(g)


def test_every_place_value_equals_from_scratch_psi():
    for g in random_graphs(31, 30):
        places, frontiers = _places(g)
        assert list(places) == list(enumerate_connected_subgraphs(g))
        for s, value in places.items():
            nodes = nodes_of(s)
            assert value == psi(g, nodes)
            assert nodes_of(frontiers[s]) == {j for i in nodes for j, _, _ in g.adj[i]} - nodes


def test_exact_minima_match_brute_force_reference():
    for g in random_graphs(37, 30):
        assert exact_local_minima(g) == reference_minima(g)


def test_enumeration_cap():
    g = load_edge_list(PATH3)
    with pytest.raises(TooLarge):
        list(enumerate_connected_subgraphs(g, max_nodes=2))
    assert len(list(enumerate_connected_subgraphs(g, max_nodes=None))) == 3


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


def test_greedy_minima_subset_of_exact_on_16_nodes():
    """Sparse 16-node graphs, unit and weighted, under both tie-break policies."""
    rng = random.Random(16)
    for make in (random_connected_graph, random_weighted_graph):
        for trial in range(3):
            g = make(rng, 16, 8)
            exact = set(exact_local_minima(g))
            assert exact
            for policy in (TieBreakPolicy(), TieBreakPolicy("random", trial)):
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

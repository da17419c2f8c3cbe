"""Shared fixtures: the karate benchmark, expected communities, random graphs."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import settings

from nodecut import MAX_WEIGHT_RATIO, WEIGHT_RANGE, Graph, karate_graph, run_all_seeds
from nodecut.datasets import KARATE_EDGE_LIST

# Tier-1 must give the same result on every run: derive hypothesis examples
# from each test's source rather than a random seed, and never fail a test
# for running slowly on a loaded machine.
settings.register_profile("nodecut", derandomize=True, deadline=None)
settings.load_profile("nodecut")

# Expected karate communities, keyed by their conventional names (ascending
# cut value). Node sets pinned by the benchmark's boundary facts; link counts
# and cut values are recomputed from the fixture in the tests that use them.
KARATE_NODES = {
    "C1": frozenset(str(i) for i in range(1, 35) if i not in (5, 6, 7, 11, 17)),
    "C2": frozenset(
        "3 9 10 14 15 16 19 20 21 23 24 25 26 27 28 29 30 31 32 33 34".split()
    ),
    "C3": frozenset("1 2 3 4 5 6 7 8 9 11 12 13 14 17 18 20 22 31 32".split()),
    "C4": frozenset("1 5 6 7 11 17".split()),
    "C5": frozenset("24 25 26 28 32".split()),
    "C6": frozenset("3 10 34".split()),
    "C7": frozenset("1 12".split()),
}

KARATE_PSI = {
    "C1": 0.022,
    "C2": 0.077,
    "C3": 0.091,
    "C4": 0.150,
    "C5": 0.294,
    "C6": 0.460,
    "C7": 0.469,
}

# (u, v) label pairs read straight from the karate edge-list text, so that
# counts made from them do not depend on the graph model.
KARATE_EDGE_PAIRS = [
    tuple(line.split())
    for line in KARATE_EDGE_LIST.splitlines()
    if line.strip() and not line.startswith("#")
]

KARATE_SEED_COUNTS = {"C1": 68, "C2": 40, "C3": 10, "C4": 10, "C5": 7, "C6": 2, "C7": 1}

TWO_TRIANGLES = "1 2\n1 3\n2 3\n3 4\n4 5\n4 6\n5 6\n"
PATH3 = "1 2\n2 3\n"

# weighted; 6 of its 15 seeds settle on the same set after every escape, at
# every rank, until the phase budget runs out
OSCILLATING = (
    "1 2 10\n1 3 10\n1 4 5\n1 5 1\n1 6 1\n1 8 1\n1 10 1\n3 4 1\n"
    "3 7 100\n5 6 1\n5 7 10\n6 8 1\n8 9 10\n8 10 100\n9 10 1\n"
)


@pytest.fixture(scope="session")
def karate() -> Graph:
    return karate_graph()


@pytest.fixture(scope="session")
def karate_result(karate):
    """Deterministic all-seeds detection on karate, shared across tests."""
    return run_all_seeds(karate)


@pytest.fixture(scope="session")
def karate_named(karate, karate_result):
    """name -> Community for the deterministic karate detection."""
    by_nodes = {
        frozenset(karate.labels[i] for i in c.nodes): c for c in karate_result.communities
    }
    assert set(by_nodes) == set(KARATE_NODES.values())
    return {name: by_nodes[nodes] for name, nodes in KARATE_NODES.items()}


def labels_of(g: Graph, indices) -> frozenset[str]:
    return frozenset(g.labels[i] for i in indices)


def indices_of(g: Graph, labels) -> frozenset[int]:
    return frozenset(g.index_of(lab) for lab in labels)


def random_connected_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """Random spanning tree on n nodes plus `extra` random additional links."""
    links = []
    seen = set()
    for i in range(1, n):
        j = rng.randrange(i)
        links.append((j, i, 1.0))
        seen.add((j, i))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in seen]
    rng.shuffle(pairs)
    for a, b in pairs[:extra]:
        links.append((a, b, 1.0))
    return Graph([str(i + 1) for i in range(n)], links)


def random_weighted_graph(rng: random.Random, n: int, extra: int) -> Graph:
    g = random_connected_graph(rng, n, extra)
    links = [
        (u, v, 0.25 + 2.0 * rng.random()) for (u, v) in g.link_ends
    ]
    return Graph(list(g.labels), links)


# (lightest weight, spread) pairs near both ends of WEIGHT_RANGE, spreads up to MAX_WEIGHT_RATIO
WEIGHT_EXTREMES = [
    (lightest, spread)
    for spread in (1e3, MAX_WEIGHT_RATIO)
    for lightest in (WEIGHT_RANGE[0], WEIGHT_RANGE[1] / spread)
]


def spread_weighted_graph(rng: random.Random, n: int, extra: int, lightest: float, spread: float) -> Graph:
    """random_connected_graph with weights lightest * spread**U(0, 1).

    The first link weighs lightest and the last lightest * spread, so every
    graph spans the whole spread.
    """
    g = random_connected_graph(rng, n, extra)
    weights = [lightest * spread ** rng.random() for _ in range(g.m)]
    weights[0], weights[-1] = lightest, lightest * spread
    return Graph(list(g.labels), [(u, v, w) for (u, v), w in zip(g.link_ends, weights)])


def fuzz_graph(k: int, lo: int, hi: int) -> Graph:
    """Graph k of the fuzz: from Random(k), n in lo..hi, extra in 0..n and a
    spread of 10 ** U(2, 12); a random_connected_graph(rng, n, extra), then
    link weights 10 ** U(0, log10(spread)) in link order.

    The small fuzz is k in range(3000) with n in 6..16, the large one k in
    range(600) with n in 17..40.
    """
    rng = random.Random(k)
    n = rng.randint(lo, hi)
    extra = rng.randint(0, n)
    spread = 10 ** rng.uniform(2, 12)
    g = random_connected_graph(rng, n, extra)
    links = [(u, v, 10 ** rng.uniform(0, math.log10(spread))) for u, v in g.link_ends]
    return Graph(list(g.labels), links)


def brute_force_connected_sets(g: Graph) -> set[frozenset[int]]:
    """All connected node sets with >= 2 nodes, by filtering every subset."""
    from nodecut import is_connected

    out = set()
    for r in range(2, g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            if is_connected(g, set(sub)):
                out.add(frozenset(sub))
    return out


def random_connected_subgraph(rng: random.Random, g: Graph, size: int) -> set[int]:
    """Grow a connected node set of the requested size by random expansion."""
    start = rng.randrange(g.n)
    current = {start}
    while len(current) < size:
        frontier = sorted(
            {j for i in current for j, _, _ in g.adj[i]} - current
        )
        if not frontier:
            break
        current.add(frontier[rng.randrange(len(frontier))])
    return current

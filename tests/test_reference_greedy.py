"""A from-scratch greedy, written from the rules in the nodecut.greedy module
docstring, against run_all_seeds move for move under the deterministic policy.

Every score here is psi(g, S ^ {x}) - psi(g, S), summed anew. There is no
SubgraphState, phase cache, descent memo or interning, and connectivity is
its own search. So a fault in one of the kernel's speed layers that changes
a move fails here on any graph, not only on the pinned digests.
"""

import random

import pytest

from nodecut import karate_graph, load_edge_list, psi, run_all_seeds
from nodecut.psi import MOVE_TOL
from conftest import OSCILLATING, fuzz_graph, random_connected_graph

NO_MOVE = (float("inf"), None)


def has_link(g, nodes):
    return any(j in nodes for i in nodes for j, _, _ in g.adj[i])


def connected(g, nodes):
    start = next(iter(nodes))
    seen, stack = {start}, [start]
    while stack:
        for j, _, _ in g.adj[stack.pop()]:
            if j in nodes and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(nodes)


def scored(g, nodes, moves):
    """(psi change, label rank, node) of toggling each move x in or out of
    nodes, for the moves that leave an internal link, in (change, label) order."""
    value = psi(g, nodes)
    return sorted((psi(g, nodes ^ {x}) - value, g.rank[x], x) for x in moves if has_link(g, nodes ^ {x}))


def frontier(g, nodes):
    return {j for i in nodes for j, _, _ in g.adj[i]} - nodes


def best_add(g, nodes):
    """(smallest change, the smallest label within MOVE_TOL of it), or NO_MOVE."""
    moves = scored(g, nodes, frontier(g, nodes))
    if not moves:
        return NO_MOVE
    best = moves[0][0]
    return best, min((m for m in moves if m[0] <= best + MOVE_TOL), key=lambda m: m[1])[2]


def reference_run(g, link_id):
    """(action, node) rows and minima of the deterministic run from one seed link."""
    nodes = set(g.link_ends[link_id])
    rows, minima, visits = [], [], {}

    def add(x):
        nodes.add(x)
        rows.append(("add", x))

    def settle():  # descend, prune, and descend again while pruning made an addition downhill
        while True:
            while (best := best_add(g, nodes))[0] < -MOVE_TOL:
                add(best[1])
            pruned = False
            while True:
                downhill = [x for change, _, x in scored(g, nodes, nodes) if change < -MOVE_TOL]
                x = next((x for x in downhill if connected(g, nodes - {x})), None)
                if x is None:
                    break
                nodes.remove(x)
                rows.append(("remove", x))
                pruned = True
            if not pruned or not best_add(g, nodes)[0] < -MOVE_TOL:
                return

    settle()
    phases = 0
    while True:
        key = frozenset(nodes)
        seen = visits.get(key, 0)
        visits[key] = seen + 1
        if seen == 0 and psi(g, key) > 0.0:
            minima.append(key)
            rows.append(("record-minimum", None))
        front = frontier(g, nodes)
        width = len(front)
        phases += 1
        if not width or phases > max(10 * g.n, 100):
            return rows, minima
        # escape: the best addition, or on a revisit the one at place `seen`
        if seen:
            add(scored(g, nodes, front)[min(seen, width - 1)][2])
        else:
            add(best_add(g, nodes)[1])
        for _ in range(seen - (width - 1)):  # visits past the last rank force further adds
            if (best := best_add(g, nodes))[1] is not None:
                add(best[1])
        while (best := best_add(g, nodes))[1] is not None and not best[0] < -MOVE_TOL:
            add(best[1])
        settle()


def assert_runs_agree(g):
    for traj in run_all_seeds(g).trajectories:
        rows, minima = reference_run(g, traj.link_id)
        assert [(action, node) for _, action, node, _, _ in traj.steps] == rows, traj.link_id
        assert traj.minima == minima, traj.link_id


GRAPHS = {
    "karate": karate_graph,
    "oscillating": lambda: load_edge_list(OSCILLATING, weighted=True),
    **{f"unit-n30-{s}": lambda s=s: random_connected_graph(random.Random(s), 30, 30) for s in range(10)},
}


@pytest.mark.parametrize("name", GRAPHS)
def test_kernel_runs_are_the_reference_runs(name):
    assert_runs_agree(GRAPHS[name]())


@pytest.mark.parametrize("start", range(0, 150, 50))
def test_kernel_runs_are_the_reference_runs_on_the_small_fuzz(start):
    for k in range(start, start + 50):
        assert_runs_agree(fuzz_graph(k, 6, 16))

"""Exhaustive landscape ground truth and local-minimum certificates.

The landscape has one place per connected node set with at least one internal
link; places are related by single-node additions/removals. Exhaustive
enumeration is exponential and therefore capped; verify_local_minimum checks
a single place directly and works at any graph size.
"""

from __future__ import annotations

from typing import Iterator

from .errors import TooLarge
from .graph import Graph, is_connected, minimum_sort_key
from .psi import MOVE_TOL, SubgraphState, psi

__all__ = [
    "DEFAULT_MAX_NODES",
    "enumerate_connected_subgraphs",
    "exact_local_minima",
    "verify_local_minimum",
]

DEFAULT_MAX_NODES = 16


def enumerate_connected_subgraphs(
    g: Graph, max_nodes: int = DEFAULT_MAX_NODES, force: bool = False
) -> Iterator[frozenset[int]]:
    """Every connected node set with >= 2 nodes (so >= 1 internal link), exactly once.

    Sets are grown from each anchor node using only higher-indexed nodes, with
    a banned set to make each extension unique. Raises TooLarge when the graph
    exceeds max_nodes and force is not set.
    """
    if g.n > max_nodes and not force:
        raise TooLarge(f"{g.n} nodes exceeds the enumeration cap {max_nodes}")
    nbrs = [frozenset(j for j, _, _ in g.adj[i]) for i in range(g.n)]

    def grow(current: frozenset[int], banned: set[int]) -> Iterator[frozenset[int]]:
        if len(current) >= 2:
            yield current
        frontier = sorted(
            {j for i in current for j in nbrs[i]} - current - banned
        )
        local_banned = set(banned)
        for u in frontier:
            yield from grow(current | {u}, local_banned)
            local_banned.add(u)

    for anchor in range(g.n):
        # anchor is the smallest index of every set grown from it
        yield from grow(frozenset({anchor}), set(range(anchor)))


def exact_local_minima(
    g: Graph, max_nodes: int = DEFAULT_MAX_NODES, force: bool = False
) -> list[frozenset[int]]:
    """Node sets of every strict local minimum of the landscape, ground states excluded.

    A place is a minimum when no neighboring place (one node added, or one
    node removed with the set staying connected and keeping a link) has a
    strictly smaller cut value. Places with value 0 are whole components and
    are reported as ground states elsewhere, not communities.
    """
    places = {s: psi(g, s) for s in enumerate_connected_subgraphs(g, max_nodes, force)}
    nbrs = [frozenset(j for j, _, _ in g.adj[i]) for i in range(g.n)]
    minima = []
    for s, value in places.items():
        if value == 0.0:
            continue
        frontier = {j for i in s for j in nbrs[i]} - s
        if any(places[s | {x}] < value - MOVE_TOL for x in frontier):
            continue
        down_ok = True
        for x in s:
            smaller = places.get(s - {x})
            if smaller is not None and smaller < value - MOVE_TOL:
                down_ok = False
                break
        if down_ok:
            minima.append(s)
    minima.sort(key=lambda s: minimum_sort_key(g, places[s], s))
    return minima


def verify_local_minimum(g: Graph, nodes) -> bool:
    """Direct certificate: no single addition and no legal single removal goes downhill.

    Legal removals keep the set connected and keep at least one internal
    link. Runs in O((|C| + |frontier|) * deg), so it is usable on graphs far
    beyond the enumeration cap.
    """
    state = SubgraphState(g, nodes)
    value = state.psi
    for x in state.frontier:
        if state.psi_after_add(x) < value - MOVE_TOL:
            return False
    for x in sorted(state.members):
        after = state.psi_after_remove(x)
        if after is None or after >= value - MOVE_TOL:
            continue
        if is_connected(g, state.members - {x}):
            return False
    return True

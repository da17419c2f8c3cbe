"""Exhaustive landscape ground truth and local-minimum certificates.

The landscape has one place per connected node set with at least one internal
link; places are related by single-node additions/removals. Exhaustive
enumeration is exponential and therefore capped; verify_local_minimum checks
a single place directly and works at any graph size.

The oracle works on int bitsets: bit i of a mask is node index i. The
enumerator yields masks, places are keyed by mask, neighboring places are
s | bit and s ^ bit, and a set's frontier is the OR of its members' neighbor
masks less the set.

Each place's psi is summed from scratch over its members in ascending index
order, as psi.sigma_and_k_in does. A member i contributes its internal
weight w_in and, when some of its weight leaves the set, w_in * w_out / k_i.
That pair depends only on which of i's neighbors are members, s & N(i), and
is computed in i's adjacency order, so it is memoised per node keyed by that
pattern. A memo hit returns the very floats a fresh computation would, hence
every place's value is the same float as psi(g, nodes); no running totals
are carried from one place to the next, and no SubgraphState code is used,
which keeps the oracle an independent check of the incremental scoring.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import TooLarge
from .graph import Graph, is_connected, minimum_sort_key
from .psi import MOVE_TOL, SubgraphState

__all__ = [
    "DEFAULT_MAX_NODES",
    "enumerate_connected_subgraphs",
    "exact_local_minima",
    "verify_local_minimum",
]

DEFAULT_MAX_NODES = 16


def _neighbor_masks(g: Graph) -> list[int]:
    return [sum(1 << j for j, _, _ in g.adj[i]) for i in range(g.n)]


def enumerate_connected_subgraphs(
    g: Graph, max_nodes: int = DEFAULT_MAX_NODES, force: bool = False
) -> Iterator[int]:
    """Mask of every connected node set with >= 2 nodes (so >= 1 internal link), exactly once.

    Sets are grown depth-first from each anchor node using only
    higher-indexed nodes. A set's extensions are tried in ascending node
    order, and each one bans the frontier nodes tried before it, which makes
    every extension unique. Raises TooLarge when the graph exceeds max_nodes
    and force is not set.
    """
    if g.n > max_nodes and not force:
        raise TooLarge(f"{g.n} nodes exceeds the enumeration cap {max_nodes}")
    nbr = _neighbor_masks(g)
    for anchor in range(g.n):
        # (set, banned, OR of the members' neighbor masks); anchor is the
        # smallest index of every set grown from it
        stack = [(1 << anchor, (1 << anchor) - 1, nbr[anchor])]
        while stack:
            current, banned, reach = stack.pop()
            if current & (current - 1):
                yield current
            rest = reach & ~(current | banned)
            # push the largest extension first so the smallest is grown first;
            # after taking node i off, rest holds the frontier nodes below i
            while rest:
                i = rest.bit_length() - 1
                rest ^= 1 << i
                stack.append((current | 1 << i, banned | rest, reach | nbr[i]))


def _places(
    g: Graph, max_nodes: int = DEFAULT_MAX_NODES, force: bool = False
) -> tuple[dict[int, float], dict[int, int]]:
    """(psi of every place, frontier mask of every place), both keyed by mask."""
    nbr = _neighbor_masks(g)
    adj, degrees = g.adj, g.degrees
    terms: list[dict[int, tuple[float, float]]] = [{} for _ in range(g.n)]

    def term(i: int, pattern: int) -> tuple[float, float]:
        """(w_in, sigma term) of member i whose member neighbors are pattern."""
        w_in = 0.0
        for j, w, _ in adj[i]:
            if pattern >> j & 1:
                w_in += w
        w_out = degrees[i] - w_in
        # adding 0.0 to the non-negative sigma leaves it unchanged
        terms[i][pattern] = pair = (w_in, w_in * w_out / degrees[i] if w_out > 0.0 else 0.0)
        return pair

    places: dict[int, float] = {}
    frontiers: dict[int, int] = {}
    for s in enumerate_connected_subgraphs(g, max_nodes, force):
        sigma = 0.0
        k_in = 0.0
        reach = 0
        rest = s
        while rest:  # members in ascending index order
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            pattern = s & nbr[i]
            w_in, part = terms[i].get(pattern) or term(i, pattern)
            k_in += w_in
            sigma += part
            reach |= nbr[i]
        places[s] = sigma / k_in
        frontiers[s] = reach & ~s
    return places, frontiers


def exact_local_minima(
    g: Graph, max_nodes: int = DEFAULT_MAX_NODES, force: bool = False
) -> list[frozenset[int]]:
    """Node sets of every strict local minimum of the landscape, ground states excluded.

    A place is a minimum when no neighboring place (one node added, or one
    node removed with the set staying connected and keeping a link) has a
    strictly smaller cut value. Places with value 0 are whole components and
    are reported as ground states elsewhere, not communities.
    """
    places, frontiers = _places(g, max_nodes, force)
    minima = []
    for s, value in places.items():
        if value == 0.0:
            continue
        bound = value - MOVE_TOL
        rest = frontiers[s]
        while rest:  # additions
            low = rest & -rest
            rest ^= low
            if places[s | low] < bound:
                break
        else:
            rest = s
            while rest:  # removals; one that disconnects the set or leaves no link is no place
                low = rest & -rest
                rest ^= low
                if places.get(s ^ low, bound) < bound:
                    break
            else:
                minima.append(s)
    found = {frozenset(i for i in range(g.n) if s >> i & 1): places[s] for s in minima}
    return sorted(found, key=lambda nodes: minimum_sort_key(g, found[nodes], nodes))


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

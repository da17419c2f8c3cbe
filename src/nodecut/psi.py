"""Normalised node cut of a subgraph, from scratch and under incremental moves.

For a node set C the cut value is

    psi(C) = (1 / k_in(C)) * sum over members i of k_i_in(C) * k_i_out(C) / k_i

where k_i_in / k_i_out split node i's degree into weight kept inside C and
weight leaving C, and k_in(C) is the total internal degree (every internal
link counted from both ends). Only boundary members contribute to the sum,
and psi is always in [0, 1) when C has at least one internal link.

SubgraphState keeps the numerator sigma and k_in up to date in O(deg) per
single-node move, using exact difference formulas for sigma:

    add i:    sum over member neighbors j of w_ij*(2*k_j_out - w_ij)/k_j  -  k_i_in^2/k_i
    remove i: k_i_in^2/k_i  -  sum over member neighbors j of w_ij*(2*k_j_out + w_ij)/k_j

with k_in changing by +-2 * k_i_in(C). Internal link counts are tracked as
integers so frontier membership and the k_in > 0 guard never depend on
floating-point residue.

The state also caches one exact sigma delta per node: the add delta of a
frontier node, the remove delta of a member. Node i's delta reads only the
members among its neighbors, their k_j_in, and k_i_in. A move of x changes
x's role, the membership seen by x's neighbors and k_j_in of x's neighbors,
so it invalidates exactly x, N(x), and N(j) for every member neighbor j of
x: the ball of radius two around x. recompute() drops only the deltas that
read an in_w its refresh changed (none on unit weights, whose sums are
exact). A stale entry is recomputed with the delta formula above, in
adjacency order, so a score from a cached delta is the same float
psi_after_* returns.
"""

from __future__ import annotations

from .errors import NotAMember, NotANeighbor, ZeroInternalDegree
from .graph import Graph

__all__ = ["MOVE_TOL", "psi", "sigma_and_k_in", "SubgraphState"]

# A move only counts as downhill when it clears this absolute margin.
MOVE_TOL = 1e-12


def sigma_and_k_in(g: Graph, nodes) -> tuple[float, float]:
    """From-scratch (sigma, k_in) of a node set."""
    member = set(nodes)
    sigma = 0.0
    k_in = 0.0
    for i in sorted(member):  # fixed summation order keeps results run-to-run identical
        w_in = 0.0
        for j, w, _ in g.adj[i]:
            if j in member:
                w_in += w
        k_in += w_in
        w_out = g.degrees[i] - w_in
        if w_out > 0.0:
            sigma += w_in * w_out / g.degrees[i]
    return sigma, k_in


def psi(g: Graph, nodes) -> float:
    """Normalised node cut of a node set; raises ZeroInternalDegree if it has no internal link."""
    sigma, k_in = sigma_and_k_in(g, nodes)
    if k_in == 0.0:
        raise ZeroInternalDegree(f"node set of size {len(set(nodes))} has no internal links")
    return sigma / k_in


class SubgraphState:
    """Mutable subgraph tracker supporting O(deg) add/remove move evaluation.

    Single-owner: one state per search run. The underlying Graph is shared
    and never mutated. in_w/in_cnt are maintained for every node so both
    members and frontier nodes can be scored without recomputation.

    delta[i] caches node i's exact sigma delta: the add delta of a frontier
    node, the remove delta of a member, None when stale (always None for
    other nodes). A move of x marks stale x, every neighbor of x, and every
    neighbor of a member neighbor of x; recompute() marks stale each node
    whose refreshed in_w differs, and every neighbor of such a member.
    best_add() and remove_scores() score all candidate moves, recomputing
    only stale deltas, and the moves reuse a cached delta.
    """

    __slots__ = ("g", "members", "frontier", "in_w", "in_cnt", "links_in", "sigma", "k_in", "delta")

    def __init__(self, g: Graph, nodes):
        self.g = g
        self.members = set(nodes)
        if not self.members:
            raise ZeroInternalDegree("empty node set")
        self._rebuild()
        if self.links_in == 0:
            raise ZeroInternalDegree(f"node set {sorted(self.members)} has no internal links")

    def _rebuild(self):
        """Recompute every cached quantity from the member set."""
        g = self.g
        self.in_w = [0.0] * g.n
        self.in_cnt = [0] * g.n
        self.delta = [None] * g.n
        order = sorted(self.members)  # sum order must not depend on the set's history
        for i in order:
            for j, w, _ in g.adj[i]:
                self.in_w[j] += w
                self.in_cnt[j] += 1
        self.frontier = {
            j for j in range(g.n) if self.in_cnt[j] > 0 and j not in self.members
        }
        links_in = 0
        sigma = 0.0
        k_in = 0.0
        for i in order:  # fixed summation order, as in sigma_and_k_in
            links_in += self.in_cnt[i]
            k_in += self.in_w[i]
            w_out = g.degrees[i] - self.in_w[i]
            if w_out > 0.0:
                sigma += self.in_w[i] * w_out / g.degrees[i]
        self.links_in = links_in // 2
        self.sigma = sigma
        self.k_in = k_in

    @property
    def psi(self) -> float:
        if self.links_in == 0:
            raise ZeroInternalDegree("no internal links")
        return self.sigma / self.k_in if self.sigma > 0.0 else 0.0

    def nodes(self) -> frozenset[int]:
        return frozenset(self.members)

    def _add_delta(self, i: int) -> float:
        """Exact change of sigma if frontier node i joined the set; unchecked."""
        g = self.g
        members, in_w, degrees = self.members, self.in_w, g.degrees
        acc = 0.0
        for j, w, _ in g.adj[i]:
            if j in members:
                acc += w * (2.0 * (degrees[j] - in_w[j]) - w) / degrees[j]
        return acc - in_w[i] * in_w[i] / degrees[i]

    def _remove_delta(self, i: int) -> float:
        """Exact change of sigma if member i left the set; unchecked."""
        g = self.g
        members, in_w, degrees = self.members, self.in_w, g.degrees
        acc = 0.0
        for j, w, _ in g.adj[i]:
            if j in members:
                acc += w * (2.0 * (degrees[j] - in_w[j]) + w) / degrees[j]
        return in_w[i] * in_w[i] / degrees[i] - acc

    def psi_after_add(self, i: int) -> float:
        """Cut value after adding external neighbor i."""
        if i not in self.frontier:
            raise NotANeighbor(f"node {self.g.labels[i]} is not an external neighbor of the set")
        sigma = self.sigma + self._add_delta(i)
        return sigma / (self.k_in + 2.0 * self.in_w[i]) if sigma > 0.0 else 0.0

    def psi_after_remove(self, i: int) -> float | None:
        """Cut value after removing member i, or None when no internal link would remain."""
        if i not in self.members:
            raise NotAMember(f"node {self.g.labels[i]} is not a member")
        if self.links_in == self.in_cnt[i]:
            return None
        sigma = self.sigma + self._remove_delta(i)
        return sigma / (self.k_in - 2.0 * self.in_w[i]) if sigma > 0.0 else 0.0

    def best_add(self) -> tuple[float, list[int]]:
        """Smallest psi change over the frontier, and the nodes within MOVE_TOL of it in node order.

        One unsorted pass: each change is the float psi_after_add(x) - psi, and
        only stale deltas are recomputed. (inf, []) when the frontier is empty.
        """
        delta, in_w, sigma, k_in = self.delta, self.in_w, self.sigma, self.k_in
        members, adj, degrees = self.members, self.g.adj, self.g.degrees
        value = self.psi
        best = bound = float("inf")
        tied = []
        for x in self.frontier:
            d = delta[x]
            if d is None:  # _add_delta, inlined: most steps recompute several
                d = 0.0
                for j, w, _ in adj[x]:
                    if j in members:
                        d += w * (2.0 * (degrees[j] - in_w[j]) - w) / degrees[j]
                d = delta[x] = d - in_w[x] * in_w[x] / degrees[x]
            after = sigma + d
            change = (after / (k_in + 2.0 * in_w[x]) if after > 0.0 else 0.0) - value
            if change <= bound:
                if change < best:
                    best, bound = change, change + MOVE_TOL
                    tied = [c for c in tied if c[0] <= bound]
                tied.append((change, x))
        return best, sorted(x for _, x in tied)

    def remove_scores(self) -> list[tuple[float, int]]:
        """(psi change if removed, node) for every member whose removal keeps an
        internal link, in node order.

        Each change is the float psi_after_remove(x) - psi; only stale deltas
        are recomputed.
        """
        delta, in_w, in_cnt, sigma, k_in = self.delta, self.in_w, self.in_cnt, self.sigma, self.k_in
        links_in = self.links_in
        value = self.psi
        scores = []
        for x in sorted(self.members):
            if in_cnt[x] == links_in:
                continue
            d = delta[x]
            if d is None:
                d = delta[x] = self._remove_delta(x)
            after = sigma + d
            scores.append(((after / (k_in - 2.0 * in_w[x]) if after > 0.0 else 0.0) - value, x))
        return scores

    def _mark_stale(self, x: int) -> None:
        """Drop every cached delta a move of x changed: x, N(x), and N(j) for
        each member neighbor j of x."""
        delta, members, adj = self.delta, self.members, self.g.adj
        delta[x] = None
        for j, _, _ in adj[x]:
            delta[j] = None
            if j in members:
                for k, _, _ in adj[j]:
                    delta[k] = None

    def apply_add(self, i: int) -> None:
        if i not in self.frontier:
            raise NotANeighbor(f"node {self.g.labels[i]} is not an external neighbor of the set")
        d = self.delta[i]
        self.sigma += self._add_delta(i) if d is None else d
        self.k_in += 2.0 * self.in_w[i]
        self.links_in += self.in_cnt[i]
        self.members.add(i)
        self.frontier.discard(i)
        for j, w, _ in self.g.adj[i]:
            self.in_w[j] += w
            self.in_cnt[j] += 1
            if j not in self.members and j not in self.frontier:
                self.frontier.add(j)
        self._mark_stale(i)

    def apply_remove(self, i: int) -> None:
        if i not in self.members:
            raise NotAMember(f"node {self.g.labels[i]} is not a member")
        if self.links_in == self.in_cnt[i]:
            raise ZeroInternalDegree("removal would leave no internal links")
        d = self.delta[i]
        self.sigma += self._remove_delta(i) if d is None else d
        self.k_in -= 2.0 * self.in_w[i]
        self.links_in -= self.in_cnt[i]
        self.members.remove(i)
        for j, w, _ in self.g.adj[i]:
            self.in_w[j] -= w
            self.in_cnt[j] -= 1
            if self.in_cnt[j] == 0:
                self.in_w[j] = 0.0  # clear residue so frontier tests stay exact
                self.frontier.discard(j)
        if self.in_cnt[i] > 0:
            self.frontier.add(i)
        self._mark_stale(i)

    def recompute(self) -> float:
        """Refresh every sum from scratch; returns the exact psi.

        The refreshed sums depend on the node set alone, not on the moves
        that led to it. A cached delta survives when the refresh left every
        in_w it reads as it was, so it is still exact.
        """
        in_w, delta = self.in_w, self.delta
        self._rebuild()
        members, adj = self.members, self.g.adj
        for x, (old, new) in enumerate(zip(in_w, self.in_w)):
            if old != new:
                delta[x] = None
                if x in members:  # its neighbors' deltas read its in_w
                    for j, _, _ in adj[x]:
                        delta[j] = None
        self.delta = delta
        return self.psi

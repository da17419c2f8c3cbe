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
    """

    __slots__ = ("g", "members", "frontier", "in_w", "in_cnt", "links_in", "sigma", "k_in")

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

    def delta_sigma_add(self, i: int) -> float:
        """Exact change of sigma if external neighbor i joined the set."""
        if i in self.members:
            raise NotANeighbor(f"node {self.g.labels[i]} is already a member")
        if self.in_cnt[i] == 0:
            raise NotANeighbor(f"node {self.g.labels[i]} is not adjacent to the set")
        g = self.g
        acc = 0.0
        for j, w, _ in g.adj[i]:
            if j in self.members:
                acc += w * (2.0 * (g.degrees[j] - self.in_w[j]) - w) / g.degrees[j]
        return acc - self.in_w[i] * self.in_w[i] / g.degrees[i]

    def delta_sigma_remove(self, i: int) -> float:
        """Exact change of sigma if member i left the set."""
        if i not in self.members:
            raise NotAMember(f"node {self.g.labels[i]} is not a member")
        g = self.g
        acc = 0.0
        for j, w, _ in g.adj[i]:
            if j in self.members:
                acc += w * (2.0 * (g.degrees[j] - self.in_w[j]) + w) / g.degrees[j]
        return self.in_w[i] * self.in_w[i] / g.degrees[i] - acc

    def psi_after_add(self, i: int) -> float:
        sigma = self.sigma + self.delta_sigma_add(i)
        return sigma / (self.k_in + 2.0 * self.in_w[i]) if sigma > 0.0 else 0.0

    def psi_after_remove(self, i: int) -> float | None:
        """Cut value after removing i, or None when no internal link would remain."""
        if i not in self.members:
            raise NotAMember(f"node {self.g.labels[i]} is not a member")
        if self.links_in == self.in_cnt[i]:
            return None
        sigma = self.sigma + self.delta_sigma_remove(i)
        return sigma / (self.k_in - 2.0 * self.in_w[i]) if sigma > 0.0 else 0.0

    def apply_add(self, i: int) -> None:
        self.sigma += self.delta_sigma_add(i)
        self.k_in += 2.0 * self.in_w[i]
        self.links_in += self.in_cnt[i]
        self.members.add(i)
        self.frontier.discard(i)
        for j, w, _ in self.g.adj[i]:
            self.in_w[j] += w
            self.in_cnt[j] += 1
            if j not in self.members and j not in self.frontier:
                self.frontier.add(j)

    def apply_remove(self, i: int) -> None:
        if i not in self.members:
            raise NotAMember(f"node {self.g.labels[i]} is not a member")
        if self.links_in == self.in_cnt[i]:
            raise ZeroInternalDegree("removal would leave no internal links")
        self.sigma += self.delta_sigma_remove(i)
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
        else:
            self.frontier.discard(i)

    def recompute(self) -> float:
        """Force a from-scratch refresh of all caches; returns the exact psi.

        The refreshed state depends on the node set alone, not on the moves
        that led to it.
        """
        self._rebuild()
        return self.psi

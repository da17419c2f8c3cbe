"""Weighted line graph and the cut equivalence check.

Links of the original graph become vertices. Two links k and l sharing
endpoint i contribute w_k * w_l / k_i to their connection (Evans and
Lambiotte, "Line graphs of weighted networks for overlapping communities",
Eur. Phys. J. B 77, 265, 2010), so the line-graph adjacency is

    E[k, l] = sum over nodes i of B[i, k] * B[i, l] * w_k * w_l / k_i

with B the n x m node-link incidence matrix and k_i the weighted degree of
i. Diagonal entries E[k, k] = w_k**2 / k_i + w_k**2 / k_j for link k = (i, j)
are kept: the conductance sums below range over all pairs, and dropping the
diagonal breaks the equivalence between the line-graph cut and the
normalised node cut. The line-graph degree of link k is 2 * w_k, so the
maximal link set of a node set C has total degree k_in(C) and cut
sum over members i of k_i_in(C) * k_i_out(C) / k_i: phi(L(C)) = psi(C) for
every weight. With unit weights each entry is 1/k_i per shared endpoint.
"""

from __future__ import annotations

from .errors import ZeroInternalDegree
from .graph import Graph, induced_links, plain_sum
from .psi import psi

__all__ = [
    "LineGraph",
    "build_line_graph",
    "phi",
    "check_equivalence",
]


class LineGraph:
    """Sparse symmetric line-graph adjacency with diagonal, plus degree sums."""

    __slots__ = ("m", "rows", "degree")

    def __init__(self, m: int, rows: list[dict[int, float]]):
        self.m = m
        self.rows = rows
        self.degree = tuple(plain_sum(r.values()) for r in rows)

    def entries(self):
        """Yield (k, l, weight) once per unordered pair, k <= l."""
        for k, row in enumerate(self.rows):
            for l, w in sorted(row.items()):
                if l >= k:
                    yield k, l, w


def build_line_graph(g: Graph) -> LineGraph:
    """Line-graph adjacency E with entries w_k * w_l / k_i per shared endpoint i, diagonal included."""
    rows: list[dict[int, float]] = [{} for _ in range(g.m)]
    for i in range(g.n):
        k_i = g.degrees[i]
        incident = [(lid, w) for _, w, lid in g.adj[i]]
        for k, w_k in incident:
            row = rows[k]
            for l, w_l in incident:
                row[l] = row.get(l, 0.0) + w_k * w_l / k_i
    return LineGraph(g.m, rows)


def phi(lg: LineGraph, links) -> float:
    """Ordinary normalised cut of a link set in the line graph.

    K_in sums E[k, l] over pairs inside the set, K_out over pairs leaving it,
    both including diagonal terms; returns K_out / (K_in + K_out).
    """
    member = set(links)
    k_total = 0.0
    k_in = 0.0
    for k in member:
        k_total += lg.degree[k]
        row = lg.rows[k]
        for l, w in row.items():
            if l in member:
                k_in += w
    if k_total == 0.0:
        raise ZeroInternalDegree("link set has zero total degree")
    return max(k_total - k_in, 0.0) / k_total


def check_equivalence(g: Graph, nodes, lg: LineGraph) -> float:
    """|phi(L(C)) - psi(C)| for the maximal link set of a node set; lg is g's line graph.

    The two sides are computed along independent paths (line-graph sums vs
    the direct degree formula); the result should be < 1e-10 for any
    connected node set with an internal link, whatever the link weights.
    """
    links = induced_links(g, nodes)
    if not links:
        raise ZeroInternalDegree("node set has no internal links")
    return abs(phi(lg, links) - psi(g, nodes))

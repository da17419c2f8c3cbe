"""Undirected weighted graph model, edge-list ingestion, and subgraph queries.

Nodes are referred to by dense internal indices 0..n-1 everywhere in the
library; the original edge-list labels are kept on the graph and used for
all user-facing output. Node sets and link sets are plain Python sets of
internal indices and link ids.

Community, the record the search, the report and the hierarchy share, lives
here too, so a command that only reads a report loads no search code.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple

from .errors import EdgeListError

__all__ = [
    "MAX_WEIGHT_RATIO",
    "WEIGHT_RANGE",
    "ROOT",
    "Graph",
    "Community",
    "load_edge_list",
    "edge_list_text",
    "induced_links",
    "is_connected",
    "boundary_nodes",
    "connected_components",
    "label_sort_key",
    "minimum_sort_key",
    "dot_text",
]


# Largest accepted ratio of the heaviest to the lightest link weight; see Graph.__init__.
MAX_WEIGHT_RATIO = 1e12
# Smallest and largest accepted link weight; see Graph.__init__.
WEIGHT_RANGE = (1e-100, 1e100)
# Name of the whole-graph community: the hierarchy's root, and a report's included ground state.
ROOT = "C0"


def plain_sum(values) -> float:
    """Float sum, left to right with one rounding per addition.

    The += order of psi's k_in and in_w and of linegraph's phi. Since Python
    3.12 the builtin sum() of floats is compensated, so it can differ from
    those sums in the last bit, and reports would depend on the version.
    """
    total = 0.0
    for x in values:
        total += x
    return total


def label_sort_key(label: str):
    """Sort key ordering numeric labels numerically, everything else lexically."""
    try:
        return (0, int(label), "")
    except ValueError:
        return (1, 0, label)


def minimum_sort_key(g: Graph, value: float, nodes) -> tuple:
    """Order of detected and exact minima alike: psi, larger sets first, then labels."""
    return (value, -len(nodes), sorted(g.rank[i] for i in nodes))


def dot_text(text: str) -> str:
    """text inside a DOT double-quoted string: backslash and quote escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


class Graph:
    """Immutable undirected weighted graph.

    Attributes:
        n: node count.
        m: link count.
        labels: original label per internal index.
        adj: per-node tuple of (neighbor, weight, link_id), sorted by neighbor.
        degrees: total incident weight per node.
        link_ends: (u, v) endpoint pair per link id, u < v.
        link_weights: weight per link id.
        order: node indices in label order: numeric labels first and
            numerically, then other labels lexically, equal keys by index
            (first appearance in the edge list).
        rank: position of each node index in order. Greedy tie-breaks and
            every output list read this one label order.
        components: number of connected components.
        unit_weighted: whether every link weight is exactly 1.
    """

    __slots__ = (
        "n", "m", "labels", "adj", "degrees", "link_ends", "link_weights",
        "order", "rank", "components", "unit_weighted", "_index",
    )

    def __init__(self, labels, links):
        """Build from a label list and (u, v, weight) triples over internal indices.

        Endpoints must be distinct and already deduplicated; use load_edge_list
        for raw text with duplicate or comment handling.

        Weights must lie in WEIGHT_RANGE and at most MAX_WEIGHT_RATIO apart.
        psi multiplies two weight sums, so beyond about 1e154 the product
        overflows to inf and below about 1e-162 it underflows to 0; the range
        keeps those products far from both ends on any graph that fits in
        memory, and no degree can overflow.
        Above a ratio of 2**53 a light link vanishes from a float sum holding a
        heavy one, so a removal's remaining internal degree can cancel to 0 and
        its score divide by zero. 1e12 leaves a factor of about 9000 for the
        rounding error summed over links and moves, and is the ratio at which a
        light link's share of psi falls to MOVE_TOL, below which moves tie anyway.
        """
        n = len(labels)
        ends = []
        weights = []
        nbrs = [[] for _ in range(n)]
        for lid, (u, v, w) in enumerate(links):
            if u == v:
                raise EdgeListError(f"self-loop at node {labels[u]!r}")
            if not math.isfinite(w):
                raise EdgeListError(f"non-finite weight on link ({labels[u]}, {labels[v]})")
            if not (w > 0.0):
                raise EdgeListError(f"non-positive weight on link ({labels[u]}, {labels[v]})")
            if not WEIGHT_RANGE[0] <= w <= WEIGHT_RANGE[1]:
                raise EdgeListError(
                    f"weight {w!r} on link ({labels[u]}, {labels[v]}) is outside "
                    f"[{WEIGHT_RANGE[0]:g}, {WEIGHT_RANGE[1]:g}]"
                )
            a, b = (u, v) if u < v else (v, u)
            ends.append((a, b))
            weights.append(float(w))
            nbrs[a].append((b, float(w), lid))
            nbrs[b].append((a, float(w), lid))
        if weights:
            (hi, (a, b)), (lo, (c, d)) = max(zip(weights, ends)), min(zip(weights, ends))
            if hi > MAX_WEIGHT_RATIO * lo:
                raise EdgeListError(
                    f"weight {hi!r} on link ({labels[a]}, {labels[b]}) is more than "
                    f"{MAX_WEIGHT_RATIO:g} times weight {lo!r} on link ({labels[c]}, {labels[d]})"
                )
        self.n = n
        self.m = len(ends)
        self.labels = tuple(str(x) for x in labels)
        self.adj = tuple(tuple(sorted(lst)) for lst in nbrs)
        self.degrees = tuple(plain_sum(w for _, w, _ in lst) for lst in self.adj)
        self.link_ends = tuple(ends)
        self.link_weights = tuple(weights)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self.order = tuple(sorted(range(n), key=lambda i: label_sort_key(self.labels[i])))
        self.rank = tuple(sorted(range(n), key=self.order.__getitem__))  # inverse of order
        self.components = len(connected_components(self))
        self.unit_weighted = all(w == 1.0 for w in weights)

    def index_of(self, label: str) -> int:
        """Internal index of a node label; KeyError if unknown."""
        return self._index[str(label)]

    def find_link(self, u_label: str, v_label: str) -> int:
        """Link id joining two labels; KeyError if the link does not exist."""
        v = self.index_of(v_label)
        for j, _, lid in self.adj[self.index_of(u_label)]:
            if j == v:
                return lid
        raise KeyError(f"no link ({u_label}, {v_label})")

    def link_label_pair(self, lid: int) -> tuple[str, str]:
        u, v = self.link_ends[lid]
        return (self.labels[u], self.labels[v])


def load_edge_list(text, weighted: bool = False) -> Graph:
    """Parse whitespace-delimited edge-list text into a Graph.

    Each non-empty line is "u v" (or "u v w" when weighted=True); '#' starts
    a comment running to end of line; labels are arbitrary tokens. Duplicate
    links are merged by summing weights, with a warning. Self-loops,
    non-positive or non-finite weights (inf, nan, or a number too large for
    a float), merged weights that overflow, and short lines are rejected
    with the line number.
    Weights outside WEIGHT_RANGE or further apart than MAX_WEIGHT_RATIO are
    rejected by Graph.
    """
    if hasattr(text, "read"):
        text = text.read()
    labels: list[str] = []
    index: dict[str, int] = {}
    order: list[tuple[int, int]] = []
    weight_of: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise EdgeListError("fewer than 2 tokens", line=lineno)
        if not weighted and len(tokens) > 2:
            raise EdgeListError("unexpected extra tokens (weighted input needs weighted=True)", line=lineno)
        if weighted and len(tokens) > 3:
            raise EdgeListError("more than 3 tokens", line=lineno)
        if tokens[0] == tokens[1]:
            raise EdgeListError(f"self-loop {tokens[0]!r}", line=lineno)
        w = 1.0
        if weighted and len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise EdgeListError(f"bad weight {tokens[2]!r}", line=lineno) from None
            if not math.isfinite(w):
                raise EdgeListError(f"non-finite weight {tokens[2]!r}", line=lineno)
        if not (w > 0.0):
            raise EdgeListError(f"non-positive weight {w!r}", line=lineno)
        uv = []
        for tok in tokens[:2]:
            if tok not in index:
                index[tok] = len(labels)
                labels.append(tok)
            uv.append(index[tok])
        key = (min(uv), max(uv))
        if key in weight_of:
            warnings.warn(f"duplicate link {tokens[0]} {tokens[1]} at line {lineno}; weights merged")
            weight_of[key] += w
            if not math.isfinite(weight_of[key]):
                raise EdgeListError(
                    f"merged weight of {tokens[0]} {tokens[1]} overflows to {weight_of[key]!r}",
                    line=lineno,
                )
        else:
            weight_of[key] = w
            order.append(key)
    return Graph(labels, [(u, v, weight_of[(u, v)]) for u, v in order])


def edge_list_text(g: Graph) -> str:
    """Emit a graph as edge-list text that load_edge_list reads back."""
    lines = []
    unit = g.unit_weighted
    for lid, (u, v) in enumerate(g.link_ends):
        pair = f"{g.labels[u]} {g.labels[v]}"
        lines.append(pair if unit else f"{pair} {g.link_weights[lid]:.12g}")
    return "\n".join(lines) + "\n"


def induced_links(g: Graph, nodes) -> set[int]:
    """Ids of every link with both endpoints in the node set (the maximal link set)."""
    member = set(nodes)
    out = set()
    for i in member:
        for j, _, lid in g.adj[i]:
            if j > i and j in member:
                out.add(lid)
    return out


def is_connected(g: Graph, nodes) -> bool:
    """True iff the induced subgraph is connected; empty sets count as not connected."""
    member = set(nodes)
    if not member:
        return False
    start = next(iter(member))
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for j, _, _ in g.adj[i]:
            if j in member and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(member)


def boundary_nodes(g: Graph, nodes) -> set[int]:
    """Members with at least one link leaving the set."""
    member = set(nodes)
    out = set()
    for i in member:
        if any(j not in member for j, _, _ in g.adj[i]):
            out.add(i)
    return out


def connected_components(g: Graph) -> list[set[int]]:
    """Connected components as node-index sets, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        stack = [start]
        while stack:
            i = stack.pop()
            for j, _, _ in g.adj[i]:
                if not seen[j]:
                    seen[j] = True
                    comp.add(j)
                    stack.append(j)
        comps.append(comp)
    return comps


class Community(namedtuple("Community", "nodes psi boundary seed_count stability", defaults=(0, None))):
    """A recorded local minimum: node set plus derived facts.

    nodes and boundary are frozensets of node indices; stability is a float,
    or None when no community has a lower psi. The links, induced_links(g,
    nodes), are not stored; boundary is, as a report's stand-in graph lacks
    the links that leave a community. Immutable and hashable, like any named tuple.
    """

    __slots__ = ()


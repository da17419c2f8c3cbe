"""Pairwise community overlap classification and the containment DAG.

Two communities can be disjoint, nested (one node set inside the other),
boundary-overlapping (every shared node lies on the boundary of both), or
permeating (some shared node is an inner node of at least one of the two).
Nesting takes precedence: a contained community is hierarchy, not overlap.

The polyhierarchy is the transitive reduction of strict node-set containment
over the communities plus a synthetic whole-graph root C0; a community may
have several parents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .greedy import Community

__all__ = [
    "OverlapRelation",
    "PolyhierarchyDag",
    "classify_overlap",
    "cover_check",
    "build_polyhierarchy",
    "dag_to_dot",
]


# name of the whole-graph community: the DAG root, and a report's included ground state
ROOT = "C0"


@dataclass(frozen=True)
class OverlapRelation:
    kind: str  # "disjoint" | "nested" | "boundary-overlap" | "permeating"
    shared_nodes: frozenset[int]
    shared_links: frozenset[int]


def classify_overlap(a: Community, b: Community) -> OverlapRelation:
    """Relation between two distinct communities; symmetric in its arguments."""
    shared_nodes = a.nodes & b.nodes
    shared_links = a.links & b.links
    if a.nodes <= b.nodes or b.nodes <= a.nodes:
        kind = "nested"
    elif not shared_nodes:
        kind = "disjoint"
    elif shared_nodes <= a.boundary and shared_nodes <= b.boundary:
        kind = "boundary-overlap"
    else:
        kind = "permeating"
    return OverlapRelation(kind=kind, shared_nodes=shared_nodes, shared_links=shared_links)


def cover_check(g: Graph, a: Community, b: Community) -> bool:
    """True iff the two node sets together cover every node of the graph."""
    return len(a.nodes | b.nodes) == g.n


@dataclass
class PolyhierarchyDag:
    """Direct-containment edges over named communities plus the whole-graph root."""

    names: list[str]
    node_sets: dict[str, frozenset[int]]
    edges: list[tuple[str, str]]  # (parent, child)


def build_polyhierarchy(
    g: Graph, communities: list[Community], names: list[str]
) -> PolyhierarchyDag:
    """Transitive reduction of strict containment, rooted at the whole graph g."""
    if len(names) != len(communities):
        raise ValueError("one name per community required")
    sets = {name: c.nodes for name, c in zip(names, communities)}
    whole = frozenset(range(g.n))
    edges = []
    for child, child_set in sets.items():
        parents = [
            p for p, p_set in sets.items() if child_set < p_set
        ]
        direct = [
            p
            for p in parents
            if not any(sets[q] < sets[p] for q in parents if q != p)
        ]
        if not direct:
            direct = [ROOT]
        edges.extend((p, child) for p in direct)
    node_sets = dict(sets)
    node_sets[ROOT] = whole
    order = {name: i for i, name in enumerate([ROOT, *names])}
    edges.sort(key=lambda e: (order[e[0]], order[e[1]]))
    return PolyhierarchyDag(names=[ROOT, *names], node_sets=node_sets, edges=edges)


def dag_to_dot(dag: PolyhierarchyDag) -> str:
    """Graphviz DOT text for the containment DAG."""
    lines = ["digraph communities {", "  rankdir=TB;", "  node [shape=box];"]
    for name in dag.names:
        lines.append(f'  "{name}" [label="{name}\\n{len(dag.node_sets[name])} nodes"];')
    for parent, child in dag.edges:
        lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

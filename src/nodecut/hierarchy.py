"""Pairwise community overlap classification and the containment DAG.

Two communities can be disjoint, nested (one node set inside the other),
boundary-overlapping (every shared node lies on the boundary of both), or
permeating (some shared node is an inner node of at least one of the two).
Nesting takes precedence: a contained community is hierarchy, not overlap.

The polyhierarchy is the transitive reduction of strict node-set containment
over the communities plus a synthetic whole-graph root C0; a community may
have several parents.

hierarchy_json streams the `hierarchy --json` document, one pair after
another, so its size on disk is never held in memory. It works on int
bitsets: node and boundary masks with bit g.rank[i] for node i, and masks of
the links among the nodes, one bit per link in label order. Every label and every link is
rendered as JSON text once, and a pair's text is joined from those pieces;
the bytes are those of dumps_report over the document.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from .graph import ROOT, Community, Graph, dot_text, induced_links
from .report import dumps_report

__all__ = [
    "PolyhierarchyDag",
    "classify_overlap",
    "build_polyhierarchy",
    "dag_to_dot",
    "hierarchy_json",
]


def classify_overlap(a, b, a_boundary, b_boundary) -> str:
    """Kind of the relation between two distinct communities' node sets, given
    as frozensets or as int bitsets with their boundaries; symmetric in a and b.

    One of "nested", "disjoint", "boundary-overlap" or "permeating".
    """
    shared = a & b
    if shared == a or shared == b:
        return "nested"
    if not shared:
        return "disjoint"
    if shared & a_boundary & b_boundary == shared:
        return "boundary-overlap"
    return "permeating"


class PolyhierarchyDag(namedtuple("PolyhierarchyDag", "names node_sets edges")):
    """Direct-containment edges over named communities plus the whole-graph root.

    names lists the root first; node_sets maps each name to its frozenset of
    node indices; edges holds (parent, child) name pairs.
    """

    __slots__ = ()


def _mask(bits: list[int], items) -> int:
    """Int bitset of items, item i setting bits[i]."""
    mask = 0
    for i in items:
        mask |= bits[i]
    return mask


def build_polyhierarchy(
    g: Graph, communities: list[Community], names: list[str]
) -> PolyhierarchyDag:
    """Transitive reduction of strict containment, rooted at the whole graph g.

    A child's parents are scanned in ascending size, so every strict subset
    of a candidate that contains the child comes first; the candidate is a
    direct parent when no direct parent found before it lies strictly
    inside it.
    """
    if len(names) != len(communities):
        raise ValueError("one name per community required")
    node_bits = [1 << r for r in g.rank]
    masks = [_mask(node_bits, c.nodes) for c in communities]
    by_size = sorted(range(len(masks)), key=lambda k: len(communities[k].nodes))
    sizes = [len(communities[k].nodes) for k in by_size]
    edges = []
    for child, child_mask in enumerate(masks):
        direct = []
        for p in by_size[bisect_right(sizes, len(communities[child].nodes)) :]:
            p_mask = masks[p]
            if child_mask & p_mask == child_mask and not any(
                masks[d] & p_mask == masks[d] != p_mask for d in direct
            ):
                direct.append(p)
        edges.extend((names[p], names[child]) for p in direct)
        if not direct:
            edges.append((ROOT, names[child]))
    node_sets = {name: c.nodes for name, c in zip(names, communities)}
    node_sets[ROOT] = frozenset(range(g.n))
    order = {name: i for i, name in enumerate([ROOT, *names])}
    edges.sort(key=lambda e: (order[e[0]], order[e[1]]))
    return PolyhierarchyDag(names=[ROOT, *names], node_sets=node_sets, edges=edges)


def dag_to_dot(dag: PolyhierarchyDag) -> str:
    """Graphviz DOT text for the containment DAG."""
    lines = ["digraph communities {", "  rankdir=TB;", "  node [shape=box];"]
    for name in dag.names:
        quoted = dot_text(name)
        lines.append(f'  "{quoted}" [label="{quoted}\\n{len(dag.node_sets[name])} nodes"];')
    for parent, child in dag.edges:
        lines.append(f'  "{dot_text(parent)}" -> "{dot_text(child)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _list_text(mask: int, texts: list[str]) -> str:
    """A pair's shared_nodes or shared_links value: the texts of mask's bits, lowest first."""
    if not mask:
        return "[]"
    pieces = []
    while mask:
        low = mask & -mask
        pieces.append(texts[low.bit_length() - 1])
        mask ^= low
    return "[" + ",".join(pieces) + "\n      ]"


def hierarchy_json(
    g: Graph, dag: PolyhierarchyDag, communities: list[Community]
) -> Iterator[str]:
    """Text of the `hierarchy --json` document, in chunks of one row of pairs each.

    communities are dag's named communities, in dag.names[1:] order. The
    document is {"edges", "names", "pairs"}, its bytes those of
    dumps_report. pairs holds one object per pair (a before b in that
    order): its classify_overlap kind, the shared nodes (sorted_labels) and
    shared links (link_label_pairs) among the nodes on g, and whether the two cover the graph.
    """
    rank = g.rank
    label = [encode_basestring_ascii(g.labels[i]) for i in g.order]  # by rank
    node_bits = [1 << r for r in rank]
    node_text = ["\n        " + text for text in label]
    ranked_links = sorted(
        (min(rank[u], rank[v]), max(rank[u], rank[v]), lid) for lid, (u, v) in enumerate(g.link_ends)
    )
    link_bits = [0] * g.m
    link_text = []
    for pos, (ru, rv, lid) in enumerate(ranked_links):
        link_bits[lid] = 1 << pos
        link_text.append(f"\n        [\n          {label[ru]},\n          {label[rv]}\n        ]")
    rows = [
        (
            encode_basestring_ascii(name),
            _mask(node_bits, c.nodes),
            _mask(node_bits, c.boundary),
            _mask(link_bits, induced_links(g, c.nodes)),
        )
        for name, c in zip(dag.names[1:], communities)
    ]
    full = (1 << g.n) - 1

    head = dumps_report({"edges": dag.edges, "names": dag.names})
    yield head[: -len("\n}\n")] + ',\n  "pairs": '  # "pairs" sorts last, so it goes on the open document
    opened = False
    for i, (a, na, ba, la) in enumerate(rows):
        row = [
            '{\n      "a": ' + a
            + ',\n      "b": ' + b
            + ',\n      "covers_graph": ' + ("true" if na | nb == full else "false")
            + ',\n      "kind": "' + classify_overlap(na, nb, ba, bb)
            + '",\n      "shared_links": ' + _list_text(la & lb, link_text)
            + ',\n      "shared_nodes": ' + _list_text(na & nb, node_text)
            + "\n    }"
            for b, nb, bb, lb in rows[i + 1 :]
        ]
        if row:
            yield (",\n    " if opened else "[\n    ") + ",\n    ".join(row)
            opened = True
    yield "\n  ]\n}\n" if opened else "[]\n}\n"

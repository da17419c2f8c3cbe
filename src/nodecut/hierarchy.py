"""Pairwise community overlap classification and the containment DAG.

Two communities can be disjoint, nested (one node set inside the other),
boundary-overlapping (every shared node lies on the boundary of both), or
permeating (some shared node is an inner node of at least one of the two).
Nesting takes precedence: a contained community is hierarchy, not overlap.

The polyhierarchy is the transitive reduction of strict node-set containment
over the communities plus a synthetic whole-graph root C0; a community may
have several parents.

hierarchy_json streams the `hierarchy --json` document, one row of pairs
after another, so its size on disk is never held in memory. Every label and
every link is rendered as JSON text once. Each node and each link has a
holder list, the communities that hold it; a link is held by every
community that holds both its ends, so no community's links are derived. A
row walks the nodes and links of its community once and appends each one's
text to the shared lists of its later holders, so a shared item costs one
append; a pair's text is one f-string over its two lists. The overlap kind
and covers_graph come from int bitsets, node and boundary masks with bit
g.rank[i] for node i. The bytes are those of dumps_report over the document.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from .graph import ROOT, Community, Graph, dot_text
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


_CLOSE = "\n      ]"  # the end of a non-empty shared list


def hierarchy_json(
    g: Graph, dag: PolyhierarchyDag, communities: list[Community]
) -> Iterator[str]:
    """Text of the `hierarchy --json` document, in chunks of one row of pairs each.

    communities are dag's named communities, in dag.names[1:] order. The
    document is {"edges", "names", "pairs"}, its bytes those of
    dumps_report. pairs holds one object per pair (a before b in that
    order): its classify_overlap kind, the shared nodes (sorted_labels) and
    shared links (link_label_pairs) among the nodes on g, and whether the two cover the graph.

    Holder lists (see the module docstring) run in descending community
    order. Row a walks its nodes in label order and its links in label pair
    order: it pops itself off the end of each holder list, which leaves the
    later holders b, and appends the item's text to each b's shared list.
    """
    rank = g.rank
    label = [encode_basestring_ascii(g.labels[i]) for i in g.order]  # by rank
    k = len(communities)
    # Holder lists store community b as b - k, its index from the end: in
    # row a that is also its place among the k - a - 1 shared lists of the
    # later communities a + 1 .. k - 1.
    holders = [[] for _ in label]  # by rank
    for b in range(-1, -k - 1, -1):
        for i in communities[b].nodes:
            holders[rank[i]].append(b)
    node_items = [[] for _ in communities]  # per community, (text, holder list) in output order
    for text, h in zip(label, holders):
        item = ("\n        " + text, h)
        for b in h:
            node_items[b].append(item)
    link_items = [[] for _ in communities]
    for ru, rv in sorted(sorted((rank[u], rank[v])) for u, v in g.link_ends):
        end = g.order[rv]
        h = [b for b in holders[ru] if end in communities[b].nodes]
        item = (f"\n        [\n          {label[ru]},\n          {label[rv]}\n        ]", h)
        for b in h:
            link_items[b].append(item)
    node_bits = [1 << r for r in rank]
    rows = [
        (encode_basestring_ascii(name), _mask(node_bits, c.nodes), _mask(node_bits, c.boundary))
        for name, c in zip(dag.names[1:], communities)
    ]
    full = (1 << g.n) - 1

    head = dumps_report({"edges": dag.edges, "names": dag.names})
    yield head[: -len("\n}\n")] + ',\n  "pairs": '  # "pairs" sorts last, so it goes on the open document
    opened = False
    for a, (name_a, na, ba) in enumerate(rows):
        shared_nodes = [[] for _ in range(k - a - 1)]
        shared_links = [[] for _ in range(k - a - 1)]
        for items, shared in ((node_items[a], shared_nodes), (link_items[a], shared_links)):
            for text, h in items:
                h.pop()  # a itself, the last holder left; the rest hold it after a
                for b in h:
                    shared[b].append(text)
        row = [
            f'{{\n      "a": {name_a},\n      "b": {name_b},\n      "covers_graph": '
            f'{"true" if na | nb == full else "false"},\n      "kind": "{classify_overlap(na, nb, ba, bb)}",'
            f'\n      "shared_links": {"[" + ",".join(links) + _CLOSE if links else "[]"},'
            f'\n      "shared_nodes": {"[" + ",".join(nodes) + _CLOSE if nodes else "[]"}\n    }}'
            for (name_b, nb, bb), nodes, links in zip(rows[a + 1 :], shared_nodes, shared_links)
        ]
        if row:
            yield (",\n    " if opened else "[\n    ") + ",\n    ".join(row)
            opened = True
    yield "\n  ]\n}\n" if opened else "[]\n}\n"

"""Overlap classification and the containment polyhierarchy."""

import random

from nodecut import (
    Community,
    Graph,
    build_polyhierarchy,
    classify_overlap,
    cover_check,
    dag_to_dot,
    load_edge_list,
)
from conftest import KARATE_NODES, labels_of


def named(karate_named, name):
    return karate_named[name]


def test_c2_c3_boundary_overlap(karate, karate_named):
    rel = classify_overlap(karate_named["C2"], karate_named["C3"])
    assert rel.kind == "boundary-overlap"
    assert labels_of(karate, rel.shared_nodes) == {"3", "9", "14", "20", "31", "32"}
    shared_pairs = {karate.link_label_pair(lid) for lid in rel.shared_links}
    assert shared_pairs == {("3", "9"), ("3", "14"), ("9", "31")}


def test_c1_c4_boundary_overlap(karate, karate_named):
    rel = classify_overlap(karate_named["C1"], karate_named["C4"])
    assert rel.kind == "boundary-overlap"
    assert labels_of(karate, rel.shared_nodes) == {"1"}
    assert rel.shared_links == frozenset()


def test_c1_c3_permeating(karate_named):
    assert classify_overlap(karate_named["C1"], karate_named["C3"]).kind == "permeating"


def test_c5_c6_disjoint(karate_named):
    assert classify_overlap(karate_named["C5"], karate_named["C6"]).kind == "disjoint"


def test_nested_takes_precedence(karate_named):
    assert classify_overlap(karate_named["C2"], karate_named["C5"]).kind == "nested"
    assert classify_overlap(karate_named["C1"], karate_named["C7"]).kind == "nested"


def test_classify_is_symmetric(karate_named):
    names = sorted(KARATE_NODES)
    for a in names:
        for b in names:
            if a == b:
                continue
            ab = classify_overlap(karate_named[a], karate_named[b])
            ba = classify_overlap(karate_named[b], karate_named[a])
            assert ab.kind == ba.kind
            assert ab.shared_nodes == ba.shared_nodes
            assert ab.shared_links == ba.shared_links


def test_shared_node_inside_one_side_permeates():
    """Boundary overlap needs every shared node on both boundaries."""
    a = Community(nodes=frozenset({0, 1, 2}), links=frozenset(), psi=0.5, boundary=frozenset({2}))
    b = Community(nodes=frozenset({2, 3, 4}), links=frozenset(), psi=0.5, boundary=frozenset({3}))
    assert classify_overlap(a, b).kind == classify_overlap(b, a).kind == "permeating"
    b_edge = Community(nodes=b.nodes, links=frozenset(), psi=0.5, boundary=frozenset({2}))
    assert classify_overlap(a, b_edge).kind == "boundary-overlap"


def test_cover_check(karate, karate_named):
    assert cover_check(karate, karate_named["C1"], karate_named["C4"])
    assert cover_check(karate, karate_named["C2"], karate_named["C3"])
    assert not cover_check(karate, karate_named["C5"], karate_named["C6"])


def karate_dag(karate, karate_result):
    names = [f"C{i + 1}" for i in range(len(karate_result.communities))]
    return build_polyhierarchy(karate, karate_result.communities, names)


def parents(dag, name):
    return sorted(p for p, c in dag.edges if c == name)


def test_karate_polyhierarchy(karate, karate_result):
    dag = karate_dag(karate, karate_result)
    assert set(dag.edges) == {
        ("C0", "C1"),
        ("C0", "C3"),
        ("C1", "C2"),
        ("C1", "C7"),
        ("C2", "C5"),
        ("C2", "C6"),
        ("C3", "C4"),
        ("C3", "C7"),
    }
    assert parents(dag, "C7") == ["C1", "C3"]


def test_dag_edges_are_strict_containments(karate, karate_result):
    dag = karate_dag(karate, karate_result)
    for parent, child in dag.edges:
        assert dag.node_sets[child] < dag.node_sets[parent]


def test_dropping_c1_or_c3_yields_a_tree(karate, karate_result):
    communities = karate_result.communities
    names = [f"C{i + 1}" for i in range(len(communities))]
    for drop in ("C1", "C3"):
        keep = [(n, c) for n, c in zip(names, communities) if n != drop]
        dag = build_polyhierarchy(karate, [c for _, c in keep], [n for n, _ in keep])
        for name in dag.names[1:]:
            assert len(parents(dag, name)) == 1


def _mini(nodes):
    fs = frozenset(nodes)
    return Community(nodes=fs, links=frozenset(), psi=0.5, boundary=fs)


def test_disjoint_communities_form_a_star():
    comms = [_mini({0, 1}), _mini({2, 3}), _mini({4, 5})]
    dag = build_polyhierarchy(load_edge_list("1 2\n3 4\n5 6"), comms, ["C1", "C2", "C3"])
    assert set(dag.edges) == {("C0", "C1"), ("C0", "C2"), ("C0", "C3")}


def test_nested_chain_is_transitively_reduced():
    comms = [_mini({0, 1}), _mini({0, 1, 2}), _mini({0, 1, 2, 3})]
    dag = build_polyhierarchy(load_edge_list("1 2\n2 3\n3 4\n4 5"), comms, ["A", "B", "C"])
    assert set(dag.edges) == {("C0", "C"), ("C", "B"), ("B", "A")}


def test_dot_output_lists_every_edge(karate, karate_result):
    dag = karate_dag(karate, karate_result)
    dot = dag_to_dot(dag)
    assert dot.startswith("digraph")
    for parent, child in dag.edges:
        assert f'"{parent}" -> "{child}";' in dot


def test_dot_escapes_quotes_and_backslashes_in_names():
    """A name with " or \\ stays one DOT string, and its label keeps the line break."""
    comms = [_mini({0, 1}), _mini({0, 1, 2})]
    dag = build_polyhierarchy(load_edge_list("1 2\n2 3\n3 4"), comms, ['a"b', "c\\"])
    assert dag_to_dot(dag).splitlines()[3:] == [
        r'  "C0" [label="C0\n4 nodes"];',
        r'  "a\"b" [label="a\"b\n2 nodes"];',
        r'  "c\\" [label="c\\\n3 nodes"];',
        r'  "C0" -> "c\\";',
        r'  "c\\" -> "a\"b";',
        "}",
    ]


def brute_force_edges(g, communities, names):
    """(parent, child) for every strict containment with nothing strictly between, C0 above the tops.

    Listed in the order of build_polyhierarchy: by parent, then child, in
    [C0, *names] order.
    """
    sets = [c.nodes for c in communities]
    edges = []
    for ci, child in enumerate(sets):
        above = [p for p, s in enumerate(sets) if child < s]
        direct = [p for p in above if not any(child < sets[q] < sets[p] for q in above)]
        edges += [(names[p], names[ci]) for p in direct] or [("C0", names[ci])]
    order = {name: i for i, name in enumerate(["C0", *names])}
    return sorted(edges, key=lambda e: (order[e[0]], order[e[1]]))


def random_family(rng, n):
    """Node sets that nest, overlap, repeat, share sizes and cover the whole graph."""
    sets = [frozenset(range(n))] if rng.random() < 0.3 else []
    count = rng.randint(2, 12)
    while len(sets) < count:
        roll = rng.random()
        if sets and roll < 0.4:  # a strict subset of an earlier set
            base = sorted(rng.choice(sets))
            if len(base) > 1:
                sets.append(frozenset(rng.sample(base, rng.randint(1, len(base) - 1))))
        elif sets and roll < 0.5:  # a repeat
            sets.append(rng.choice(sets))
        elif sets and roll < 0.6:  # a superset of an earlier set
            sets.append(rng.choice(sets) | frozenset(rng.sample(range(n), rng.randint(1, 3))))
        else:  # an unrelated set
            sets.append(frozenset(rng.sample(range(n), rng.randint(1, n))))
    rng.shuffle(sets)
    return sets


def test_polyhierarchy_is_the_brute_force_transitive_reduction():
    rng = random.Random(5)
    for trial in range(300):
        n = rng.randint(3, 10)
        labels = [str(i) if i % 3 else f"x{i}" for i in range(n)]  # label order is not index order
        rng.shuffle(labels)
        g = Graph(labels, [(i - 1, i, 1.0) for i in range(1, n)])
        comms = [_mini(s) for s in random_family(rng, n)]
        names = [f"C{k + 1}" for k in range(len(comms))]
        dag = build_polyhierarchy(g, comms, names)
        assert dag.edges == brute_force_edges(g, comms, names), trial
        assert dag.names == ["C0", *names]

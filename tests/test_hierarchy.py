"""Overlap classification and the containment polyhierarchy."""

from nodecut import (
    Community,
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

"""Graph model, edge-list ingestion, and subgraph queries."""

import random
import re

import pytest

from nodecut import (
    EdgeListError,
    Graph,
    SubgraphState,
    boundary_nodes,
    builtin_graph,
    edge_list_text,
    induced_links,
    is_connected,
    load_edge_list,
)
from conftest import (
    KARATE_EDGE_PAIRS,
    KARATE_NODES,
    indices_of,
    labels_of,
    random_connected_graph,
)


def test_load_path_graph():
    g = load_edge_list("1 2\n2 3")
    assert (g.n, g.m) == (3, 2)
    assert [g.degrees[g.index_of(lab)] for lab in "123"] == [1, 2, 1]


def test_load_karate(karate):
    assert (karate.n, karate.m) == (34, 78)
    assert karate.unit_weighted
    assert karate.degrees[karate.index_of("1")] == 16
    assert karate.degrees[karate.index_of("34")] == 17
    with pytest.raises(KeyError, match="unknown dataset 'nope'; available: karate"):
        builtin_graph("nope")


def test_karate_edge_list_matches_networkx():
    nx = pytest.importorskip("networkx")
    ours = {frozenset(pair) for pair in KARATE_EDGE_PAIRS}
    theirs = {frozenset((str(u + 1), str(v + 1))) for u, v in nx.karate_club_graph().edges()}
    assert len(ours) == 78
    assert ours == theirs


def test_duplicate_links_merge_with_warning():
    with pytest.warns(UserWarning, match="duplicate link"):
        g = load_edge_list("a b 2\nb a 3", weighted=True)
    assert (g.n, g.m) == (2, 1)
    assert g.link_weights[0] == 5.0
    assert g.degrees == (5.0, 5.0)


def test_comments_and_blank_lines():
    g = load_edge_list("# header\n\n1 2  # trailing\n2 3\n")
    assert (g.n, g.m) == (3, 2)


def test_rejections_carry_line_numbers():
    with pytest.raises(EdgeListError, match="line 2.*self-loop"):
        load_edge_list("1 2\n3 3\n")
    with pytest.raises(EdgeListError, match="line 1.*non-positive"):
        load_edge_list("1 2 -1\n", weighted=True)
    with pytest.raises(EdgeListError, match="line 1.*fewer than 2"):
        load_edge_list("lonely\n")
    with pytest.raises(EdgeListError, match="line 1.*extra tokens"):
        load_edge_list("1 2 3\n")
    with pytest.raises(EdgeListError, match="line 1.*bad weight"):
        load_edge_list("1 2 heavy\n", weighted=True)


@pytest.mark.parametrize(
    "text, line",
    [("1 2 1\n2 3 inf\n", 2), ("1 2 1e309\n", 1), ("1 2 -inf\n", 1), ("1 2 nan\n", 1)],
)
def test_non_finite_weights_are_rejected(text, line):
    with pytest.raises(EdgeListError, match=f"line {line}: non-finite weight"):
        load_edge_list(text, weighted=True)


def test_merged_weight_overflow_is_rejected():
    with pytest.warns(UserWarning, match="duplicate"):
        with pytest.raises(EdgeListError, match="line 2: merged weight of 2 1 overflows"):
            load_edge_list("1 2 1e308\n2 1 1e308\n", weighted=True)


def test_graph_rejects_non_finite_and_out_of_range_weights():
    """Weights within WEIGHT_RANGE cannot sum to an infinite degree, so the
    weights whose degrees would overflow are refused one by one. A Graph
    built directly refuses the links load_edge_list refuses by line."""
    with pytest.raises(EdgeListError, match="self-loop at node 'a'"):
        Graph(["a", "b"], [(0, 1, 1.0), (0, 0, 1.0)])
    for weight in (0.0, -1.0):
        with pytest.raises(EdgeListError, match=r"non-positive weight on link \(a, b\)"):
            Graph(["a", "b"], [(0, 1, weight)])
    with pytest.raises(EdgeListError, match="non-finite weight on link"):
        Graph(["a", "b"], [(0, 1, float("inf"))])
    with pytest.raises(EdgeListError, match=r"weight 1e\+308 on link \(a, b\) is outside \[1e-100, 1e\+100\]"):
        Graph(["a", "b", "c"], [(0, 1, 1e308), (0, 2, 1e308)])
    with pytest.raises(EdgeListError, match=r"weight 1e\+308 on link \(1, 2\) is outside"):
        load_edge_list("1 2 1e308\n1 3 1e308\n", weighted=True)


@pytest.mark.parametrize("weight", [1e200, 1.0000000000000002e100, 1e-170, 9.999999999999999e-101])
def test_graph_rejects_weights_outside_the_range(weight):
    """Beyond the range psi's weight products overflow to inf or underflow to 0."""
    with pytest.raises(EdgeListError, match=re.escape(f"weight {weight!r} on link (a, b) is outside")):
        Graph(["a", "b", "c"], [(0, 1, weight), (1, 2, weight), (0, 2, weight)])


def test_merged_weights_beyond_the_range_are_rejected():
    with pytest.warns(UserWarning, match="duplicate"):
        with pytest.raises(EdgeListError, match=r"weight 1\.2e\+100 on link \(1, 2\) is outside"):
            load_edge_list("1 2 6e99\n2 1 6e99\n", weighted=True)


def test_graph_rejects_a_weight_spread_beyond_the_bound():
    with pytest.raises(EdgeListError, match=r"weight 1e\+20 on link \(b, c\) is more than 1e\+12 times"):
        Graph(["a", "b", "c"], [(0, 1, 2.0), (1, 2, 1e20), (0, 2, 1.0)])


def test_labels_are_arbitrary_tokens():
    g = load_edge_list("alpha beta\nbeta gamma-3\n")
    assert g.labels == ("alpha", "beta", "gamma-3")


def test_induced_links_karate(karate):
    c = indices_of(karate, {"1", "12"})
    assert induced_links(karate, c) == {karate.find_link("1", "12")}
    assert induced_links(karate, set()) == set()
    shared = indices_of(karate, KARATE_NODES["C2"] & KARATE_NODES["C3"])
    got = {karate.link_label_pair(lid) for lid in induced_links(karate, shared)}
    # the full maximal link set of those six shared nodes
    assert got == {("3", "9"), ("3", "14"), ("9", "31")}


def test_induced_nodes(karate):
    """Every node of C2 has a link inside it: its maximal link set spans it."""
    c2 = indices_of(karate, KARATE_NODES["C2"])
    assert {i for lid in induced_links(karate, c2) for i in karate.link_ends[lid]} == c2
    assert len(c2) == 21


def test_neighbors_of_set():
    """A state's frontier is the set of outside nodes adjacent to a member."""
    g = load_edge_list("1 2\n2 3")
    assert labels_of(g, SubgraphState(g, indices_of(g, {"1", "2"})).frontier) == {"3"}
    assert SubgraphState(g, set(range(g.n))).frontier == set()


def test_neighbors_of_seed_link_karate(karate):
    c = indices_of(karate, {"1", "12"})
    expected = {j for j, _, _ in karate.adj[karate.index_of("1")]} - c
    got = SubgraphState(karate, c).frontier
    assert got == expected
    assert len(got) == 15


def test_is_connected():
    g = load_edge_list("1 2\n2 3")
    assert not is_connected(g, indices_of(g, {"1", "3"}))
    assert is_connected(g, indices_of(g, {"1", "2"}))
    assert is_connected(g, {g.index_of("2")})
    assert not is_connected(g, set())


def test_karate_c5_connected(karate):
    assert is_connected(karate, indices_of(karate, KARATE_NODES["C5"]))


def test_boundary_nodes(karate):
    c1 = indices_of(karate, KARATE_NODES["C1"])
    assert labels_of(karate, boundary_nodes(karate, c1)) == {"1"}
    c2 = indices_of(karate, KARATE_NODES["C2"])
    assert {"3", "9", "14", "20", "31", "32"} <= labels_of(karate, boundary_nodes(karate, c2))
    assert boundary_nodes(karate, set(range(karate.n))) == set()


def test_degree_split_sums_to_total(karate):
    rng = random.Random(11)
    for _ in range(25):
        c = {i for i in range(karate.n) if rng.random() < 0.4}
        for i in range(karate.n):
            k_in = sum(w for j, w, _ in karate.adj[i] if j in c)
            k_out = sum(w for j, w, _ in karate.adj[i] if j not in c)
            assert k_in + k_out == karate.degrees[i]


def test_induced_roundtrip_subset_property():
    rng = random.Random(5)
    g = random_connected_graph(rng, 12, 10)
    for _ in range(40):
        c = {i for i in range(g.n) if rng.random() < 0.5}
        back = {i for lid in induced_links(g, c) for i in g.link_ends[lid]}
        assert back <= c
        isolated = {i for i in c if not any(j in c for j, _, _ in g.adj[i])}
        assert back == c - isolated


def test_edge_list_roundtrip(karate):
    reloaded = load_edge_list(edge_list_text(karate))
    canon = lambda g: sorted(
        (min(g.link_label_pair(l)), max(g.link_label_pair(l)), g.link_weights[l])
        for l in range(g.m)
    )
    assert canon(reloaded) == canon(karate)
    assert sorted(reloaded.labels) == sorted(karate.labels)


def test_weighted_roundtrip():
    g = load_edge_list("a b 2.5\nb c 0.5\n", weighted=True)
    reloaded = load_edge_list(edge_list_text(g), weighted=True)
    assert reloaded.degrees == g.degrees
    assert reloaded.link_weights == g.link_weights

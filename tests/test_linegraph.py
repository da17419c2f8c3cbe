"""Weighted line graph, incidence normalisation, and the cut equivalence.

The dense matrices here are the reference the sparse line graph is checked
against: incidence B, weighted degree-normalised affiliation
D[i, k] = B[i, k] * w_k / sqrt(k_i), and E = D^T D.
"""

import random

import numpy as np
import pytest

from nodecut import (
    ZeroInternalDegree,
    build_line_graph,
    check_equivalence,
    induced_links,
    load_edge_list,
    phi,
    psi,
    sigma_and_k_in,
)
from conftest import (
    KARATE_NODES,
    WEIGHT_EXTREMES,
    indices_of,
    random_connected_graph,
    random_connected_subgraph,
    random_weighted_graph,
    spread_weighted_graph,
)


def incidence_matrix(g):
    """Dense n x m binary node-link incidence matrix B."""
    b = np.zeros((g.n, g.m))
    for lid, (u, v) in enumerate(g.link_ends):
        b[u, lid] = 1.0
        b[v, lid] = 1.0
    return b


def normalized_affiliation(g):
    """D: the incidence matrix with column k times w_k and row i divided by sqrt(k_i)."""
    weighted = incidence_matrix(g) * np.asarray(g.link_weights)[None, :]
    return weighted / np.sqrt(np.asarray(g.degrees))[:, None]


def dense(lg):
    """The sparse line graph as a dense m x m matrix."""
    out = np.zeros((lg.m, lg.m))
    for k, row in enumerate(lg.rows):
        for l, w in row.items():
            out[k, l] = w
    return out


def reference_line_graph(g):
    """E = D^T D, computed without build_line_graph."""
    d = normalized_affiliation(g)
    return d.T @ d


def dense_phi(e, links):
    """Independent oracle: explicit double sums over a dense line-graph matrix."""
    mu = np.zeros(len(e))
    mu[list(links)] = 1.0
    k_in = mu @ e @ mu
    k_out = mu @ e @ (1.0 - mu)
    return k_out / (k_in + k_out), k_in, k_out


def test_path3_line_graph_entries():
    g = load_edge_list("1 2\n2 3")
    a, b = g.find_link("1", "2"), g.find_link("2", "3")
    lg = build_line_graph(g)
    assert lg.rows[a][b] == pytest.approx(0.5, abs=1e-15)
    assert lg.rows[a][a] == pytest.approx(1.5, abs=1e-15)
    assert lg.rows[b][b] == pytest.approx(1.5, abs=1e-15)


def test_single_link_line_graph():
    g = load_edge_list("x y")
    lg = build_line_graph(g)
    assert lg.m == 1
    assert lg.rows[0][0] == pytest.approx(2.0, abs=1e-15)


def test_karate_line_graph_support(karate):
    lg = build_line_graph(karate)
    assert lg.m == 78
    for k in range(78):
        ku, kv = karate.link_ends[k]
        for l in range(78):
            lu, lv = karate.link_ends[l]
            share = bool({ku, kv} & {lu, lv})
            assert (lg.rows[k].get(l, 0.0) > 0) == share


def test_row_normalisation_unit_norm(karate):
    for g in (load_edge_list("1 2\n2 3"), karate):
        d = normalized_affiliation(g)
        norms = np.linalg.norm(d, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)


def test_line_graph_factorises(karate):
    rng = random.Random(4)
    graphs = [load_edge_list("1 2\n2 3"), karate, load_edge_list("1 2 2\n2 3 1", weighted=True)]
    graphs += [random_weighted_graph(rng, 12, 10) for _ in range(3)]
    graphs += [spread_weighted_graph(rng, 12, 10, *extreme) for extreme in WEIGHT_EXTREMES]
    for g in graphs:
        # relative to each entry: weighted entries range from about 1e-112 to 1e100
        assert np.allclose(dense(build_line_graph(g)), reference_line_graph(g), rtol=1e-12, atol=0.0)


def test_line_graph_degree_is_twice_the_link_weight():
    """Each endpoint i of link k adds w_k * k_i / k_i to k's line-graph degree."""
    rng = random.Random(5)
    graphs = [random_weighted_graph(rng, 10, 8)]
    graphs += [spread_weighted_graph(rng, 10, 8, *extreme) for extreme in WEIGHT_EXTREMES]
    for g in graphs:
        lg = build_line_graph(g)
        for k, w in enumerate(g.link_weights):
            assert lg.degree[k] == pytest.approx(2.0 * w, rel=1e-12)


def test_incidence_columns_have_two_entries(karate):
    b = incidence_matrix(karate)
    assert set(np.unique(b)) <= {0.0, 1.0}
    assert (b.sum(axis=0) == 2).all()


def test_phi_seed_link_karate(karate):
    lg = build_line_graph(karate)
    links = {karate.find_link("1", "12")}
    value = phi(lg, links)
    oracle, _, _ = dense_phi(reference_line_graph(karate), links)
    assert value == pytest.approx(15 / 32, abs=1e-12)
    assert value == pytest.approx(oracle, abs=1e-12)


def test_phi_whole_link_set_is_zero(karate):
    lg = build_line_graph(karate)
    assert phi(lg, set(range(karate.m))) == pytest.approx(0.0, abs=1e-15)


def test_phi_path3_by_hand():
    g = load_edge_list("1 2\n2 3")
    lg = build_line_graph(g)
    links = {g.find_link("1", "2")}
    _, k_in, k_out = dense_phi(reference_line_graph(g), links)
    assert k_in == pytest.approx(1.5, abs=1e-15)
    assert k_out == pytest.approx(0.5, abs=1e-15)
    assert phi(lg, links) == pytest.approx(0.25, abs=1e-15)
    assert phi(lg, links) == pytest.approx(psi(g, indices_of(g, {"1", "2"})), abs=1e-15)


def test_phi_empty_cut(karate):
    with pytest.raises(ZeroInternalDegree):
        phi(build_line_graph(karate), set())


def test_link_set_degree_equals_internal_degree(karate):
    rng = random.Random(3)
    for extreme in [None] + WEIGHT_EXTREMES:
        g = karate if extreme is None else spread_weighted_graph(rng, 25, 20, *extreme)
        lg = build_line_graph(g)
        for _ in range(20):
            c = random_connected_subgraph(rng, g, rng.randrange(2, 25))
            links = induced_links(g, c)
            _, k_in, k_out = dense_phi(dense(lg), links)
            assert k_in + k_out == pytest.approx(sigma_and_k_in(g, c)[1], rel=1e-12)


def test_equivalence_karate_communities(karate):
    lg = build_line_graph(karate)
    for nodes in KARATE_NODES.values():
        assert check_equivalence(karate, indices_of(karate, nodes), lg) < 1e-10


def test_equivalence_random_subgraphs():
    rng = random.Random(17)
    # six unit-weight graphs, then two per weight extreme
    for extreme in [None] * 6 + [e for e in WEIGHT_EXTREMES for _ in range(2)]:
        n, extra = rng.randrange(6, 20), rng.randrange(2, 12)
        if extreme is None:
            g = random_connected_graph(rng, n, extra)
        else:
            g = spread_weighted_graph(rng, n, extra, *extreme)
        lg = build_line_graph(g)
        for _ in range(30):
            c = random_connected_subgraph(rng, g, rng.randrange(2, g.n + 1))
            assert check_equivalence(g, c, lg) < 1e-10


def test_equivalence_propagates_zero_internal_degree(karate):
    with pytest.raises(ZeroInternalDegree):
        check_equivalence(karate, {0}, build_line_graph(karate))

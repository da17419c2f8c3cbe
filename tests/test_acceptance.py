"""Acceptance suite: the exit criteria, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -s` to get one PASS/FAIL line per
criterion.

Two karate reference values are corrected here (erratum). The published
table gives the 19-node community C3 41 links, but its node set induces 38
of the fixture's 78 links, and its published psi of 0.091 fits 38 links
(6.9 / 76 = 0.091) and not 41 (6.9 / 82 = 0.084). The published shared-link
set of C2 and C3 is {(3,9), (9,31)}, but the six shared nodes also carry the
link 3-14, so the maximal shared set is {(3,9), (3,14), (9,31)}; with 43 and
41 links in a 78-link graph, C2 and C3 would share at least 6 links anyway.
Both corrected values are checked against the detector and against a count
made directly from the karate edge-list text.
"""

from __future__ import annotations

import functools
import json
import random
import time
from collections import Counter

import pytest

from nodecut import (
    SubgraphState,
    TieBreakPolicy,
    build_line_graph,
    build_polyhierarchy,
    check_equivalence,
    classify_overlap,
    cli,
    exact_local_minima,
    induced_links,
    psi,
    run_all_seeds,
    run_from_seed,
    sigma_and_k_in,
    verify_local_minimum,
)
from conftest import (
    KARATE_EDGE_PAIRS,
    KARATE_NODES,
    KARATE_SEED_COUNTS,
    WEIGHT_EXTREMES,
    indices_of,
    labels_of,
    random_connected_graph,
    random_connected_subgraph,
    spread_weighted_graph,
)

# Table of expected karate communities: (nodes, links, psi, seeds), keyed by
# name in ascending-psi order. C3's link count is corrected from the published
# 41, which cannot hold: the C3 node set induces 38 of the 78 fixture links,
# the published psi 0.091 = 6.9 / (2 * 38) needs 38, and link sets of 43 and
# 41 links in a 78-link graph would share at least 6 links, not the 3 that
# join the six nodes C2 and C3 share.
REFERENCE_TABLE = {
    "C1": (29, 68, 0.022, 68),
    "C2": (21, 43, 0.077, 40),
    "C3": (19, 38, 0.091, 10),  # published as 41 (erratum)
    "C4": (6, 10, 0.150, 10),
    "C5": (5, 6, 0.294, 7),
    "C6": (3, 2, 0.460, 2),
    "C7": (2, 1, 0.469, 1),
}

# Links shared by C2 and C3; published as {(3,9), (9,31)} (erratum: the six
# shared nodes also carry the link 3-14).
REFERENCE_SHARED_LINKS = {("3", "9"), ("3", "14"), ("9", "31")}

# pinned: under the random policy its sweep records the seven and one more
# certified minimum, with histogram 27/37/14 against the deterministic 27/42/9
HISTOGRAM_RNG_SEED = 144


def edge_list_pairs_within(nodes):
    """Karate edge-list pairs with both ends in `nodes`."""
    return {(u, v) for u, v in KARATE_EDGE_PAIRS if u in nodes and v in nodes}


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number:>2}: FAIL  {title}")
                raise
            print(f"acceptance {number:>2}: PASS  {title}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def karate_report_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "karate.json"
    assert cli.main(["detect", "--dataset", "karate", "--all-seeds", "--tie-break", "det",
                     "--out", str(out)]) == 0
    return json.loads(out.read_text())


@criterion(1, "karate reproduction: the seven expected node sets and cut values")
def test_criterion_01_sets_psi_runtime(karate, karate_report_doc):
    report = karate_report_doc
    assert [c["name"] for c in report["communities"]] == list(REFERENCE_TABLE)
    found = {c["name"]: c for c in report["communities"]}
    assert {frozenset(c["nodes"]) for c in found.values()} == set(KARATE_NODES.values())
    for name, (nodes, _, value, _) in REFERENCE_TABLE.items():
        assert found[name]["node_count"] == nodes
        assert found[name]["psi"] == pytest.approx(value, abs=5e-4)
        assert frozenset(found[name]["nodes"]) == KARATE_NODES[name]
    started = time.perf_counter()
    run_all_seeds(karate)
    assert time.perf_counter() - started < 1.0


@criterion(1, "karate reproduction: corrected reference link counts")
def test_criterion_01_reference_link_counts(karate_report_doc):
    expected = [row[1] for row in REFERENCE_TABLE.values()]
    from_edge_list = [len(edge_list_pairs_within(KARATE_NODES[n])) for n in REFERENCE_TABLE]
    assert from_edge_list == expected
    got = [c["link_count"] for c in karate_report_doc["communities"]]
    assert got == expected


@criterion(2, "boundary facts: overlaps, unions, and the two smallest communities")
def test_criterion_02_boundary_facts(karate, karate_named):
    c = {name: set(labels_of(karate, comm.nodes)) for name, comm in karate_named.items()}
    every = set(karate.labels)
    assert labels_of(karate, karate_named["C1"].boundary) == {"1"}
    assert c["C2"] & c["C3"] == {"3", "9", "14", "20", "31", "32"}
    assert c["C7"] == {"1", "12"}
    assert c["C6"] == {"3", "10", "34"}
    assert c["C1"] | c["C4"] == every
    assert c["C1"] & c["C4"] == {"1"}
    assert c["C2"] | c["C3"] == every
    shared = induced_links(karate, karate_named["C2"].nodes) & induced_links(karate, karate_named["C3"].nodes)
    assert {karate.link_label_pair(lid) for lid in shared} == REFERENCE_SHARED_LINKS


@criterion(2, "boundary facts: corrected reference shared-link set")
def test_criterion_02_reference_shared_links(karate, karate_named):
    overlap = KARATE_NODES["C2"] & KARATE_NODES["C3"]
    assert edge_list_pairs_within(overlap) == REFERENCE_SHARED_LINKS
    shared = {
        karate.link_label_pair(lid)
        for lid in induced_links(karate, karate_named["C2"].nodes)
        & induced_links(karate, karate_named["C3"].nodes)
    }
    assert shared == REFERENCE_SHARED_LINKS


@criterion(3, "seed multiplicities: every seed records a minimum; histograms")
def test_criterion_03_seed_multiplicities(karate, karate_result, karate_named):
    assert all(len(t.minima) >= 1 for t in karate_result.trajectories)
    det_hist = dict(sorted(Counter(len(t.minima) for t in karate_result.trajectories).items()))
    print(f"    deterministic histogram: {det_hist}")
    for name, (_, _, _, seeds) in REFERENCE_TABLE.items():
        assert abs(karate_named[name].seed_count - seeds) <= 3
    assert {n: karate_named[n].seed_count for n in REFERENCE_TABLE} == KARATE_SEED_COUNTS
    rng_result = run_all_seeds(karate, TieBreakPolicy("random", HISTOGRAM_RNG_SEED))
    assert Counter(len(t.minima) for t in rng_result.trajectories) == {1: 27, 2: 37, 3: 14}
    assert all(len(t.minima) >= 1 for t in rng_result.trajectories)
    assert all(verify_local_minimum(karate, c.nodes) for c in rng_result.communities)
    rng_sets = {labels_of(karate, c.nodes) for c in rng_result.communities}
    assert set(KARATE_NODES.values()) < rng_sets


@criterion(4, "named trajectories: minima sequences of four highlighted seeds")
def test_criterion_04_named_trajectories(karate):
    names_by_nodes = {indices_of(karate, nodes): n for n, nodes in KARATE_NODES.items()}

    def minima_names(u, v):
        traj = run_from_seed(karate, karate.find_link(u, v))
        return [names_by_nodes.get(m, "?") for m in traj.minima]

    assert minima_names("1", "5") == ["C4", "C3"]
    assert minima_names("33", "34") == ["C2", "C1"]
    assert minima_names("25", "26") == ["C5", "C2", "C1"]
    assert minima_names("1", "2") == ["C1"]


@criterion(5, "line-graph equivalence within 1e-10 on karate and random unit and weighted graphs")
def test_criterion_05_equivalence(karate):
    lg = build_line_graph(karate)
    checked = 0
    for nodes in KARATE_NODES.values():
        assert check_equivalence(karate, indices_of(karate, nodes), lg) < 1e-10
        checked += 1
    rng = random.Random(505)
    for _ in range(50):
        c = random_connected_subgraph(rng, karate, rng.randrange(2, 30))
        assert check_equivalence(karate, c, lg) < 1e-10
        checked += 1
    # twenty unit-weight graphs, then two per weight extreme
    for extreme in [None] * 20 + [e for e in WEIGHT_EXTREMES for _ in range(2)]:
        n = rng.randrange(6, 51)
        extra = rng.randrange(0, n)
        if extreme is None:
            g = random_connected_graph(rng, n, extra)
        else:
            g = spread_weighted_graph(rng, n, extra, *extreme)
        glg = build_line_graph(g)
        for _ in range(50):
            c = random_connected_subgraph(rng, g, rng.randrange(2, n + 1))
            assert check_equivalence(g, c, glg) < 1e-10
            checked += 1
    assert checked >= 1000
    print(f"    equivalence residual checked on {checked} subgraphs")


@criterion(6, "incremental updates match recomputation over 10^4 random moves")
def test_criterion_06_incremental(karate):
    rng = random.Random(606)
    moves = 0
    for trial in range(20):
        n = rng.randrange(10, 40)
        g = random_connected_graph(rng, n, rng.randrange(2, 2 * n))
        u, v = g.link_ends[rng.randrange(g.m)]
        state = SubgraphState(g, {u, v})
        done = 0
        while done < 500:
            if rng.random() < 0.55 and state.frontier:
                x = rng.choice(sorted(state.frontier))
                state.apply_add(x)
            else:
                legal = [i for i in sorted(state.members) if state.psi_after_remove(i) is not None]
                if not legal:
                    continue
                x = rng.choice(legal)
                before = state.psi
                after = state.psi_after_remove(x)
                assert after == pytest.approx(psi(g, state.members - {x}), abs=1e-9)
                state.apply_remove(x)
                if state.in_cnt[x] > 0:  # x still borders the set:
                    # removal and re-addition are exact inverses of each other
                    assert state.psi_after_add(x) == pytest.approx(before, abs=1e-12)
            sigma, k_in = sigma_and_k_in(g, state.members)
            assert state.sigma == pytest.approx(sigma, rel=1e-9, abs=1e-9)
            assert state.k_in == pytest.approx(k_in, rel=1e-9)
            done += 1
        moves += done
    assert moves >= 10_000
    print(f"    verified {moves} incremental moves")


@criterion(7, "greedy results lie inside the exhaustive minima; certificates hold")
def test_criterion_07_oracle_soundness(karate):
    rng = random.Random(707)
    checked = 0
    for trial in range(50):
        n = rng.randrange(5, 13)
        g = random_connected_graph(rng, n, rng.randrange(0, n))
        exact = set(exact_local_minima(g))
        for community in run_all_seeds(g).communities:
            assert community.nodes in exact
            checked += 1
    print(f"    {checked} greedy communities confirmed against exhaustive minima")
    for nodes in KARATE_NODES.values():
        members = indices_of(karate, nodes)
        assert verify_local_minimum(karate, members)
        state = SubgraphState(karate, members)
        base = state.psi
        uphill = min(state.psi_after_add(x) for x in state.frontier)
        assert uphill > base + 1e-12  # strict minimum: every addition climbs
        worst = min(state.frontier, key=lambda x: state.psi_after_add(x))
        assert not verify_local_minimum(karate, set(members) | {worst})


@criterion(8, "ground state: the whole connected graph has cut value exactly 0")
def test_criterion_08_ground_state(karate, karate_result):
    assert psi(karate, set(range(karate.n))) == 0.0
    for traj in karate_result.trajectories:
        assert traj.covers_graph
        assert traj.final_psi == 0.0
    rng = random.Random(808)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(4, 30), rng.randrange(0, 20))
        assert psi(g, set(range(g.n))) == 0.0


@criterion(9, "hierarchy: containment DAG and overlap kinds on karate")
def test_criterion_09_hierarchy(karate, karate_result, karate_named):
    names = [f"C{i + 1}" for i in range(len(karate_result.communities))]
    dag = build_polyhierarchy(karate, karate_result.communities, names)
    edges = set(dag.edges)
    for required in (("C2", "C5"), ("C2", "C6"), ("C3", "C4"), ("C3", "C7"),
                     ("C1", "C2"), ("C1", "C7")):
        assert required in edges
    assert sorted(p for p, c in dag.edges if c == "C7") == ["C1", "C3"]
    for a, b, kind in (
        ("C1", "C3", "permeating"),
        ("C2", "C3", "boundary-overlap"),
        ("C1", "C4", "boundary-overlap"),
    ):
        ca, cb = karate_named[a], karate_named[b]
        assert classify_overlap(ca.nodes, cb.nodes, ca.boundary, cb.boundary) == kind


@criterion(10, "determinism: byte-identical reports across runs and --jobs")
def test_criterion_10_determinism(tmp_path):
    blobs = []
    for name, jobs in (("r1.json", "1"), ("r2.json", "1"), ("r4.json", "4")):
        out = tmp_path / name
        assert cli.main(
            ["detect", "--dataset", "karate", "--tie-break", "det",
             "--jobs", jobs, "--out", str(out)]
        ) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]

"""Tests of the benchmark's own code: generators, greedy counts and span arithmetic.

Run from the repository root with: python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402
from generators import planted_overlapping, random_weighted  # noqa: E402
from tracing import Tracer, layer_self_times, self_times, trajectory_counts  # noqa: E402

from nodecut import Trajectory, is_connected, karate_graph, load_edge_list, run_all_seeds  # noqa: E402


@pytest.mark.parametrize(
    "make",
    [
        lambda s: planted_overlapping(s, 80),
        lambda s: random_weighted(s, 40, 80),
        lambda s: planted_overlapping(s, 16, min_degree=4, max_degree=8, min_community=5, max_community=9),
    ],
)
def test_generators_are_deterministic_simple_and_connected(make):
    texts = set()
    for seed in (0, 1, "3/2"):
        first, again = make(seed), make(seed)
        assert first.text == again.text and first.sha256 == again.sha256
        texts.add(first.text)
        g = load_edge_list(first.text, weighted=first.weighted)  # rejects self-loops
        assert (g.n, g.m) == (first.n, first.m)
        assert is_connected(g, range(g.n))
    assert len(texts) == 3


def test_default_seed_graphs_match_committed_digests():
    sys.path.insert(0, str(BENCH))
    import run

    golden = json.loads((BENCH / "golden.json").read_text())
    for name, wl in run.WORKLOADS.items():
        assert golden[name]["edges:main-0"] == wl.main(run.DEFAULT_SEED).sha256
        assert golden[name]["edges:small-0"] == wl.small(run.DEFAULT_SEED).sha256


def test_hierarchy_cut_keeps_the_longest_prefix_within_budget():
    sys.path.insert(0, str(BENCH))
    import run

    def community(nodes):
        nodes = sorted(nodes)
        return {"nodes": nodes, "links": [[a, b] for a, b in zip(nodes, nodes[1:])]}

    communities = [community({1, 2, 3}), community({2, 3, 4}), community({7, 8}), community({1, 2, 3, 4})]
    # work added by each community: 0; 9 + (2 nodes + 1 link); 18; 27 + (3 + 2) + (3 + 2) + 0
    assert [len(run.hierarchy_cut(communities, b)) for b in (0, 11, 12, 29, 30, 66, 67)] == [1, 1, 2, 2, 3, 3, 4]


def _traj(link_id, steps, minima):
    return Trajectory(
        link_id=link_id,
        seed=(0, 1),
        steps=[(i + 1, action, None, 0.0, 0) for i, action in enumerate(steps)],
        minima=[frozenset(m) for m in minima],
        final_nodes=frozenset(),
        final_psi=0.0,
        covers_graph=True,
    )


def test_revisited_share_counts_steps_after_an_earlier_seeds_minimum():
    rec = "record-minimum"
    first = _traj(0, ["add", rec, "add", rec, "add"], [{1, 2}, {1, 2, 3}])
    # records {4, 5} (new), then {1, 2, 3} (seen in seed 0): the two steps after it count
    second = _traj(1, ["add", "remove", rec, "add", rec, "add", "add"], [{4, 5}, {1, 2, 3}])
    # listed out of order: seeds are taken in link order
    counts = trajectory_counts([second, first], communities=[None] * 3)
    assert counts == {
        "steps": 12,
        "adds": 7,
        "removes": 1,
        "records": 4,
        "revisited_steps": 2,
        "communities": 3,
    }


def test_revisited_share_on_karate():
    result = run_all_seeds(karate_graph())
    counts = trajectory_counts(result.trajectories, result.communities)
    assert counts["steps"] == sum(len(t.steps) for t in result.trajectories)
    assert counts["records"] == sum(len(t.minima) for t in result.trajectories)
    assert counts["communities"] == 7
    # the first seed cannot revisit another seed's minimum, so its steps never count
    only_first = trajectory_counts(result.trajectories[:1], [])
    assert only_first["revisited_steps"] == 0
    assert 0 < counts["revisited_steps"] < counts["steps"] - len(result.trajectories[0].steps)


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        ["cli.detect", 0, 100, -1],
        ["greedy.run_all_seeds", 10, 30, 0],
        ["report.build_report", 20, 50, 0],  # overlaps its sibling: [10, 50] covered once
        ["graph.load_edge_list", 90, 120, 0],  # clipped to the parent's end: 10 covered
        ["greedy.run_from_seed", 12, 28, 1],  # grandchild: only its own parent loses it
    ]
    assert self_times(spans) == [50, 4, 30, 30, 16]
    assert layer_self_times(spans) == {"cli": 50, "greedy": 20, "report": 30, "graph": 30}


def test_tracer_records_parents_and_counts():
    tracer = Tracer("t")

    def inner(x):
        return x + 1

    counted = tracer.counted("psi.after_add", inner)
    outer = tracer.spanned("greedy.outer", lambda x: tracer.spanned("greedy.inner", counted)(x) * 2)
    assert outer(1) == 4
    (n0, s0, e0, p0), (n1, s1, e1, p1) = tracer.spans
    assert (n0, p0, n1, p1) == ("greedy.outer", -1, "greedy.inner", 0)
    assert s0 <= s1 <= e1 <= e0
    assert tracer.counts["psi.after_add"] == 1

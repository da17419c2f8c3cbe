"""Properties on generated graphs and reports: edge-list round trip, parse errors, reproducible
reports, and hierarchy JSON byte for byte."""

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodecut import Community, Graph, cli
from nodecut.errors import EdgeListError
from nodecut.graph import boundary_nodes, edge_list_text, induced_links, load_edge_list
from nodecut.greedy import TieBreakPolicy, run_all_seeds
from nodecut.hierarchy import build_polyhierarchy, dag_to_dot
from nodecut.report import (
    build_report,
    communities_from_report,
    community_entry,
    dumps_report,
    link_label_pairs,
    report_graph,
    sorted_labels,
    trajectory_csvs,
)
from conftest import random_connected_graph, random_weighted_graph

# numbers, and tokens that mix letters, digits and punctuation ("01", "x-1", "é.b")
LABEL = st.one_of(
    st.integers(-20, 2000).map(str),
    st.text(alphabet="abxyzé019_-./:", min_size=1, max_size=5),
)
# weights that print exactly at the 12 significant digits of edge_list_text
WEIGHT = st.floats(0.001, 1000.0).map(lambda w: float(f"{w:.12g}"))


@st.composite
def labelled_graphs(draw, weighted):
    labels = draw(st.lists(LABEL, min_size=2, max_size=12, unique=True))
    n = len(labels)
    pairs = {(i - 1, i) for i in range(1, n)}  # a path, so every label is on a link
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    links = [(u, v, draw(WEIGHT) if weighted else 1.0) for u, v in sorted(pairs)]
    return Graph(labels, links)


def canonical(g):
    return (
        sorted(g.labels),
        sorted((frozenset(g.link_label_pair(lid)), g.link_weights[lid]) for lid in range(g.m)),
    )


@given(st.booleans().flatmap(lambda weighted: st.tuples(st.just(weighted), labelled_graphs(weighted))))
def test_edge_list_text_round_trips(case):
    weighted, g = case
    reloaded = load_edge_list(edge_list_text(g), weighted=weighted)
    assert canonical(reloaded) == canonical(g)
    assert reloaded.unit_weighted == g.unit_weighted


# one line the parser must reject, for a weighted or an unweighted read
BAD_LINES = st.sampled_from(
    [
        (False, "lonely"),  # fewer than 2 tokens
        (False, "a a"),  # self-loop
        (False, "a b 2"),  # a weight on an unweighted read
        (True, "a b c d"),  # more than 3 tokens
        (True, "a b heavy"),  # a weight that is not a number
        (True, "a b 0"),
        (True, "a b -1.5"),
        (True, "a b nan"),
        (True, "a b inf"),
        (True, "a b 1e309"),  # overflows to inf when parsed
        (True, "x x 1"),
    ]
)
GOOD_LINE = st.tuples(LABEL, LABEL, WEIGHT).filter(lambda t: t[0] != t[1])  # (u, v, weight)


@given(
    st.lists(GOOD_LINE, max_size=6, unique_by=lambda t: frozenset(t[:2])),
    BAD_LINES,
    st.integers(0, 6),
    st.sampled_from(["", "  # note", "\t"]),
)
def test_malformed_edge_list_ends_in_one_error_line(good, bad, at, tail):
    weighted, bad_line = bad
    lines = [f"{u} {v} {w:.12g}" if weighted else f"{u} {v}" for u, v, w in good]
    at = min(at, len(lines))
    lines.insert(at, bad_line + tail)
    text = "\n".join(lines) + "\n"
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(text, weighted=weighted)
    assert exc.value.line == at + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["detect", path] + (["--weighted"] if weighted else []))
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1
    assert err.getvalue().startswith(f"nodecut: error[edge-list]: line {at + 1}: ")


@st.composite
def random_graphs(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = random_weighted_graph if draw(st.booleans()) else random_connected_graph
    return make(rng, n, rng.randrange(0, 2 * n))


def detect_outputs(g, policy, jobs=1):
    """Report text and every trajectory CSV text of an all-seeds run."""
    result = run_all_seeds(g, policy, jobs=jobs)
    report = dumps_report(build_report(g, result, policy, "g.edges", trajectory_dir="traj"))
    return report, trajectory_csvs(g, result.trajectories)


@settings(max_examples=20)
@given(
    st.lists(st.text(alphabet='a,"\' \r\n;é', min_size=1, max_size=4), min_size=6, max_size=6, unique=True),
    st.integers(0, 2**32 - 1),
)
def test_trajectory_csvs_quote_like_the_csv_module(labels, graph_seed):
    """Rows rendered once and reused give the csv module's text of every run."""
    shape = random_connected_graph(random.Random(graph_seed), len(labels), 4)
    g = Graph(labels, [(u, v, 1.0) for u, v in shape.link_ends])
    result = run_all_seeds(g, TieBreakPolicy("random", graph_seed))
    expected = []
    for traj in result.trajectories:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["step", "action", "node", "psi", "size"])
        writer.writerows(
            (str(step), action, "" if node is None else g.labels[node], f"{value:.12g}", str(size))
            for step, action, node, value, size in traj.steps
        )
        expected.append(buf.getvalue())
    assert trajectory_csvs(g, result.trajectories) == expected


@settings(max_examples=30)
@given(random_graphs(4, 24), st.integers(0, 2**32 - 1))
def test_random_tie_break_reproduces_from_its_seed(g, rng_seed):
    policy = TieBreakPolicy("random", rng_seed)
    first = detect_outputs(g, policy)
    random.seed(rng_seed + 1)  # the policy's generators do not read the global one
    assert detect_outputs(g, policy) == first


@settings(max_examples=3)
@given(random_graphs(12, 30), st.integers(0, 2**32 - 1))
def test_jobs_do_not_change_report_bytes(g, rng_seed):
    """jobs=2 gives the report and CSVs of jobs=1, byte for byte."""
    for policy in (TieBreakPolicy(), TieBreakPolicy("random", rng_seed)):
        assert detect_outputs(g, policy, jobs=2) == detect_outputs(g, policy, jobs=1)


@settings(max_examples=20)
@given(random_graphs(4, 24), st.sampled_from([None, 1]), st.booleans())
def test_detect_reports_round_trip(g, rng_seed, ground_state):
    """Every detect report loads against its input graph. Each entry lists
    the links among its nodes and their boundary, and loads back to the
    detected node sets and boundaries; an included ground state is left out."""
    policy = TieBreakPolicy() if rng_seed is None else TieBreakPolicy("random", rng_seed)
    result = run_all_seeds(g, policy)
    report = json.loads(dumps_report(build_report(g, result, policy, "g.edges", include_ground_state=ground_state)))
    loaded, names = communities_from_report(g, report)
    entries = report["communities"][ground_state:]
    assert names == [e["name"] for e in entries]
    for entry, c in zip(entries, loaded):
        links = induced_links(g, c.nodes)
        assert len(entry["links"]) == entry["link_count"] == len(links)
        assert {frozenset(pair) for pair in entry["links"]} == {frozenset(g.link_label_pair(lid)) for lid in links}
        assert set(entry["boundary"]) == {g.labels[i] for i in boundary_nodes(g, c.nodes)}
    assert [(c.nodes, c.boundary) for c in loaded] == [(c.nodes, c.boundary) for c in result.communities]


# labels JSON must escape ('"', '\\', non-ASCII) among numeric ones
ESCAPED_LABEL = st.one_of(
    st.integers(-5, 300).map(str),
    st.text(alphabet='ab"\\é\u4e2d\U0001f600x09', min_size=1, max_size=4),
)


@st.composite
def hierarchy_reports(draw):
    """Reports in the form detect writes, of any node and boundary sets on a random
    graph, and an optional ground state."""
    labels = draw(st.lists(ESCAPED_LABEL, min_size=2, max_size=9, unique=True))
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(labels, [(u, v, 1.0) for u, v in sorted(draw(st.sets(st.sampled_from(pairs), max_size=15)))])
    some_nodes = st.sets(st.integers(0, n - 1), min_size=1)
    entries = []
    for k in range(draw(st.integers(1, 7))):
        # now and then the whole graph, which the reader leaves out like a ground state
        nodes = set(range(n)) if draw(st.integers(0, 5)) == 0 else draw(some_nodes)
        # most members on the boundary, a few inside it, and now and then a non-member
        inner = draw(st.sets(st.integers(0, n - 1), max_size=2))
        boundary = (nodes - inner) | draw(st.sets(st.integers(0, n - 1), max_size=1))
        name = f"C{k + 1}" + draw(st.text(alphabet='"\\é ', max_size=2))
        entries.append(community_entry(g, name, Community(frozenset(nodes), 0.5, frozenset(boundary))))
    if draw(st.booleans()):  # --include-ground-state
        entries.insert(0, community_entry(g, "C0", Community(frozenset(range(n)), 0.0, frozenset())))
    return {"graph": {"n": n, "m": g.m, "labels": labels}, "communities": entries}


def reference_kind(a, b):
    """Overlap kind of two communities, as the nodecut.hierarchy docstring defines it."""
    if a.nodes <= b.nodes or b.nodes <= a.nodes:  # nesting takes precedence
        return "nested"
    shared = a.nodes & b.nodes
    if not shared:
        return "disjoint"
    if all(i in a.boundary and i in b.boundary for i in shared):
        return "boundary-overlap"
    return "permeating"


def pairs_document_text(report):
    """dumps_report of the {"names", "edges", "pairs"} document, built pair by pair from sets;
    shared links are those both entries list."""
    g = report_graph(report)
    communities, names = communities_from_report(g, report)
    listed = {str(e["name"]): {g.find_link(u, v) for u, v in e["links"]} for e in report["communities"]}
    named = list(zip(names, communities))
    dag = build_polyhierarchy(g, [c for _, c in named], [name for name, _ in named])
    pairs = []
    for i, (a, ca) in enumerate(named):
        for b, cb in named[i + 1 :]:
            pairs.append(
                {
                    "a": a,
                    "b": b,
                    "kind": reference_kind(ca, cb),
                    "shared_nodes": sorted_labels(g, ca.nodes & cb.nodes),
                    "shared_links": link_label_pairs(g, listed[a] & listed[b]),
                    "covers_graph": len(ca.nodes | cb.nodes) == g.n,
                }
            )
    doc = {"names": dag.names, "edges": [[p, c] for p, c in dag.edges], "pairs": pairs}
    return dumps_report(doc), dag_to_dot(dag)


def run_hierarchy(report_path, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["hierarchy", "--report", report_path, *args])
    assert code == 0
    return out.getvalue()


def assert_streamed_json_is_the_document(report):
    expected, dot = pairs_document_text(report)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_report(report))
        json_path, dot_path, both = (os.path.join(tmp, f) for f in ("pairs.json", "dag.dot", "both.txt"))
        assert run_hierarchy(path, "--dot", dot_path, "--json", json_path) == ""
        with open(json_path, encoding="utf-8", newline="") as fh:
            assert fh.read() == expected
        with open(dot_path, encoding="utf-8", newline="") as fh:
            assert fh.read() == dot
        assert run_hierarchy(path, "--json", "-") == dot + expected
        assert run_hierarchy(path, "--dot", both, "--json", both) == ""
        with open(both, encoding="utf-8", newline="") as fh:
            assert fh.read() == expected  # the later text wins
    return expected


@settings(max_examples=80)
@given(hierarchy_reports())
def test_streamed_hierarchy_json_is_dumps_report_of_the_pairs_document(report):
    assert_streamed_json_is_the_document(report)


@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize("ground_state", [False, True])
def test_hierarchy_json_without_pairs(count, ground_state):
    """No named community or one, with and without the ground state: "pairs" is []."""
    labels = ["b", "10", "2"]
    g = Graph(labels, [(0, 2, 1.0), (2, 1, 1.0)])
    entries = [community_entry(g, "C0", Community(frozenset({0, 1, 2}), 0.0, frozenset()))]
    entries += [community_entry(g, "C1", Community(frozenset({2, 0}), 0.5, frozenset({0})))][:count]
    report = {"graph": {"n": 3, "m": 2, "labels": labels}, "communities": entries[not ground_state :]}
    text = assert_streamed_json_is_the_document(report)
    assert text.endswith('"pairs": []\n}\n')


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_a_failing_property_test_is_reported_under_the_repository_settings(tmp_path):
    """A failing @given test under this repository's pytest settings fails that
    test (exit 1), not the session: no warning raised while reporting it
    becomes an INTERNALERROR that stops every later test."""
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    argv = ["-m", "pytest", "-p", "no:cacheprovider", "-c", str(config), "--rootdir", str(tmp_path), "test_fails.py"]
    run = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout

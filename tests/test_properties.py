"""Properties on generated graphs: edge-list round trip, parse errors, reproducible reports."""

import contextlib
import io
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodecut import Graph, cli
from nodecut.errors import EdgeListError
from nodecut.graph import edge_list_text, load_edge_list
from nodecut.greedy import TieBreakPolicy, run_all_seeds
from nodecut.report import build_report, dumps_report, trajectory_csv
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
    return report, [trajectory_csv(g, t) for t in result.trajectories]


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
    """A two-worker pool gives the serial sweep's report and CSVs, byte for byte."""
    for policy in (TieBreakPolicy(), TieBreakPolicy("random", rng_seed)):
        assert detect_outputs(g, policy, jobs=2) == detect_outputs(g, policy, jobs=1)

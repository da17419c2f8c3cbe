"""Label order in reports and report JSON text."""

import json

from hypothesis import example, given
from hypothesis import strategies as st

from nodecut import Graph, cli
from nodecut.graph import label_sort_key
from nodecut.report import dumps_report, link_label_pairs, sorted_labels


def reference_sorted_labels(g, indices):
    """Label order as every report listed it before Graph.rank: re-key each label."""
    return sorted((g.labels[i] for i in indices), key=label_sort_key)


def reference_link_label_pairs(g, link_ids):
    pairs = [sorted(g.link_label_pair(lid), key=label_sort_key) for lid in link_ids]
    pairs.sort(key=lambda p: (label_sort_key(p[0]), label_sort_key(p[1])))
    return pairs


# numbers, and tokens over an alphabet that also spells numbers ("01", "1_0")
LABEL = st.one_of(
    st.integers(-20, 2000).map(str),
    st.text(alphabet="abxyz019_-", min_size=1, max_size=4),
)


@st.composite
def graphs_with_distinct_keys(draw):
    labels = draw(st.lists(LABEL, min_size=2, max_size=14, unique_by=label_sort_key))
    n = len(labels)
    links = {(i - 1, i) for i in range(1, n)}
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            links.add((min(u, v), max(u, v)))
    return Graph(labels, [(u, v, 1.0) for u, v in sorted(links)])


@given(graphs_with_distinct_keys(), st.data())
def test_label_order_matches_rekeying_each_label(g, data):
    nodes = data.draw(st.sets(st.integers(0, g.n - 1)))
    link_ids = data.draw(st.sets(st.integers(0, g.m - 1)))
    assert sorted_labels(g, nodes) == reference_sorted_labels(g, nodes)
    assert sorted_labels(g, range(g.n)) == reference_sorted_labels(g, range(g.n))
    assert link_label_pairs(g, link_ids) == reference_link_label_pairs(g, link_ids)


# 1, 01 and 001 share one sort key; they first appear in the order 01, 001, 1
TIED = ("01", "001", "1")
TIED_EDGE_LIST = """\
10 c
y x
y 10
01 x
01 001
c 001
a 01
z 01
z x
a z
z c
001 1
10 x
z y
"""


def test_tied_label_keys_keep_first_appearance_order(tmp_path):
    edges = tmp_path / "tied.edges"
    edges.write_text(TIED_EDGE_LIST)
    out = tmp_path / "report.json"
    assert cli.main(["detect", str(edges), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["graph"]["labels"] == ["01", "001", "1", "10", "a", "c", "x", "y", "z"]
    pos = {lab: i for i, lab in enumerate(report["graph"]["labels"])}
    shared = 0
    for c in report["communities"]:
        assert c["nodes"] == sorted(c["nodes"], key=pos.get)
        assert c["boundary"] == sorted(c["boundary"], key=pos.get)
        assert all(pair == sorted(pair, key=pos.get) for pair in c["links"])
        assert c["links"] == sorted(c["links"], key=lambda p: (pos[p[0]], pos[p[1]]))
        shared += sum(lab in TIED for lab in c["nodes"]) > 1
    assert shared, "no community holds two tied labels"


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(), st.text(alphabet="aé\u2603\U0001f600\"\\\n")
)
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.text(), max_size=5)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


@given(st.dictionaries(st.text(), JSON_DOCUMENTS, max_size=5))
@example({"é": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, [], {}, [[]], True, None, 10**30]})
def test_dumps_report_writes_the_bytes_of_json_dumps(doc):
    """Nested dicts and lists of non-ASCII strings, ints, floats (NaN and
    infinities too), booleans and None, empty containers included."""
    assert dumps_report(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

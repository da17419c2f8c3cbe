"""Command-line surface: subcommands, formats, and exit codes."""

import csv
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from nodecut import MAX_WEIGHT_RATIO, WEIGHT_RANGE, Community, cli, greedy, karate_graph, load_edge_list, psi
from nodecut.graph import boundary_nodes
from nodecut.report import community_entry
from conftest import KARATE_NODES, OSCILLATING, PATH3, TWO_TRIANGLES, fuzz_graph


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def written_entry(g, name, labels, seed_count=1, stability=None):
    """The entry detect writes for a community of the given node labels on g."""
    nodes = frozenset(map(g.index_of, labels))
    community = Community(nodes, psi(g, nodes), frozenset(boundary_nodes(g, nodes)), seed_count, stability)
    return community_entry(g, name, community)


@pytest.fixture()
def karate_report(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["detect", "--dataset", "karate", "--out", str(out)]) == 0
    return out


def test_detect_karate_report(karate_report):
    report = json.loads(karate_report.read_text())
    assert report["graph"] == {
        "n": 34,
        "m": 78,
        "weighted": False,
        "connected": True,
        "components": 1,
        "labels": sorted((str(i) for i in range(1, 35)), key=int),
        "source": "karate",
    }
    names = [c["name"] for c in report["communities"]]
    assert names == [f"C{i}" for i in range(1, 8)]
    assert {frozenset(c["nodes"]) for c in report["communities"]} == set(KARATE_NODES.values())
    assert report["seeds"]["histogram"] == {"1": 27, "2": 42, "3": 9}
    assert report["seeds"]["every_seed_recorded_a_minimum"] is True
    assert report["ground_state"]["psi"] == 0.0


def test_detect_stdout_and_stderr_summary(capsys):
    code, out, err = run_cli(["detect", "--dataset", "karate"], capsys)
    assert code == 0
    assert json.loads(out)["graph"]["n"] == 34
    assert "78 seed run(s)" in err


def test_detect_single_seed_with_trajectories(tmp_path, capsys):
    traj_dir = tmp_path / "traj"
    out = tmp_path / "single.json"
    code, _, _ = run_cli(
        [
            "detect",
            "--dataset",
            "karate",
            "--seed",
            "33,34",
            "--trajectories",
            str(traj_dir),
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "single-seed"
    assert [c["node_count"] for c in report["communities"]] == [29, 21]
    files = report["trajectories"]["files"]
    assert len(files) == 1
    with (traj_dir / files[0]).open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "action", "node", "psi", "size"]
    records = [r for r in rows[1:] if r[1] == "record-minimum"]
    assert [int(r[4]) for r in records] == [21, 29]
    assert rows[-1][4] == "34"  # run ends at the whole graph


def test_detect_include_ground_state(tmp_path, capsys):
    out = tmp_path / "gs.json"
    code, _, _ = run_cli(
        ["detect", "--dataset", "karate", "--include-ground-state", "--out", str(out)], capsys
    )
    assert code == 0
    communities = json.loads(out.read_text())["communities"]
    assert communities[0]["name"] == "C0"
    assert communities[0]["node_count"] == 34
    assert communities[0]["psi"] == 0.0
    assert len(communities) == 8


def test_detect_deterministic_reports_are_byte_identical(tmp_path, capsys):
    outs = []
    for name, jobs in (("a.json", "1"), ("b.json", "1"), ("c.json", "2")):
        path = tmp_path / name
        code, _, _ = run_cli(
            ["detect", "--dataset", "karate", "--tie-break", "det", "--jobs", jobs, "--out", str(path)],
            capsys,
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_detect_seed_not_a_link(capsys):
    code, _, err = run_cli(["detect", "--dataset", "karate", "--seed", "1,34"], capsys)
    assert code == 2
    assert "nodecut: error[seed]" in err


def test_detect_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("1 1\n")
    code, _, err = run_cli(["detect", str(bad)], capsys)
    assert code == 2
    assert "error[edge-list]" in err and "line 1" in err


def test_detect_disconnected_exit_3(tmp_path, capsys):
    disc = tmp_path / "disc.edges"
    disc.write_text("1 2\n3 4\n")
    code, _, err = run_cli(["detect", str(disc)], capsys)
    assert code == 3
    assert "error[disconnected-graph]" in err
    code, out, _ = run_cli(["detect", str(disc), "--allow-disconnected"], capsys)
    assert code == 0
    assert json.loads(out)["graph"]["components"] == 2


def test_detect_walks_components_once(tmp_path, capsys, monkeypatch):
    import nodecut
    from nodecut.datasets import karate_graph

    original = nodecut.graph.connected_components
    calls = []

    def counted(g):
        calls.append(g)
        return original(g)

    # every module that binds the name, so a call through any import is seen
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("nodecut") and (
            getattr(module, "connected_components", None) is original
        ):
            monkeypatch.setattr(module, "connected_components", counted)
    # build the cached karate graph inside the command
    karate_graph.cache_clear()
    code, _, _ = run_cli(["detect", "--dataset", "karate", "--out", str(tmp_path / "r.json")], capsys)
    karate_graph.cache_clear()
    assert code == 0
    assert len(calls) == 1


def test_detect_path3_reports_ground_state_only(tmp_path, capsys):
    edges = tmp_path / "path3.edges"
    edges.write_text(PATH3)
    code, out, _ = run_cli(["detect", str(edges)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["communities"] == []
    assert report["ground_state"]["psi"] == 0.0
    assert report["ground_state"]["runs_reaching_it"] == 2


def test_oracle_two_triangles(tmp_path, capsys):
    edges = tmp_path / "twotri.edges"
    edges.write_text(TWO_TRIANGLES)
    code, out, _ = run_cli(["oracle", str(edges)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert {frozenset(m["nodes"]) for m in doc["minima"]} == {
        frozenset("1234"),
        frozenset("3456"),
    }


def test_oracle_and_detect_list_tied_minima_in_one_order(tmp_path, capsys):
    """Equal-psi minima come in label order in both documents, whatever
    order the edge list first names their nodes in."""
    edges = tmp_path / "reversed.edges"
    edges.write_text("5 6\n6 4\n4 5\n4 3\n3 1\n1 2\n2 3\n")
    report = tmp_path / "report.json"
    assert cli.main(["detect", str(edges), "--out", str(report)]) == 0
    code, out, _ = run_cli(["oracle", str(edges)], capsys)
    assert code == 0
    oracle = [m["nodes"] for m in json.loads(out)["minima"]]
    detect = [c["nodes"] for c in json.loads(report.read_text())["communities"]]
    assert oracle == detect == [["1", "2", "3", "4"], ["3", "4", "5", "6"]]


def test_oracle_cap_exit_4(tmp_path, capsys):
    code, _, err = run_cli(["oracle", "--dataset", "karate"], capsys)
    assert code == 4
    assert "error[too-large]" in err
    edges = tmp_path / "twotri.edges"
    edges.write_text(TWO_TRIANGLES)
    code, _, err = run_cli(["oracle", str(edges), "--max-nodes", "5"], capsys)
    assert code == 4
    assert err.endswith("6 nodes exceeds the enumeration cap 5; pass --force to override\n")
    code, out, _ = run_cli(["oracle", str(edges), "--max-nodes", "5", "--force"], capsys)
    assert code == 0 and json.loads(out)["count"] > 0


@pytest.mark.parametrize("cap", ["-1", "0", "1"])
def test_oracle_cap_below_two_is_a_usage_error(tmp_path, capsys, cap):
    """No graph with a link fits under a cap of fewer than two nodes, --force or not."""
    edges = tmp_path / "twotri.edges"
    edges.write_text(TWO_TRIANGLES)
    for force in ([], ["--force"]):
        code, out, err = run_cli(["oracle", str(edges), "--max-nodes", cap, *force], capsys)
        _assert_one_error(code, err, "usage")
        assert f"--max-nodes must be at least 2, not {cap}" in err
        assert out == ""
    code, out, _ = run_cli(["oracle", "--max-nodes", "2", str(edges)], capsys)
    assert code == 4


def test_oracle_compare_sound(tmp_path, capsys):
    edges = tmp_path / "twotri.edges"
    edges.write_text(TWO_TRIANGLES)
    report = tmp_path / "report.json"
    assert cli.main(["detect", str(edges), "--out", str(report)]) == 0
    code, out, _ = run_cli(["oracle", str(edges), "--compare", str(report)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["compare"]["sound"] is True
    assert doc["compare"]["greedy_only"] == []
    assert doc["compare"]["matched"] == 2


def test_oracle_compare_flags_fabricated_community(tmp_path, capsys):
    edges = tmp_path / "twotri.edges"
    edges.write_text(TWO_TRIANGLES)
    report_path = tmp_path / "report.json"
    assert cli.main(["detect", str(edges), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    report["communities"].append(written_entry(load_edge_list(TWO_TRIANGLES), "C9", ["1", "2", "3"]))
    report_path.write_text(json.dumps(report))
    code, out, err = run_cli(["oracle", str(edges), "--compare", str(report_path)], capsys)
    assert code == 1
    assert json.loads(out)["compare"]["greedy_only"] == ["C9"]
    assert "error[compare]" in err


def test_verify_karate_report_passes(karate_report, capsys):
    code, out, _ = run_cli(
        ["verify", "--dataset", "karate", "--report", str(karate_report)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_local_minima"] is True
    assert doc["equivalence_checked"] is True
    assert doc["max_equivalence_residual"] < 1e-10
    assert len(doc["checks"]) == 7


@pytest.mark.parametrize("extra", ["34", "9"])
def test_verify_tampered_report_exit_5(karate_report, tmp_path, capsys, extra):
    # "34" keeps C5 connected but breaks the minimum; "9" disconnects it
    report = json.loads(karate_report.read_text())
    k, entry = next((k, c) for k, c in enumerate(report["communities"]) if c["name"] == "C5")
    report["communities"][k] = written_entry(
        karate_graph(), "C5", [*entry["nodes"], extra], entry["seed_count"], entry["stability"]
    )
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    code, out, err = run_cli(
        ["verify", "--dataset", "karate", "--report", str(tampered)], capsys
    )
    assert code == 5
    assert "error[certificate]" in err and "C5" in err
    doc = json.loads(out)
    assert any(not c["local_minimum"] for c in doc["checks"])


def test_verify_passes_an_rng_report_on_a_spread_weighted_graph(tmp_path, capsys):
    """Large-fuzz graph 25 (spread 8.4e11) has a removal tie group that
    straddles -MOVE_TOL; the random policy still prunes down to certified
    minima."""
    g = fuzz_graph(25, 17, 40)
    edges = tmp_path / "fuzz25.edges"
    edges.write_text(
        "".join(f"{u + 1} {v + 1} {w!r}\n" for (u, v), w in zip(g.link_ends, g.link_weights))
    )
    report = tmp_path / "fuzz25.json"
    argv = ["detect", str(edges), "--weighted", "--tie-break", "rng", "--rng-seed", "25"]
    assert cli.main([*argv, "--out", str(report)]) == 0
    code, out, err = run_cli(["verify", str(edges), "--weighted", "--report", str(report)], capsys)
    assert code == 0, err
    assert json.loads(out)["all_local_minima"] is True


@pytest.mark.parametrize("nodes", [["1"], ["1", "4"]])
def test_verify_fails_a_community_without_an_internal_link(tmp_path, capsys, nodes):
    """Such a set is no place of the landscape: it has no psi and no line-graph
    cut, so its entry is refused instead of the command crashing."""
    edges, report_path = _two_triangle_report(tmp_path)
    report = json.loads(report_path.read_text())
    # each node has a link leaving
    report["communities"][0].update(nodes=nodes, node_count=len(nodes), links=[], link_count=0, boundary=nodes)
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    code, out, err = run_cli(["verify", str(edges), "--report", str(report_path)], capsys)
    _assert_one_error(code, err)
    assert "community C1: its nodes have no internal link" in err
    assert out == ""


def test_verify_leaves_out_the_ground_state_of_a_disconnected_graph(tmp_path, capsys):
    """The whole graph is no community: verify does not certify an included ground
    state, which on a disconnected graph is not even connected."""
    edges = tmp_path / "disjoint.edges"
    edges.write_text("1 2\n1 3\n2 3\n4 5\n4 6\n5 6\n")
    report_path = tmp_path / "report.json"
    assert cli.main(["detect", str(edges), "--allow-disconnected", "--include-ground-state", "--out", str(report_path)]) == 0
    assert [c["name"] for c in json.loads(report_path.read_text())["communities"]] == ["C0"]
    capsys.readouterr()
    code, out, err = run_cli(["verify", str(edges), "--report", str(report_path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["checks"] == []


def test_verify_equivalence_exit_6_when_tolerance_impossible(karate_report, capsys, monkeypatch):
    monkeypatch.setattr(cli, "EQUIVALENCE_TOL", -1.0)
    code, _, err = run_cli(
        ["verify", "--dataset", "karate", "--report", str(karate_report)], capsys
    )
    assert code == 6
    assert "error[equivalence]" in err


def test_verify_weighted_equivalence_on_request(tmp_path, capsys):
    """Weighted graphs get the line-graph check with --equivalence only, at every weight scale."""
    edges = tmp_path / "w.edges"
    report = tmp_path / "w.json"
    for scale in (1.0, WEIGHT_RANGE[0], WEIGHT_RANGE[1] / 4):
        w = [scale * x for x in (2, 1, 1, 4, 1, 3, 1)]
        edges.write_text("".join(f"{pair} {x!r}\n" for pair, x in zip(TWO_TRIANGLES.splitlines(), w)))
        assert cli.main(["detect", str(edges), "--weighted", "--out", str(report)]) == 0
        code, out, _ = run_cli(["verify", str(edges), "--weighted", "--report", str(report)], capsys)
        assert code == 0  # equivalence skipped by default on weighted graphs
        assert json.loads(out)["equivalence_checked"] is False
        code, out, err = run_cli(
            ["verify", str(edges), "--weighted", "--report", str(report), "--equivalence"], capsys
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["equivalence_checked"] is True
        assert doc["checks"] and all(c["equivalence_residual"] is not None for c in doc["checks"])
        assert doc["max_equivalence_residual"] < 1e-10


_DELETE = object()


def _edit(*path, value=_DELETE):
    """Report edit that deletes the item at path, or sets it to value."""
    *parents, key = path

    def edit(report):
        target = report
        for p in parents:
            target = target[p]
        if value is _DELETE:
            del target[key]
        else:
            target[key] = value
        return report

    return edit


MALFORMED_REPORTS = {
    "not-a-report": lambda report: {"not": "a report"},
    "no-graph-labels": _edit("graph", "labels"),
    "communities-not-a-list": lambda report: dict(
        report, communities={c["name"]: c for c in report["communities"]}
    ),
    "entry-without-name": _edit("communities", 0, "name"),
    "no-graph-n": _edit("graph", "n"),
    "graph-a-list": lambda report: dict(report, graph=list(report["graph"])),
    "duplicate-name": _edit("communities", 1, "name", value="C1"),
    # hierarchy would otherwise run on a stand-in graph with an extra, isolated node
    "duplicate-label": lambda report: _edit("graph", "labels", value=[*report["graph"]["labels"], "1"])(report),
    "node-not-in-graph": _edit("communities", 0, "nodes", value=["1", "2", "3", "99"]),
    # one-character labels, so iterating the strings would name the same nodes and links
    "nodes-a-string": lambda report: _edit(
        "communities", 0, "nodes", value="".join(report["communities"][0]["nodes"])
    )(report),
    "link-a-string": lambda report: _edit(
        "communities", 0, "links", value=["".join(link) for link in report["communities"][0]["links"]]
    )(report),
    "boundary-a-string": lambda report: _edit(
        "communities", 0, "boundary", value="".join(report["communities"][0]["boundary"])
    )(report),
    # otherwise valid JSON whose first community name holds byte 0xff
    "not-utf-8": lambda report: json.dumps(report).encode().replace(b'"C1"', b'"C\xff1"', 1),
}

REPORT_COMMANDS = {
    "verify": lambda edges, report: ["verify", edges, "--report", report],
    "hierarchy": lambda edges, report: ["hierarchy", "--report", report],
    "oracle": lambda edges, report: ["oracle", edges, "--compare", report],
}


def _two_triangle_report(tmp_path, *detect_args):
    edges = tmp_path / "twotri.edges"
    edges.write_text(TWO_TRIANGLES)
    report = tmp_path / "report.json"
    assert cli.main(["detect", str(edges), *detect_args, "--out", str(report)]) == 0
    return edges, report


def _assert_one_error(code, err, kind="report"):
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"nodecut: error[{kind}]: "), err


@pytest.mark.parametrize(
    "text",
    [
        "1 2 inf\n2 3 1\n1 3 1\n3 4 1\n",
        "1 2 1e309\n2 3 1\n1 3 1\n3 4 1\n",
        "1 2 1e308\n1 3 1e308\n2 3 1\n3 4 1\n",  # node 1's degree would overflow
    ],
    ids=["inf", "overflowing-literal", "overflowing-degree"],
)
def test_detect_rejects_non_finite_weights(tmp_path, capsys, text):
    edges = tmp_path / "huge.edges"
    edges.write_text(text)
    code, out, err = run_cli(["detect", "--weighted", str(edges)], capsys)
    _assert_one_error(code, err, "edge-list")
    assert out == ""


@pytest.mark.parametrize("heavy", ["1e20", "1e17"])
def test_detect_rejects_a_weight_spread_beyond_the_bound(tmp_path, capsys, heavy):
    """Beyond about 2**53 apart, a removal's remaining internal degree cancels to 0.0."""
    edges = tmp_path / "spread.edges"
    edges.write_text(f"1 2 {heavy}\n2 3 1\n1 3 1\n3 4 1\n")
    code, out, err = run_cli(["detect", "--weighted", str(edges)], capsys)
    _assert_one_error(code, err, "edge-list")
    assert "is more than 1e+12 times weight 1.0" in err
    assert out == ""


def test_detect_runs_a_weight_spread_just_under_the_bound(tmp_path, capsys):
    edges = tmp_path / "spread.edges"
    edges.write_text(f"1 2 {MAX_WEIGHT_RATIO * 0.999!r}\n2 3 1\n1 3 1\n3 4 1\n")
    code, out, err = run_cli(["detect", "--weighted", str(edges)], capsys)
    assert code == 0, err
    assert json.loads(out)["seeds"]["failures"] == []


def test_detect_reports_failed_seeds_without_claiming_every_minimum(tmp_path, capsys, monkeypatch):
    """With a budget of four escape phases, six seeds exhaust it; the minima
    they recorded before that, {1,8,9,10} and {6,8,9,10}, are still reported,
    so detect finds every exact minimum. A failed run is a seed run like any
    other in per_seed, the histogram and the trajectory CSVs."""
    monkeypatch.setattr(greedy, "_phase_budget", lambda g: 4)
    edges = tmp_path / "oscillating.edges"
    edges.write_text(OSCILLATING)
    report_path = tmp_path / "report.json"
    traj_dir = tmp_path / "traj"
    code, _, err = run_cli(
        [
            "detect",
            "--weighted",
            str(edges),
            "--out",
            str(report_path),
            "--trajectories",
            str(traj_dir),
        ],
        capsys,
    )
    assert code == 0, err
    report = json.loads(report_path.read_text())
    seeds = report["seeds"]
    assert seeds["total"] == 15
    assert len(seeds["failures"]) == 6
    assert all("no progress after 5 phases" in f["error"] for f in seeds["failures"])
    assert seeds["every_seed_recorded_a_minimum"] is False
    assert len(report["communities"]) == 3
    assert len(seeds["per_seed"]) == 15
    assert sum(seeds["histogram"].values()) == seeds["total"]
    files = sorted(p.name for p in traj_dir.iterdir())
    assert len(files) == 15
    assert sorted(report["trajectories"]["files"]) == files
    code, out, err = run_cli(
        ["oracle", "--weighted", str(edges), "--compare", str(report_path)], capsys
    )
    assert code == 0, err
    compare = json.loads(out)["compare"]
    assert (compare["matched"], compare["greedy_only"], compare["sound"]) == (3, [], True)


def test_detect_single_seed_that_exhausts_its_budget_keeps_its_minima(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(greedy, "_phase_budget", lambda g: 4)
    edges = tmp_path / "oscillating.edges"
    edges.write_text(OSCILLATING)
    code, out, err = run_cli(["detect", "--weighted", str(edges), "--seed", "1,8"], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert [c["nodes"] for c in report["communities"]] == [
        ["6", "8", "9", "10"],
        ["1", "8", "9", "10"],
    ]
    assert report["seeds"]["failures"] == [
        {"seed": ["1", "8"], "error": "seed ('1', '8'): no progress after 5 phases"}
    ]


@pytest.mark.parametrize("weight", ["1e200", "1e-170"])
def test_detect_rejects_weights_outside_the_range(tmp_path, capsys, weight):
    """Every weight 1e200 would give psi inf (not JSON), every weight 1e-170
    psi 0 and no community."""
    edges = tmp_path / "scaled.edges"
    edges.write_text("".join(f"{line} {weight}\n" for line in TWO_TRIANGLES.splitlines()))
    code, out, err = run_cli(["detect", "--weighted", str(edges)], capsys)
    _assert_one_error(code, err, "edge-list")
    assert f"weight {float(weight)!r} on link (1, 2) is outside [1e-100, 1e+100]" in err
    assert out == ""


@pytest.mark.parametrize("weight", ["1e100", "1e-100"])
def test_detect_scales_weights_at_the_ends_of_the_range(tmp_path, capsys, weight):
    edges = tmp_path / "scaled.edges"
    edges.write_text("".join(f"{line} {weight}\n" for line in TWO_TRIANGLES.splitlines()))
    code, out, err = run_cli(["detect", "--weighted", str(edges)], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert [(c["nodes"], c["psi"]) for c in report["communities"]] == [
        (["1", "2", "3", "4"], 0.0833333333333),  # a triangle and the bridge
        (["3", "4", "5", "6"], 0.0833333333333),
    ]
    assert report["seeds"]["every_seed_recorded_a_minimum"] is True


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
@pytest.mark.parametrize("shape", list(MALFORMED_REPORTS))
def test_verify_malformed_report_exit_2(tmp_path, capsys, command, shape):
    edges, report_path = _two_triangle_report(tmp_path)
    bad = tmp_path / "bad.json"
    doc = MALFORMED_REPORTS[shape](json.loads(report_path.read_text()))
    bad.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    capsys.readouterr()
    code, _, err = run_cli(REPORT_COMMANDS[command](str(edges), str(bad)), capsys)
    _assert_one_error(code, err)


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_report_link_not_in_graph_exit_2(tmp_path, capsys, command):
    edges, report_path = _two_triangle_report(tmp_path)
    report = json.loads(report_path.read_text())
    report["communities"][0]["links"].append(["1", "6"])
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    code, out, err = run_cli(REPORT_COMMANDS[command](str(edges), str(report_path)), capsys)
    _assert_one_error(code, err)
    assert out == ""


# edit of the two-triangle report's entry C1 (nodes 1-4) -> the key its refusal names
ENTRY_EDITS = {
    "link-too-few": (lambda entry: entry["links"].pop(0), "links"),
    # a link of the graph that leaves the community
    "link-too-many": (lambda entry: entry["links"].append(["4", "5"]), "links"),
    "links-reordered": (lambda entry: entry["links"].reverse(), "links"),
    "node-count": (lambda entry: entry.update(node_count=7), "node_count"),
    "link-count": (lambda entry: entry.update(link_count=99), "link_count"),
    "stability-bogus": (lambda entry: entry.update(stability="bogus"), "stability"),
    "seed-count-negative": (lambda entry: entry.update(seed_count=-1), "seed_count"),
    "seed-count-a-float": (lambda entry: entry.update(seed_count=1.0), "seed_count"),
    "seed-count-true": (lambda entry: entry.update(seed_count=True), "seed_count"),
    # json writes Infinity, which int() cannot convert
    "seed-count-infinite": (lambda entry: entry.update(seed_count=float("inf")), "seed_count"),
    "psi-unrounded": (lambda entry: entry.update(psi=1 / 12), "psi"),
    "psi-a-string": (lambda entry: entry.update(psi=str(entry["psi"])), "psi"),
    "added-key": (lambda entry: entry.update(note="hand-edited"), "note"),
    "missing-key": (lambda entry: entry.pop("stability"), "stability"),
}


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
@pytest.mark.parametrize("edit", list(ENTRY_EDITS))
def test_report_links_not_the_links_among_the_nodes_exit_2(tmp_path, capsys, command, edit):
    """An entry that detect would not write for its nodes is refused, naming the
    first key that differs: links not exactly those among its nodes in label
    order, a count, or a value not in the form detect writes. The ground state
    names every link, so hierarchy's stand-in graph has them all."""
    edges, report_path = _two_triangle_report(tmp_path, "--include-ground-state")
    report = json.loads(report_path.read_text())
    entry = report["communities"][1]
    assert entry["nodes"] == ["1", "2", "3", "4"]
    change, key = ENTRY_EDITS[edit]
    change(entry)
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    code, out, err = run_cli(REPORT_COMMANDS[command](str(edges), str(report_path)), capsys)
    _assert_one_error(code, err)
    assert "community entry 1 (C1)" in err and f" {key}" in err
    assert out == ""


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
def test_report_seed_count_is_taken_as_listed(tmp_path, capsys, command):
    """No graph can check how many runs recorded a community."""
    edges, report_path = _two_triangle_report(tmp_path)
    report = json.loads(report_path.read_text())
    report["communities"][0]["seed_count"] = 999
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    code, _, err = run_cli(REPORT_COMMANDS[command](str(edges), str(report_path)), capsys)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_report_psi_not_the_psi_of_the_nodes_exit_2(tmp_path, capsys, command):
    """verify and oracle --compare refuse an entry whose psi is not that of its
    nodes on the input graph; hierarchy's stand-in graph has no weights to tell."""
    edges, report_path = _two_triangle_report(tmp_path)
    report = json.loads(report_path.read_text())
    report["communities"][0]["psi"] = 0.9
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    code, out, err = run_cli(REPORT_COMMANDS[command](str(edges), str(report_path)), capsys)
    _assert_one_error(code, err)
    assert "community C1: psi 0.9 is not the psi of its nodes, 0.0833333333333" in err
    assert out == ""


@pytest.mark.parametrize("command", ["verify", "oracle"])
@pytest.mark.parametrize("boundary", [[], ["2", "3"], ["3", "5"]], ids=["empty", "inner-nodes", "a-non-member"])
def test_report_boundary_not_the_boundary_of_the_nodes_exit_2(tmp_path, capsys, command, boundary):
    """verify and oracle --compare refuse an entry whose boundary is not its
    members with a link leaving it: hierarchy tells boundary-overlap from
    permeating pairs by it."""
    edges, report_path = _two_triangle_report(tmp_path)
    report = json.loads(report_path.read_text())
    entry = report["communities"][0]
    assert (entry["nodes"], entry["boundary"]) == (["1", "2", "3", "4"], ["4"])
    entry["boundary"] = boundary
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    code, out, err = run_cli(REPORT_COMMANDS[command](str(edges), str(report_path)), capsys)
    _assert_one_error(code, err)
    assert "community C1: its boundary is not its members with a link leaving it" in err
    assert out == ""


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_report_of_another_graph_exit_2(tmp_path, capsys, command):
    """A report made on another graph is refused, not checked community by community."""
    _, report_path = _two_triangle_report(tmp_path)
    larger = tmp_path / "larger.edges"
    larger.write_text(TWO_TRIANGLES + "6 7\n7 1\n")
    capsys.readouterr()
    code, out, err = run_cli(REPORT_COMMANDS[command](str(larger), str(report_path)), capsys)
    _assert_one_error(code, err, "compare")
    assert "report graph size does not match the input graph" in err
    assert out == ""


@pytest.mark.parametrize(
    "command, content",
    [("detect", b"1 2\n2 \xff\n"), ("oracle", b"1 2\n2 \xff\n"), ("linegraph", b"1 2\n2 \xff\n"), ("detect", None)],
    ids=["detect", "oracle", "linegraph", "detect-absent"],
)
def test_edge_list_not_utf8_exit_2(tmp_path, capsys, command, content):
    """An edge list that is not UTF-8, or (content None) not there, is refused as input."""
    edges = tmp_path / "bad.edges"
    if content is not None:
        edges.write_bytes(content)
    code, out, err = run_cli([command, str(edges)], capsys)
    _assert_one_error(code, err, "input")
    assert out == ""


@pytest.mark.parametrize("command", [["detect"], ["verify", "--report", "absent.json"], ["linegraph"]], ids=lambda c: c[0])
def test_edge_list_without_links_exit_2(tmp_path, capsys, command):
    """An edge list of comments only is refused before any report is read."""
    edges = tmp_path / "comments.edges"
    edges.write_text("# no links here\n\n")
    code, out, err = run_cli([command[0], str(edges), *command[1:]], capsys)
    assert (code, out, err) == (2, "", "nodecut: error[empty-graph]: input contains no links\n")


OUTPUT_WRITES = {
    "detect-out": lambda edges, report, bad: ["detect", edges, "--out", bad],
    "detect-trajectories": lambda edges, report, bad: ["detect", edges, "--trajectories", report],
    "hierarchy-json": lambda edges, report, bad: ["hierarchy", "--report", report, "--json", bad],
    "hierarchy-dot": lambda edges, report, bad: ["hierarchy", "--report", report, "--dot", bad],
    "oracle-out": lambda edges, report, bad: ["oracle", edges, "--out", bad],
    "linegraph-out": lambda edges, report, bad: ["linegraph", edges, "--out", bad],
}


@pytest.mark.parametrize("write", list(OUTPUT_WRITES))
def test_output_write_failure_exit_2(tmp_path, capsys, write):
    """An unwritable output path (missing directory, or a file where a directory goes)."""
    edges, report = _two_triangle_report(tmp_path)
    bad = tmp_path / "missing" / "out.txt"
    capsys.readouterr()
    code, out, err = run_cli(OUTPUT_WRITES[write](str(edges), str(report), str(bad)), capsys)
    _assert_one_error(code, err, "output")
    assert out == ""


@pytest.mark.parametrize("where", ["out", "trajectories"])
def test_detect_checks_output_paths_before_running_seeds(tmp_path, capsys, monkeypatch, where):
    edges, report = _two_triangle_report(tmp_path)

    def no_run(*args, **kwargs):
        raise AssertionError("seed runs started before the output paths were checked")

    monkeypatch.setattr("nodecut.greedy.run_all_seeds", no_run)
    bad = {
        "out": ["--out", str(tmp_path / "missing" / "r.json")],
        "trajectories": ["--trajectories", str(report)],  # an existing file
    }
    capsys.readouterr()
    code, out, err = run_cli(["detect", str(edges), *bad[where]], capsys)
    _assert_one_error(code, err, "output")
    assert out == ""


# command -> (the functions of the work it must not start, argv with a bad output path)
HIERARCHY_WORK = ["nodecut.hierarchy.build_polyhierarchy", "nodecut.hierarchy.hierarchy_json"]
EARLY_OUTPUT_CHECKS = {
    "hierarchy-json": (
        HIERARCHY_WORK,
        lambda edges, report, bad: ["hierarchy", "--report", report, "--json", bad],
    ),
    "hierarchy-dot": (
        HIERARCHY_WORK,
        lambda edges, report, bad: ["hierarchy", "--report", report, "--dot", bad],
    ),
    "oracle-out": (
        ["nodecut.landscape.exact_local_minima"],
        lambda edges, report, bad: ["oracle", edges, "--out", bad],
    ),
}


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the inputs and output paths were checked")


@pytest.mark.parametrize("write", list(EARLY_OUTPUT_CHECKS))
def test_hierarchy_and_oracle_check_output_paths_before_the_work(tmp_path, capsys, monkeypatch, write):
    edges, report = _two_triangle_report(tmp_path)
    work, argv = EARLY_OUTPUT_CHECKS[write]
    for target in work:
        monkeypatch.setattr(target, _no_work)
    capsys.readouterr()
    code, out, err = run_cli(argv(str(edges), str(report), str(tmp_path / "missing" / "x.json")), capsys)
    _assert_one_error(code, err, "output")
    assert out == ""


def test_oracle_checks_the_compared_report_before_enumerating(tmp_path, capsys, monkeypatch):
    """A refused report ends oracle --compare before the enumeration, which on a
    --force run of a large graph would take longer than any report check."""
    edges, report_path = _two_triangle_report(tmp_path)
    report = json.loads(report_path.read_text())
    report["communities"][0]["psi"] = 0.9
    report_path.write_text(json.dumps(report))
    monkeypatch.setattr("nodecut.landscape.exact_local_minima", _no_work)
    capsys.readouterr()
    code, out, err = run_cli(["oracle", str(edges), "--compare", str(report_path)], capsys)
    _assert_one_error(code, err)
    assert out == ""


def test_detect_writes_all_outputs_or_none(tmp_path, capsys):
    """A trajectory CSV that cannot be written leaves no report and no other CSV."""
    edges = tmp_path / "twotri.edges"
    edges.write_text(TWO_TRIANGLES)
    traj = tmp_path / "traj"
    blocker = traj / "seed-0006-5-6.csv"  # the last run's CSV name
    blocker.mkdir(parents=True)
    code, out, err = run_cli(
        ["detect", str(edges), "--out", str(tmp_path / "r.json"), "--trajectories", str(traj)],
        capsys,
    )
    _assert_one_error(code, err, "output")
    assert err.startswith(f"nodecut: error[output]: {blocker}: ")
    assert out == ""
    assert not (tmp_path / "r.json").exists()
    assert list(traj.iterdir()) == [blocker]


def test_detect_trajectory_files_match_the_report(tmp_path, capsys):
    """The report lists every CSV the run wrote, into a directory created with its parents."""
    edges = tmp_path / "twotri.edges"
    edges.write_text(TWO_TRIANGLES)
    traj = tmp_path / "new" / "traj"
    code, _, _ = run_cli(
        ["detect", str(edges), "--out", str(tmp_path / "r.json"), "--trajectories", str(traj)],
        capsys,
    )
    assert code == 0
    listed = json.loads((tmp_path / "r.json").read_text())["trajectories"]
    assert listed["directory"] == str(traj)
    assert sorted(listed["files"]) == sorted(p.name for p in traj.iterdir())
    assert len(listed["files"]) == 7


def test_detect_writes_its_report_into_a_new_trajectory_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(
        ["detect", "--dataset", "karate", "--trajectories", "t", "--out", "t/report.json"], capsys
    )
    assert code == 0, err
    listed = json.loads((tmp_path / "t" / "report.json").read_text())["trajectories"]
    assert sorted(p.name for p in (tmp_path / "t").iterdir()) == sorted([*listed["files"], "report.json"])


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_detect_jobs_below_one_exit_2(capsys, jobs):
    code, out, err = run_cli(["detect", "--dataset", "karate", "--jobs", jobs], capsys)
    _assert_one_error(code, err, "usage")
    assert out == ""


def test_hierarchy_writes_both_outputs_or_neither(karate_report, tmp_path, capsys):
    dot = tmp_path / "ok.dot"
    before = set(tmp_path.iterdir())
    code, out, err = run_cli(
        ["hierarchy", "--report", str(karate_report), "--dot", str(dot),
         "--json", str(tmp_path / "missing" / "x.json")],
        capsys,
    )
    _assert_one_error(code, err, "output")
    assert out == ""
    assert set(tmp_path.iterdir()) == before  # no ok.dot, no temporary file


def test_hierarchy_dash_waits_for_the_file_writes(karate_report, tmp_path, capsys):
    """Standard output is written only after every file write succeeded."""
    code, out, err = run_cli(
        ["hierarchy", "--report", str(karate_report), "--dot", "-",
         "--json", str(tmp_path / "missing" / "x.json")],
        capsys,
    )
    _assert_one_error(code, err, "output")
    assert out == ""


def test_hierarchy_same_path_twice_keeps_the_later_text(karate_report, tmp_path, capsys):
    (tmp_path / "out").mkdir()
    both = tmp_path / "out" / "both.txt"
    code, _, _ = run_cli(
        ["hierarchy", "--report", str(karate_report), "--dot", str(both), "--json", str(both)],
        capsys,
    )
    assert code == 0
    assert json.loads(both.read_text())["pairs"]
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["both.txt"]


def test_replaced_output_keeps_its_mode(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text(TWO_TRIANGLES)
    out = tmp_path / "r.json"
    out.write_text("old")
    out.chmod(0o640)
    code, _, _ = run_cli(["detect", str(edges), "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["communities"]
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_hierarchy_writes_through_a_symlink(karate_report, tmp_path, capsys):
    real = tmp_path / "real.dot"
    real.write_text("old")
    link = tmp_path / "link.dot"
    link.symlink_to(real)
    code, _, _ = run_cli(["hierarchy", "--report", str(karate_report), "--dot", str(link)], capsys)
    assert code == 0
    assert link.is_symlink()
    assert real.read_text().startswith("digraph")


def test_hierarchy_dash_is_stdout(karate_report, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["hierarchy", "--report", str(karate_report), "--dot", "-", "--json", "p.json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out.startswith("digraph")
    assert json.loads((tmp_path / "p.json").read_text())["pairs"]
    assert not (tmp_path / "-").exists()


def test_hierarchy_writes_dev_stdout_in_place(karate_report, tmp_path):
    """A path that is not a regular file (here a pipe) is written, not replaced."""
    proc = subprocess.run(
        [sys.executable, "-m", "nodecut.cli", "hierarchy", "--report", str(karate_report),
         "--dot", "/dev/stdout", "--json", str(tmp_path / "pairs.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("digraph")


def test_hierarchy_outputs(karate_report, tmp_path, capsys):
    dot = tmp_path / "dag.dot"
    pairs = tmp_path / "pairs.json"
    code, _, _ = run_cli(
        ["hierarchy", "--report", str(karate_report), "--dot", str(dot), "--json", str(pairs)],
        capsys,
    )
    assert code == 0
    dag = dot.read_text()
    for edge in ('"C2" -> "C5"', '"C2" -> "C6"', '"C3" -> "C4"', '"C3" -> "C7"',
                 '"C1" -> "C2"', '"C1" -> "C7"'):
        assert edge in dag
    doc = json.loads(pairs.read_text())
    kinds = {(p["a"], p["b"]): p["kind"] for p in doc["pairs"]}
    assert kinds[("C1", "C3")] == "permeating"
    assert kinds[("C2", "C3")] == "boundary-overlap"
    assert kinds[("C1", "C4")] == "boundary-overlap"
    covering = {(p["a"], p["b"]) for p in doc["pairs"] if p["covers_graph"]}
    assert covering == {("C1", "C3"), ("C1", "C4"), ("C2", "C3")}


def test_hierarchy_default_prints_dot(karate_report, capsys):
    code, out, _ = run_cli(["hierarchy", "--report", str(karate_report)], capsys)
    assert code == 0
    assert out.startswith("digraph")


def test_linegraph_edges_format(capsys):
    code, out, _ = run_cli(["linegraph", "--dataset", "karate"], capsys)
    assert code == 0
    lines = out.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    entries = [l for l in lines if not l.startswith("#")]
    assert len(comments) == 79  # header plus one id-mapping line per link
    diag = [l for l in entries if l.split()[0] == l.split()[1]]
    assert len(diag) == 78
    k, l, w = entries[0].split()
    assert float(w) > 0


def test_linegraph_dot_format(tmp_path, capsys):
    code, out, _ = run_cli(["linegraph", "--dataset", "karate", "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("graph linegraph {")
    assert '"0" [label="1-2"];' in out
    edges = tmp_path / "quoted.edges"
    edges.write_text('a"b c\nc d\\e\n')
    code, out, _ = run_cli(["linegraph", str(edges), "--format", "dot"], capsys)
    assert code == 0
    assert '"0" [label="a\\"b-c"];' in out
    assert '"1" [label="c-d\\\\e"];' in out


def test_linegraph_weighted(tmp_path, capsys):
    edges = tmp_path / "w.edges"
    edges.write_text("1 2 2\n2 3 3\n")
    code, out, err = run_cli(["linegraph", str(edges), "--weighted"], capsys)
    assert code == 0, err
    # links 0 (w 2) and 1 (w 3) share node 2 of weighted degree 5
    assert f"0 1 {2.0 * 3.0 / 5.0:.12g}" in out.splitlines()


def test_usage_requires_input(capsys):
    code, _, err = run_cli(["detect"], capsys)
    assert code == 2
    assert "error[usage]" in err
    code, _, err = run_cli(["detect", "--dataset", "karate", "other.edges"], capsys)
    assert code == 2


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "nodecut", "--help"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: nodecut")


def test_console_script_entry_point():
    """The `nodecut` script pyproject.toml declares runs detect as an installed script would."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?:^\[|\Z)", pyproject, re.M | re.S).group(1)
    module, function = re.search(r'^nodecut\s*=\s*"([\w.]+):(\w+)"$', scripts, re.M).groups()
    script = (
        f"import sys; from {module} import {function}; "
        f"sys.argv = ['nodecut', 'detect', '--dataset', 'karate']; sys.exit({function}())"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["seeds"]["histogram"] == {"1": 27, "2": 42, "3": 9}


def test_importing_the_cli_leaves_the_process_pool_unloaded(tmp_path):
    """detect --jobs 2 runs its sweep in its own process: it loads neither
    concurrent.futures nor multiprocessing."""
    script = (
        "import sys; from nodecut import cli; code = cli.main(sys.argv[1:]); "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules)); "
        "sys.exit(code)"
    )
    argv = ["detect", "--dataset", "karate", "--jobs", "2", "--out", str(tmp_path / "r.json")]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert json.loads((tmp_path / "r.json").read_text())["seeds"]["total"] == 78


def _imported(args, cwd) -> set[str]:
    """Modules a fresh `python -X importtime ARGS` process imports beyond those of `python -c pass`."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def names(argv):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *argv],
            capture_output=True, text=True, timeout=120, cwd=cwd, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }

    return names(args) - names(["-c", "pass"])


# nodecut modules every command loads, for its argument parser and its input
CLI_MODULES = {"nodecut", "nodecut.datasets", "nodecut.errors", "nodecut.graph"}
# command -> the further nodecut modules it loads
COMMAND_MODULES = {
    "detect": {"greedy", "psi", "report"},
    "verify": {"landscape", "linegraph", "psi", "report"},
    "oracle": {"landscape", "psi", "report"},
    "hierarchy": {"hierarchy", "report"},
    "linegraph": {"linegraph", "psi"},
}


def test_each_command_loads_only_the_modules_it_runs(tmp_path, karate_report):
    """Run as users run it, a command imports its own modules, and dataclasses never."""
    edges = tmp_path / "twotri.edges"
    edges.write_text(TWO_TRIANGLES)
    two = tmp_path / "two.json"
    assert cli.main(["detect", str(edges), "--out", str(two)]) == 0
    argv = {
        "detect": ["detect", "--dataset", "karate", "--out", "r.json"],
        "verify": ["verify", "--dataset", "karate", "--report", str(karate_report)],
        "oracle": ["oracle", str(edges), "--compare", str(two)],
        "hierarchy": ["hierarchy", "--report", str(karate_report), "--json", "h.json", "--dot", "h.dot"],
        "linegraph": ["linegraph", "--dataset", "karate"],
    }
    package = _imported(["-c", "import nodecut"], tmp_path)
    assert {m for m in package if m.startswith("nodecut")} == {"nodecut"}
    for command, modules in COMMAND_MODULES.items():
        loaded = _imported(["-m", "nodecut.cli", *argv[command]], tmp_path)
        assert "dataclasses" not in loaded, command
        want = CLI_MODULES | {f"nodecut.{m}" for m in modules}
        assert {m for m in loaded if m.startswith("nodecut")} == want, command

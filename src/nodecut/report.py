"""Run-report assembly, canonical JSON output, and reload for downstream commands."""

from __future__ import annotations

import io
import json
import math
import re
from json.encoder import encode_basestring_ascii

from .errors import ReportError
from .graph import ROOT, Community, Graph, induced_links

# DetectionResult, TieBreakPolicy and Trajectory (nodecut.greedy) appear in
# annotations only: importing greedy here would load the search into every
# command that reads a report.

__all__ = [
    "build_report",
    "dumps_report",
    "load_report",
    "report_graph",
    "same_graph_size",
    "communities_from_report",
    "sorted_labels",
    "round12",
    "link_label_pairs",
    "trajectory_rows",
    "trajectory_file_name",
    "trajectory_csvs",
]

REPORT_VERSION = 1


def round12(x: float) -> float:
    """Floats are reported with 12 significant digits."""
    return float(f"{x:.12g}")


def sorted_labels(g: Graph, indices) -> list[str]:
    """Labels of node indices in label order (g.rank)."""
    return [g.labels[i] for i in sorted(indices, key=g.rank.__getitem__)]


def link_label_pairs(g: Graph, link_ids) -> list[list[str]]:
    """[u, v] label pairs of link ids, each pair and the list in label order (g.rank)."""
    rank = g.rank
    ranked = []
    for lid in link_ids:
        u, v = g.link_ends[lid]
        ranked.append((rank[u], rank[v]) if rank[u] < rank[v] else (rank[v], rank[u]))
    ranked.sort()
    return [[g.labels[g.order[a]], g.labels[g.order[b]]] for a, b in ranked]


def community_entry(g: Graph, name: str, c: Community) -> dict:
    links = induced_links(g, c.nodes)
    return {
        "name": name,
        "nodes": sorted_labels(g, c.nodes),
        "node_count": len(c.nodes),
        "links": link_label_pairs(g, links),
        "link_count": len(links),
        "psi": round12(c.psi),
        "boundary": sorted_labels(g, c.boundary),
        "seed_count": c.seed_count,
        "stability": None if c.stability is None else round12(c.stability),
    }


def build_report(
    g: Graph,
    result: DetectionResult,
    policy: TieBreakPolicy,
    source: str,
    include_ground_state: bool = False,
    trajectory_dir: str | None = None,
    seed_link: int | None = None,
) -> dict:
    """Assemble the JSON-ready report document for a detection run.

    With a trajectory_dir, the report lists each run's trajectory_file_name
    in that directory.
    """
    names = [f"C{i + 1}" for i in range(len(result.communities))]
    entries = [community_entry(g, n, c) for n, c in zip(names, result.communities)]
    covered = sum(1 for t in result.trajectories if t.covers_graph)
    if include_ground_state:
        whole = Community(
            nodes=frozenset(range(g.n)),
            psi=0.0,
            boundary=frozenset(),
            seed_count=covered,
            stability=None,
        )
        entries.insert(0, community_entry(g, ROOT, whole))
    name_of = {c.nodes: n for n, c in zip(names, result.communities)}
    per_seed = []
    for t in result.trajectories:
        per_seed.append(
            {
                "seed": sorted_labels(g, t.seed),
                "minima": [name_of[nodes] for nodes in t.minima],
                "steps": len(t.steps),
                "final_psi": round12(t.final_psi),
                "covers_graph": t.covers_graph,
            }
        )
    report = {
        "version": REPORT_VERSION,
        "graph": {
            "n": g.n,
            "m": g.m,
            "weighted": not g.unit_weighted,
            "connected": g.components == 1,
            "components": g.components,
            "labels": sorted_labels(g, range(g.n)),
            "source": source,
        },
        "policy": {
            "tie_break": policy.mode,
            "rng_seed": policy.rng_seed if policy.mode == "random" else None,
        },
        "mode": "all-seeds" if seed_link is None else "single-seed",
        "communities": entries,
        "ground_state": {
            "psi": 0.0,
            "node_count": g.n,
            "included_as_community": include_ground_state,
            "runs_reaching_it": covered,
        },
        "seeds": {
            "total": len(result.trajectories),
            "histogram": {str(k): v for k, v in sorted(result.histogram.items())},
            "every_seed_recorded_a_minimum": all(
                t.minima and t.failure is None for t in result.trajectories
            ),
            "per_seed": per_seed,
            "failures": [
                {"seed": sorted_labels(g, t.seed), "error": t.failure}
                for t in result.trajectories
                if t.failure is not None
            ],
        },
        "trajectories": (
            None
            if trajectory_dir is None
            else {
                "directory": trajectory_dir,
                "files": [trajectory_file_name(g, t) for t in result.trajectories],
            }
        ),
    }
    return report


def dumps_report(doc: dict) -> str:
    """Canonical JSON text of any nodecut document: sorted keys, two-space indent, trailing newline.

    The bytes of json.dumps(doc, sort_keys=True, indent=2) plus a newline,
    for any document of dicts with string keys, lists, tuples, strings,
    ints, floats, booleans and None. json.dumps takes its pure-Python
    encoder whenever it indents; this writer walks the containers itself,
    quotes each string with the C function json uses, and joins each list
    of strings in one call.
    """
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append value's JSON text to out; newline is a line break plus the indent of value's line."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        try:  # a list of strings, in one join
            out.append("[" + inner + ("," + inner).join(map(encode_basestring_ascii, value)) + newline + "]")
            return
        except TypeError:  # some item is not a string
            pass
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    else:
        out.append(_scalar_json(value))


def _scalar_json(value) -> str:
    """JSON text of None, a boolean, an int or a float, as json.dumps writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def load_report(path: str) -> dict:
    """Read a report and check the structure every reader of it relies on.

    Raises ReportError when the file is unreadable, not UTF-8 or not JSON,
    lacks the graph block (integer n and m, a labels list) or the communities
    list, or repeats a label.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReportError(f"cannot read report {path}: {exc}") from exc
    if not isinstance(report, dict) or "communities" not in report or "graph" not in report:
        raise ReportError(f"report {path} lacks required keys")
    graph = report["graph"]
    if not isinstance(graph, dict):
        raise ReportError(f"report {path}: graph is not an object")
    for key, kind in (("n", int), ("m", int), ("labels", list)):
        if not isinstance(graph.get(key), kind) or isinstance(graph[key], bool):
            raise ReportError(f"report {path}: graph.{key} is missing or not a {kind.__name__}")
    if len(set(map(str, graph["labels"]))) < len(graph["labels"]):
        raise ReportError(f"report {path}: graph.labels repeats a label")
    if not isinstance(report["communities"], list):
        raise ReportError(f"report {path}: communities is not a list")
    return report


def report_graph(report: dict) -> Graph:
    """Stand-in for a report's input graph: its labels and the links its communities name.

    Enough for communities_from_report, which rejects the malformed entries
    skipped here; weights and degrees are not the input graph's.
    """
    labels = report["graph"]["labels"]
    index = {str(lab): i for i, lab in enumerate(labels)}
    pairs = set()
    for entry in report["communities"]:
        try:
            for u, v in entry["links"]:
                i, j = sorted((index[u], index[v]))
                if i < j:
                    pairs.add((i, j))
        except (KeyError, TypeError, ValueError):
            continue
    return Graph(labels, [(i, j, 1.0) for i, j in sorted(pairs)])


def same_graph_size(report: dict, g: Graph) -> bool:
    """True when a loaded report was made on a graph with g's node and link counts."""
    return report["graph"]["n"] == g.n and report["graph"]["m"] == g.m


def communities_from_report(g: Graph, report: dict) -> tuple[list[Community], list[str]]:
    """Community records (indices against g) and names of a loaded report.

    The only reader of community entries. Raises ReportError when an entry
    is malformed (nodes, links and boundary must be lists, each link a
    two-item list), two entries share a name, an entry names a node that g
    lacks, or its links, as unordered pairs, are not exactly the links among
    its nodes on g: they are checked, not stored.
    """
    out = []
    names = []
    seen = set()
    for k, entry in enumerate(report["communities"]):
        try:
            name = str(entry["name"])
            if not all(isinstance(entry[key], list) for key in ("nodes", "links", "boundary")):
                raise TypeError("nodes, links and boundary must be lists")
            if not all(isinstance(link, list) and len(link) == 2 for link in entry["links"]):
                raise TypeError("each link must be a two-item list")
            nodes = frozenset(g.index_of(lab) for lab in entry["nodes"])
            listed = sorted(g.find_link(u, v) for u, v in entry["links"])
            out.append(
                Community(
                    nodes=nodes,
                    psi=float(entry["psi"]),
                    boundary=frozenset(g.index_of(lab) for lab in entry["boundary"]),
                    seed_count=int(entry.get("seed_count", 0)),
                    stability=entry.get("stability"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReportError(
                f"community entry {k} is malformed or not in the graph: {exc}"
            ) from exc
        if listed != sorted(induced_links(g, nodes)):
            raise ReportError(f"community entry {k} ({name}): its links are not the links among its nodes")
        if name in seen:
            raise ReportError(f"duplicate community name {name!r}")
        seen.add(name)
        names.append(name)
    return out, names


def trajectory_file_name(g: Graph, traj: Trajectory) -> str:
    """CSV file name of one run, seed-<link id>-<u>-<v>.csv, with path-unsafe label characters as _."""
    u, v = (re.sub(r"[^A-Za-z0-9_.-]", "_", g.labels[i]) for i in traj.seed)
    return f"seed-{traj.link_id:04d}-{u}-{v}.csv"


def trajectory_rows(fields: list[str], rows) -> list[str]:
    """The CSV text after the step number of each (action, node, psi, size)
    row; fields holds each node's label as a CSV field."""
    return [
        f",{action},{'' if node is None else fields[node]},{value:.12g},{size}\r\n"
        for action, node, value, size in rows
    ]


def trajectory_csvs(g: Graph, trajectories) -> list[str]:
    """CSV text of each run: a header row, then a row per step; lines end in CRLF.

    Each label's CSV field is rendered once, and each row list of the runs'
    Steps chains (nodecut.greedy) goes through trajectory_rows once, however
    many runs share it; each run prefixes its step numbers to those rows.
    """
    import csv  # only detect --trajectories writes CSV

    def field(label: str) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerow(["", label])  # the module's quoting, as in a five-field row
        return buf.getvalue()[1:-2]

    fields = [field(label) for label in g.labels]
    rendered: dict[int, list[str]] = {}  # by id: the trajectories keep every row list alive
    texts = []
    for traj in trajectories:
        parts = ["step,action,node,psi,size\r\n"]
        step = 1
        for rows in traj.steps.chain:
            after = rendered.get(id(rows))
            if after is None:
                after = rendered[id(rows)] = trajectory_rows(fields, rows)
            parts += [f"{n}{text}" for n, text in enumerate(after, step)]
            step += len(rows)
        texts.append("".join(parts))
    return texts

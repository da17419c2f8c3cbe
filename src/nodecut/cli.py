"""Command-line interface.

Subcommands: detect, oracle, verify, hierarchy, linegraph.

Exit codes:
    0  success
    1  oracle --compare found communities outside the exact-minima set
    2  usage, input, report, or output errors (includes input that is not
       UTF-8, an output file that cannot be written, and a report entry
       other than the one detect writes for its nodes)
    3  disconnected input without --allow-disconnected
    4  graph exceeds the oracle enumeration cap and --force was not given
    5  a community in the report fails the local-minimum certificate
    6  a community exceeds the line-graph equivalence residual tolerance

Every error path prints a single line "nodecut: error[<kind>]: <message>"
on standard error.

Each command imports the modules it calls when it runs, so a process loads
only its command's code. Every command loads datasets, errors and graph;
detect adds greedy, psi and report; verify landscape, linegraph, psi and
report; oracle landscape, psi and report; hierarchy hierarchy and report;
linegraph linegraph and psi.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
from collections.abc import Iterable

from .datasets import DATASETS, builtin_graph
from .errors import EdgeListError, NodeCutError, ReportError, TooLarge
from .graph import Graph, dot_text, induced_links, is_connected, load_edge_list

EQUIVALENCE_TOL = 1e-10


class CliError(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _fail(code: int, kind: str, message: str):
    raise CliError(code, kind, message)


def _add_graph_args(sub):
    sub.add_argument("input", nargs="?", help="edge-list file (whitespace-delimited)")
    sub.add_argument("--dataset", choices=DATASETS, help="use a bundled graph instead of a file")
    sub.add_argument("--weighted", action="store_true", help="read a third column as link weight")


def _load_graph(args) -> tuple[Graph, str]:
    if args.dataset and args.input:
        _fail(2, "usage", "give either an input file or --dataset, not both")
    if args.dataset:
        return builtin_graph(args.dataset), args.dataset
    if not args.input:
        _fail(2, "usage", "an input file or --dataset is required")
    try:
        with open(args.input, encoding="utf-8") as fh:
            g = load_edge_list(fh, weighted=getattr(args, "weighted", False))
    except OSError as exc:
        _fail(2, "input", str(exc))
    except UnicodeDecodeError as exc:
        _fail(2, "input", f"{args.input} is not UTF-8 text: {exc}")
    except EdgeListError as exc:
        _fail(2, "edge-list", str(exc))
    if g.m == 0:
        _fail(2, "empty-graph", "input contains no links")
    return g, args.input


def _write_files(outputs: list[tuple[str, str | Iterable[str]]]):
    """Write every (path, text), or on a failed file write none of them.

    The one writer of every file a command outputs: reports, DOT, JSON,
    line graphs and trajectory CSVs. A text is a str or an iterable of str
    chunks, which is written as it is consumed, so a large document need not
    be held whole. "-" is standard output. A regular
    file, existing or new, is staged in a temporary file beside it (beside
    a link's target, so links stay links) that takes the old file's mode,
    and every target is replaced only once all staging writes have
    succeeded; when two paths name one file the later text wins (the
    earlier one is not consumed). Standard
    output and paths that exist but are not regular files (a device or a
    pipe) are written last, in order. Files get the text's UTF-8 bytes with
    no newline translation. A failure ends with error[output] and the
    message "<path>: <reason>".
    """
    staged = {}  # real target -> (path as given, text)
    direct = []  # (path as given, text)
    for path, text in outputs:
        if isinstance(text, str):
            text = (text,)
        if path == "-" or (os.path.exists(path) and not os.path.isfile(path)):
            if os.path.isdir(path):
                _fail(2, "output", f"{path}: is a directory")
            direct.append((path, text))
        else:
            staged[os.path.realpath(path)] = (path, text)
    temps = {}  # real target -> temporary file
    path = None
    try:
        for target, (path, text) in staged.items():
            head, tail = os.path.split(target)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps[target] = tmp
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(text)
            if os.path.exists(target):
                shutil.copymode(target, tmp)
        for target, tmp in temps.items():
            path = staged[target][0]
            os.replace(tmp, target)
        for path, text in direct:
            if path == "-":
                sys.stdout.writelines(text)
            else:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.writelines(text)
    except OSError as exc:
        _fail(2, "output", f"{path}: {exc.strerror or exc}")
    finally:
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.remove(tmp)


def _checked_communities(g: Graph, path: str):
    """The communities and names of the report at path, each entry checked against g;
    exit 2 when the report was made on a graph of another size."""
    from .report import check_on_graph, communities_from_report, load_report

    report = load_report(path)
    if report["graph"]["n"] != g.n or report["graph"]["m"] != g.m:
        _fail(2, "compare", "report graph size does not match the input graph")
    communities, names = communities_from_report(g, report)
    check_on_graph(g, communities, names)
    return communities, names


def _check_output_path(path: str | None, directory: bool = False):
    """Fail before any work when an output path cannot be created.

    A file needs an existing parent directory; a directory (created on
    write) needs its nearest existing ancestor, or itself, to be a directory.
    """
    if path is None or path == "-":
        return
    if directory:
        probe = os.path.abspath(path)
        while not os.path.exists(probe):
            probe = os.path.dirname(probe)
        if not os.path.isdir(probe):
            _fail(2, "output", f"{path}: {probe} is not a directory")
    else:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            _fail(2, "output", f"{path}: no such directory {parent}")
        if os.path.isdir(path):
            _fail(2, "output", f"{path}: is a directory")


def check_equivalence(g: Graph, nodes, lg) -> float:
    """linegraph.check_equivalence, imported on verify's first call.

    A name of this module that cmd_verify calls, so that bench/tracing.py can
    record each residual verify computes.
    """
    from .linegraph import check_equivalence

    return check_equivalence(g, nodes, lg)


def cmd_detect(args) -> int:
    from .greedy import TieBreakPolicy, merge_trajectories, run_all_seeds, run_from_seed
    from .report import build_report, dumps_report, trajectory_csvs, trajectory_file_name

    if args.jobs < 1:
        _fail(2, "usage", f"--jobs must be at least 1, not {args.jobs}")
    g, source = _load_graph(args)
    mode = "deterministic" if args.tie_break == "det" else "random"
    policy = TieBreakPolicy(mode=mode, rng_seed=args.rng_seed)
    if g.components > 1 and not args.disconnected_ok:
        _fail(3, "disconnected-graph", "input graph is disconnected; pass --allow-disconnected to proceed")
    _check_output_path(args.trajectories, directory=True)
    out_dir = os.path.dirname(os.path.abspath(args.out or "-"))
    if not args.trajectories or out_dir != os.path.abspath(args.trajectories):
        _check_output_path(args.out)  # else the report goes in the directory made for the CSVs
    started = time.perf_counter()
    seed_link = None
    if args.seed:
        try:
            u_label, v_label = args.seed.split(",")
            seed_link = g.find_link(u_label.strip(), v_label.strip())
        except (ValueError, KeyError):
            _fail(2, "seed", f"--seed {args.seed!r} is not a link of the graph")
        result = merge_trajectories(g, [run_from_seed(g, seed_link, policy)])
    else:
        result = run_all_seeds(g, policy)
    elapsed = time.perf_counter() - started
    report = build_report(
        g,
        result,
        policy,
        source,
        include_ground_state=args.include_ground_state,
        trajectory_dir=args.trajectories,
        seed_link=seed_link,
    )
    outputs = []
    if args.trajectories:
        texts = trajectory_csvs(g, result.trajectories)
        outputs = [
            (os.path.join(args.trajectories, trajectory_file_name(g, t)), text)
            for t, text in zip(result.trajectories, texts)
        ]
        try:
            os.makedirs(args.trajectories, exist_ok=True)
        except OSError as exc:
            _fail(2, "output", f"{args.trajectories}: {exc.strerror or exc}")
    _write_files(outputs + [(args.out or "-", dumps_report(report))])
    print(
        f"detect: {len(result.trajectories)} seed run(s), "
        f"{len(result.communities)} communities, {elapsed:.3f}s",
        file=sys.stderr,
    )
    return 0


def cmd_oracle(args) -> int:
    from .landscape import DEFAULT_MAX_NODES, exact_local_minima
    from .psi import psi
    from .report import dumps_report, round12, sorted_labels

    if args.max_nodes is not None and args.max_nodes < 2:  # every graph with a link has two nodes
        _fail(2, "usage", f"--max-nodes must be at least 2, not {args.max_nodes}")
    g, source = _load_graph(args)
    _check_output_path(args.out)
    if args.compare:  # a refused report need not wait for the enumeration
        greedy_sets = {c.nodes: name for c, name in zip(*_checked_communities(g, args.compare))}
    max_nodes = None if args.force else (DEFAULT_MAX_NODES if args.max_nodes is None else args.max_nodes)
    try:
        minima = exact_local_minima(g, max_nodes=max_nodes)
    except TooLarge as exc:
        _fail(4, "too-large", f"{exc}; pass --force to override")
    entries = []
    for nodes in minima:
        entries.append(
            {
                "nodes": sorted_labels(g, nodes),
                "node_count": len(nodes),
                "link_count": len(induced_links(g, nodes)),
                "psi": round12(psi(g, nodes)),
            }
        )
    doc = {
        "graph": {"n": g.n, "m": g.m, "source": source},
        "count": len(entries),
        "minima": entries,
    }
    code = 0
    if args.compare:
        exact_sets = set(minima)
        greedy_only = sorted(name for nodes, name in greedy_sets.items() if nodes not in exact_sets)
        oracle_only = [e["nodes"] for nodes, e in zip(minima, entries) if nodes not in greedy_sets]
        doc["compare"] = {
            "matched": len(greedy_sets) - len(greedy_only),
            "greedy_only": greedy_only,
            "oracle_only": oracle_only,
            "sound": not greedy_only,
        }
        if greedy_only:
            code = 1
    _write_files([(args.out or "-", dumps_report(doc))])
    if code:
        print(
            f"nodecut: error[compare]: {len(doc['compare']['greedy_only'])} "
            "detected communities are not exact local minima",
            file=sys.stderr,
        )
    return code


def cmd_verify(args) -> int:
    from .landscape import verify_local_minimum
    from .linegraph import build_line_graph
    from .report import dumps_report

    g, _ = _load_graph(args)
    communities, names = _checked_communities(g, args.report)
    run_equivalence = args.equivalence or g.unit_weighted
    lg = build_line_graph(g) if run_equivalence else None
    checks = []
    residuals = []
    for name, c in zip(names, communities):
        connected = is_connected(g, c.nodes)
        residual = check_equivalence(g, c.nodes, lg) if run_equivalence else None
        residuals.append(residual)
        checks.append(
            {
                "name": name,
                "node_count": len(c.nodes),
                "psi": c.psi,
                "connected": connected,
                "local_minimum": connected and verify_local_minimum(g, c.nodes),
                "equivalence_residual": None if residual is None else float(f"{residual:.6g}"),
            }
        )
    max_residual = max(residuals, default=None) if run_equivalence else None
    doc = {
        "checks": checks,
        "all_local_minima": all(check["local_minimum"] for check in checks),
        "equivalence_checked": run_equivalence,
        "equivalence_tolerance": EQUIVALENCE_TOL,
        "max_equivalence_residual": None if max_residual is None else float(f"{max_residual:.6g}"),
    }
    _write_files([("-", dumps_report(doc))])
    if not doc["all_local_minima"]:
        bad = [c["name"] for c in checks if not c["local_minimum"]]
        print(
            f"nodecut: error[certificate]: not a local minimum: {', '.join(bad)}",
            file=sys.stderr,
        )
        return 5
    if max_residual is not None and max_residual >= EQUIVALENCE_TOL:
        print(
            f"nodecut: error[equivalence]: max residual {max_residual:.3g} "
            f"exceeds {EQUIVALENCE_TOL:g}",
            file=sys.stderr,
        )
        return 6
    return 0


def cmd_hierarchy(args) -> int:
    from .hierarchy import build_polyhierarchy, dag_to_dot, hierarchy_json
    from .report import communities_from_report, load_report, report_graph

    report = load_report(args.report)
    _check_output_path(args.dot)
    _check_output_path(args.json)
    g = report_graph(report)
    communities, names = communities_from_report(g, report)
    dag = build_polyhierarchy(g, communities, names)
    outputs = [(args.dot or "-", dag_to_dot(dag))]
    if args.dot or args.json:
        outputs.append((args.json or "-", hierarchy_json(g, dag, communities)))
    _write_files(outputs)
    return 0


def cmd_linegraph(args) -> int:
    from .linegraph import build_line_graph

    g, source = _load_graph(args)
    lg = build_line_graph(g)
    lines = []
    if args.format == "edges":
        lines.append(f"# weighted line graph of {source}: {g.m} vertices (one per link)")
        for lid in range(g.m):
            u, v = g.link_label_pair(lid)
            lines.append(f"# link {lid}: {u} {v}")
        for k, l, w in lg.entries():
            lines.append(f"{k} {l} {w:.12g}")
    else:
        lines.append("graph linegraph {")
        for lid in range(g.m):
            u, v = g.link_label_pair(lid)
            lines.append(f'  "{lid}" [label="{dot_text(u)}-{dot_text(v)}"];')
        for k, l, w in lg.entries():
            lines.append(f'  "{k}" -- "{l}" [weight={w:.12g}];')
        lines.append("}")
    _write_files([(args.out or "-", "\n".join(lines) + "\n")])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodecut",
        description="Detect overlapping link communities as local minima of the normalised node cut.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("detect", help="run greedy detection from every seed link")
    _add_graph_args(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--seed", metavar="U,V", help="run a single seed link instead of all links")
    group.add_argument("--all-seeds", action="store_true", help="run every link (default)")
    p.add_argument("--tie-break", choices=["det", "rng"], default="det")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; no effect (at least 1)")
    p.add_argument("--out", help="write the JSON report here (default: stdout)")
    p.add_argument("--trajectories", metavar="DIR", help="write one move-log CSV per seed")
    p.add_argument("--include-ground-state", action="store_true")
    p.add_argument("--allow-disconnected", action="store_true", dest="disconnected_ok")
    p.set_defaults(func=cmd_detect)

    p = subs.add_parser("oracle", help="exhaustive landscape minima (small graphs)")
    _add_graph_args(p)
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--force", action="store_true", help="override the node cap")
    p.add_argument("--compare", metavar="REPORT", help="check a detect report against the exact minima")
    p.add_argument("--out", help="write JSON here (default: stdout)")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("verify", help="re-check a report's communities on the graph")
    _add_graph_args(p)
    p.add_argument("--report", required=True)
    p.add_argument(
        "--equivalence",
        action="store_true",
        help="run the line-graph equivalence check on weighted graphs too (it always runs on unit weights)",
    )
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("hierarchy", help="containment DAG and pairwise overlaps from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--dot", help="write the DAG in DOT format here")
    p.add_argument("--json", help="write pairwise relations as JSON here")
    p.set_defaults(func=cmd_hierarchy)

    p = subs.add_parser("linegraph", help="dump the weighted line graph")
    _add_graph_args(p)
    p.add_argument("--out", help="write here (default: stdout)")
    p.add_argument("--format", choices=["edges", "dot"], default="edges")
    p.set_defaults(func=cmd_linegraph)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"nodecut: error[{exc.kind}]: {exc}", file=sys.stderr)
        return exc.code
    except ReportError as exc:
        print(f"nodecut: error[report]: {exc}", file=sys.stderr)
        return 2
    except NodeCutError as exc:
        print(f"nodecut: error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

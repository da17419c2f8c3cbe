"""Run one nodecut command, or one sequential seed sweep, under the tracer.

    python3 bench/traced_cli.py OUT RUN_ID cli NODECUT_ARGS...
    python3 bench/traced_cli.py OUT RUN_ID seeds GRAPH [--weighted] [--rng-seed N]

The cli form runs nodecut.cli.main(NODECUT_ARGS) inside a root span named
after the subcommand. The seeds form runs every seed link of GRAPH with
jobs=1 (random tie-breaking when --rng-seed is given), which gives per-seed
spans and counts where the command itself fans out to worker processes.
OUT receives the spans, counters and the greedy counts of each detection as
JSON; the exit code is the command's own.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer, install, trajectory_counts


def _sweep(args: list[str]) -> int:
    from nodecut import TieBreakPolicy, load_edge_list, run_all_seeds

    path, rest = args[0], args[1:]
    weighted = "--weighted" in rest
    policy = TieBreakPolicy()
    if "--rng-seed" in rest:
        policy = TieBreakPolicy("random", int(rest[rest.index("--rng-seed") + 1]))
    with open(path, encoding="utf-8") as fh:
        g = load_edge_list(fh.read(), weighted=weighted)
    run_all_seeds(g, policy, jobs=1)
    return 0


def main(argv: list[str]) -> int:
    out, run_id, mode, args = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer(run_id)
    install(tracer)
    if mode == "cli":
        from nodecut import cli

        code = tracer.spanned(f"cli.{args[0]}", cli.main)(args)
    else:
        code = tracer.spanned("bench.seeds", _sweep)(args)
    doc = tracer.to_json()
    doc["exit"] = code
    doc["greedy"] = [trajectory_counts(r.trajectories, r.communities) for r in tracer.merged]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

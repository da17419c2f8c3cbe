"""In-memory spans and call counters around the public functions of nodecut.

A Tracer records one span per call into a layer: its name ("layer.function"),
start and end in nanoseconds, the index of the enclosing span and the run id.
Spans stay in memory and are written out when the traced process ends. Hot
per-step methods (SubgraphState scoring and moves, greedy's connectivity
check) get a call counter and a nanosecond total instead of a span each.

install() patches every binding of each wrapped function across the nodecut
modules, so calls through "from .x import f" names are seen as well. It is
meant for a traced child process only; nothing here runs on import.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

__all__ = ["Tracer", "self_times", "layer_self_times", "trajectory_counts", "install"]

# layer -> (module, public functions that get a span); the cli layer is the
# root span opened by the traced entry point around nodecut.cli.main
SPANNED = {
    "graph": ("nodecut.graph", ["load_edge_list", "connected_components"]),
    "greedy": ("nodecut.greedy", ["run_all_seeds", "run_from_seed", "merge_trajectories"]),
    "landscape": ("nodecut.landscape", ["exact_local_minima", "verify_local_minimum"]),
    "linegraph": ("nodecut.linegraph", ["build_line_graph", "check_equivalence"]),
    "hierarchy": ("nodecut.hierarchy", ["build_polyhierarchy", "classify_overlap", "dag_to_dot"]),
    "report": (
        "nodecut.report",
        ["build_report", "dumps_report", "load_report", "communities_from_report", "trajectory_rows"],
    ),
}

# SubgraphState methods counted (not spanned): counter key -> method names
PSI_COUNTED = {
    "psi.after_add": ["psi_after_add"],
    "psi.after_remove": ["psi_after_remove"],
    "psi.apply": ["apply_add", "apply_remove"],
}


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.ns: Counter = Counter()
        self.max_drift = 0.0
        self.residuals: list[float] = []
        self.merged: list = []  # DetectionResult of each merge_trajectories call

    def spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        counts, ns, clock = self.counts, self.ns, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns[key] += clock() - t
                counts[key] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "ns": dict(self.ns),
            "max_drift": self.max_drift,
            "residuals": self.residuals,
        }


def self_times(spans) -> list[int]:
    """Self time per span: its duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, and overlapping children
    (spans recorded by concurrent callers) are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def layer_self_times(spans) -> dict[str, int]:
    """Self nanoseconds summed per layer, the layer being the span-name prefix."""
    totals: Counter = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name.split(".", 1)[0]] += own
    return dict(totals)


def trajectory_counts(trajectories, communities) -> dict[str, int]:
    """Deterministic greedy work counts of one detection, from its Trajectory objects.

    revisited_steps counts the steps a run takes after it records a minimum
    that a run from an earlier seed link already recorded; the record step
    itself is not counted.
    """
    counts = {"steps": 0, "adds": 0, "removes": 0, "records": 0, "revisited_steps": 0}
    recorded: set = set()
    for traj in sorted(trajectories, key=lambda t: t.link_id):
        minima = iter(traj.minima)
        revisited = False
        for _, action, *_ in traj.steps:
            counts["revisited_steps"] += revisited
            if action == "add":
                counts["adds"] += 1
            elif action == "remove":
                counts["removes"] += 1
            else:
                counts["records"] += 1
                revisited = revisited or next(minima) in recorded
        counts["steps"] += len(traj.steps)
        recorded.update(traj.minima)
    counts["communities"] = len(communities)
    return counts


def _rebind(original, replacement) -> None:
    """Point every nodecut module-level name bound to original at replacement."""
    for modname, mod in list(sys.modules.items()):
        if modname == "nodecut" or modname.startswith("nodecut."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap nodecut's layer functions and hot methods with tracer hooks."""
    import importlib

    import nodecut.cli  # noqa: F401  (imports every layer module)
    from nodecut import greedy, landscape
    from nodecut.psi import SubgraphState

    for layer, (modname, names) in SPANNED.items():
        mod = importlib.import_module(modname)
        for name in names:
            original = getattr(mod, name)
            _rebind(original, tracer.spanned(f"{layer}.{name}", original))

    for key, methods in PSI_COUNTED.items():
        for method in methods:
            setattr(SubgraphState, method, tracer.counted(key, getattr(SubgraphState, method)))

    recompute = SubgraphState.recompute

    def traced_recompute(state):
        incremental = state.sigma / state.k_in if state.sigma > 0.0 and state.k_in else 0.0
        exact = recompute(state)
        tracer.max_drift = max(tracer.max_drift, abs(incremental - exact))
        return exact

    SubgraphState.recompute = traced_recompute
    greedy.is_connected = tracer.counted("greedy.is_connected", greedy.is_connected)

    enumerate_sets = landscape.enumerate_connected_subgraphs

    def counted_enumeration(*args, **kwargs):
        for nodes in enumerate_sets(*args, **kwargs):
            tracer.counts["landscape.places"] += 1
            yield nodes

    landscape.enumerate_connected_subgraphs = counted_enumeration

    import nodecut.cli as cli

    spanned_check = cli.check_equivalence

    def recorded_check(*args, **kwargs):
        residual = spanned_check(*args, **kwargs)
        tracer.residuals.append(residual)
        return residual

    cli.check_equivalence = recorded_check

    spanned_merge = greedy.merge_trajectories

    def recorded_merge(g, trajectories):
        result = spanned_merge(g, trajectories)
        tracer.merged.append(result)
        return result

    _rebind(spanned_merge, recorded_merge)

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the nodecut command-line tool.

    python3 bench/run.py --workload planted|weighted-rng
                         --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
Every nodecut command runs as its own process, as users run it. The inputs
are generated from --seed, plus the default-seed inputs, whose output
digests are committed in bench/golden.json and checked on every run.

--trace 0 sets up several times, then runs the workload's command cycle
until --seconds have passed and reports end-to-end timings (per command,
the median of its runs, at a nominal machine speed measured by a probe run
between commands; see PROBE). --trace 1 runs
the cycle under bench/traced_cli.py, alternating with untraced passes over
the same inputs, and reports per-layer numbers and the tracing overhead.
Both print a table and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from generators import GeneratedGraph, planted_overlapping, random_weighted  # noqa: E402
from tracing import layer_self_times, self_times  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 120.0
EQUIVALENCE_TOL = 1e-10
KINDS = ("detect", "verify", "hierarchy", "oracle")
# The speed probe: interpreter start-up, the numpy import that nodecut also
# pays, and a fixed pure-Python loop that reports its own time. Other tenants
# of a shared host slow every process, CPU time as much as wall time, by an
# amount that changes from second to second and can stay near double for a
# minute, and they slow start-up and computation by different factors. A
# command and the probes run just before and after it slow together, so
# end-to-end timings are reported at a nominal speed: each process start
# counts NOMINAL_START_S, and the rest of the wall time is scaled by the
# probe's loop time against NOMINAL_LOOP_S. The two are about the fastest
# start-up (wall time less loop) and loop times of the probe seen on the
# 2-vCPU VM (Python 3.11) on which these workloads were sized.
PROBE = """import time
import json, numpy
x = 0
started = time.perf_counter()
for i in range(1000000):
    x += i * i
print(time.perf_counter() - started)
"""
NOMINAL_START_S = 0.12
NOMINAL_LOOP_S = 0.08
PAIR_WEIGHT = 9  # see hierarchy_cut


def _small_planted(seed) -> GeneratedGraph:
    """Dense planted graph of 14 nodes for the exhaustive oracle.

    Dense enough that most node subsets are connected, so the number of
    places, and with it the oracle's work, hardly depends on the seed.
    """
    return planted_overlapping(
        seed, 14, min_degree=4, max_degree=8, min_community=5, max_community=9, overlap_nodes=3
    )


@dataclass(frozen=True)
class Workload:
    """Inputs and command cycle of one workload.

    main(seed) and small(seed) generate one main graph and one oracle graph.
    Input 0 of each list uses DEFAULT_SEED (the golden inputs); the others
    use "<seed>/<index>". hierarchy reads the best communities of each main
    report that fit hierarchy_budget (see hierarchy_cut).
    """

    name: str
    why: str
    main: Callable[[int | str], GeneratedGraph]
    small: Callable[[int | str], GeneratedGraph]
    mains: int
    smalls: int
    hierarchy_budget: int
    weighted: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted",
            why="detect, deterministic policy, on LFR-style planted overlapping graphs: greedy runs dominate",
            main=lambda s: planted_overlapping(s, 80),
            small=_small_planted,
            mains=12,
            smalls=6,
            hierarchy_budget=50000,
        ),
        Workload(
            name="weighted-rng",
            why="detect --tie-break rng --jobs 2 --trajectories on random weighted graphs: uncached path, pool, CSV writes",
            main=lambda s: random_weighted(s, 90, 180),
            small=lambda s: random_weighted(s, 14, 28),
            mains=5,
            smalls=6,
            hierarchy_budget=100000,
            weighted=True,
        ),
    )
}


def hierarchy_cut(communities: list, budget: int) -> list:
    """The longest prefix of communities whose hierarchy work fits budget.

    Reports list communities by ascending psi, so a prefix keeps the best
    ones. nodecut hierarchy writes, for every pair, its shared nodes and
    shared links; its time beyond start-up grows with W = (shared nodes +
    shared links, summed over pairs) + PAIR_WEIGHT * pairs (a least-squares
    fit on planted reports leaves 5% of it unexplained). Cutting at a fixed W,
    not at a fixed count, keeps the command's time from following the
    overlap structure of each seed's graph: at 80 communities, the shared
    nodes and links varied sixfold between planted graphs of one size.
    """
    nodes, links, work = [], [], 0
    for k, c in enumerate(communities):
        ns, ls = set(c["nodes"]), set(map(tuple, c["links"]))
        work += PAIR_WEIGHT * k + sum(len(ns & a) + len(ls & b) for a, b in zip(nodes, links))
        if work > budget:
            return communities[:k]
        nodes.append(ns)
        links.append(ls)
    return communities


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sha256_dir(path: Path) -> str:
    h = hashlib.sha256()
    for item in sorted(path.iterdir()):
        h.update(item.name.encode() + b"\0" + item.read_bytes() + b"\0")
    return h.hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.iterdir())


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values) -> tuple[str, float]:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        if n * (1.0 - q) >= 10:
            return label, ordered[min(n - 1, int(q * n))]
    return "max", ordered[-1] if ordered else 0.0


@dataclass
class Outcome:
    """One finished child process."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str


@dataclass
class Gate:
    """Correctness bookkeeping: operations attempted and failed, with reasons."""

    golden: dict | None  # None while new golden digests are being recorded
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    first: dict = field(default_factory=dict)

    def seeds(self, total: int, failures: int, where: str) -> None:
        self.attempted += total
        self.failed += failures
        if failures:
            self.problems.append(f"{where}: {failures} failed seed(s)")

    def operation(self, where: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{where}: {p}" for p in problems)

    def digest(self, key: str, value: str, golden_key: str | None) -> list:
        """Compare with the first digest seen for key and, for golden inputs, the committed one."""
        out = []
        first = self.first.setdefault(key, value)
        if first != value:
            out.append(f"{key} digest {value[:12]} differs from earlier {first[:12]}")
        if golden_key is not None and self.golden is not None and self.golden.get(golden_key) != value:
            out.append(f"{key} digest {value[:12]} differs from committed {str(self.golden.get(golden_key))[:12]}")
        return out


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path, golden: dict | None):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.gate = Gate(golden=golden)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.inputs: dict[str, GeneratedGraph] = {}
        self.spawned = 0  # child processes started

    # ---- inputs and processes -------------------------------------------

    def _graph_seed(self, index: int):
        return DEFAULT_SEED if index == 0 else f"{self.seed}/{index}"

    def _rng_seed(self, index: int) -> int:
        return DEFAULT_SEED if index == 0 else 1000 * self.seed + index

    def _golden(self, name: str, role: str) -> str | None:
        return f"{role}:{name}" if name.endswith("-0") else None

    def generate(self, where: Path) -> None:
        where.mkdir(parents=True)
        for prefix, count, make in (
            ("main", self.wl.mains, self.wl.main),
            ("small", self.wl.smalls, self.wl.small),
        ):
            for i in range(count):
                name = f"{prefix}-{i}"
                g = make(self._graph_seed(i))
                (where / f"{name}.txt").write_text(g.text)
                self.inputs[name] = g
                self.gate.operation(
                    f"generate {name}", self.gate.digest(f"edges:{name}", g.sha256, self._golden(name, "edges"))
                )

    def spawn(self, argv: list, cwd: Path, stdout_path: Path) -> Outcome:
        """Run one child process to completion; wall time and peak RSS come from wait4."""
        with open(stdout_path, "wb") as out:
            self.spawned += 1
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=subprocess.PIPE)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                err = proc.stderr.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stderr.close()
        if proc.returncode != 0:
            sys.stderr.write(err.decode(errors="replace"))
        return Outcome(
            code=proc.returncode,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=stdout_path.read_text(errors="replace"),
        )

    def nodecut(self, kind: str, args: list, cwd: Path, traced_out: Path | None = None) -> Outcome:
        if traced_out is None:
            argv = [sys.executable, "-m", "nodecut.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(traced_out), traced_out.stem, "cli", *args]
        return self.spawn(argv, cwd, cwd / f".{kind}.stdout")

    # ---- commands and their checks --------------------------------------

    def detect_args(self, name: str, mode: str) -> list:
        """mode: 'timed', or 'reference' for the --jobs 1 run of a weighted main input."""
        args = ["detect", f"{name}.txt", "--out", f"{name}.json"]
        if self.wl.weighted:
            args.append("--weighted")
        if self.wl.weighted and name.startswith("main"):
            index = int(name.split("-")[1])
            args += ["--tie-break", "rng", "--rng-seed", str(self._rng_seed(index))]
            args += ["--trajectories", f"{name}.traj", "--jobs", "1" if mode == "reference" else "2"]
        else:
            args += ["--jobs", "1"]
        return args

    def check_detect(self, res: Outcome, name: str, cwd: Path) -> list:
        problems = [] if res.code == 0 else [f"exit code {res.code}"]
        report_path = cwd / f"{name}.json"
        if res.code != 0 or not report_path.exists():
            return problems + ["no report"]
        report = json.loads(report_path.read_text())
        self.gate.seeds(report["seeds"]["total"], len(report["seeds"]["failures"]), f"detect {name}")
        problems += self.gate.digest(f"report:{name}", _sha256_file(report_path), self._golden(name, "report"))
        top_path = cwd / f"{name}.top.json"
        if name.startswith("main") and not top_path.exists():
            top = dict(report, communities=hierarchy_cut(report["communities"], self.wl.hierarchy_budget))
            top_path.write_text(json.dumps(top, sort_keys=True, indent=2) + "\n")
        traj = cwd / f"{name}.traj"
        if traj.is_dir():
            problems += self.gate.digest(f"traj:{name}", _sha256_dir(traj), self._golden(name, "traj"))
        return problems

    def check_verify(self, res: Outcome, name: str) -> list:
        if res.code != 0:
            return [f"exit code {res.code}"]
        doc = json.loads(res.stdout)
        problems = [] if doc["all_local_minima"] else ["a community fails the certificate"]
        if doc["equivalence_checked"] == self.wl.weighted:
            problems.append(f"equivalence_checked is {doc['equivalence_checked']} on this graph")
        residual = doc["max_equivalence_residual"]
        if residual is not None and not residual < EQUIVALENCE_TOL:
            problems.append(f"equivalence residual {residual} >= {EQUIVALENCE_TOL}")
        return problems

    def check_hierarchy(self, res: Outcome, name: str, cwd: Path) -> list:
        if res.code != 0:
            return [f"exit code {res.code}"]
        return self.gate.digest(
            f"hierarchy:{name}", _sha256_file(cwd / f"{name}.h.json"), self._golden(name, "hierarchy")
        )

    def check_oracle(self, res: Outcome, name: str) -> list:
        if res.code != 0:
            return [f"exit code {res.code}"]
        return [] if json.loads(res.stdout)["compare"]["sound"] else ["greedy minima outside the exact minima"]

    def run_command(self, kind: str, name: str, cwd: Path, mode: str = "timed", traced_out=None) -> Outcome:
        weighted = ["--weighted"] if self.wl.weighted else []
        if kind == "detect":
            args = self.detect_args(name, mode)
        elif kind == "verify":
            args = ["verify", f"{name}.txt", *weighted, "--report", f"{name}.json"]
        elif kind == "hierarchy":
            args = ["hierarchy", "--report", f"{name}.top.json", "--json", f"{name}.h.json", "--dot", f"{name}.dot"]
        else:
            args = ["oracle", f"{name}.txt", *weighted, "--compare", f"{name}.json"]
        res = self.nodecut(kind, args, cwd, traced_out)
        if kind == "detect":
            problems = self.check_detect(res, name, cwd)
        elif kind == "verify":
            problems = self.check_verify(res, name)
        elif kind == "hierarchy":
            problems = self.check_hierarchy(res, name, cwd)
        else:
            problems = self.check_oracle(res, name)
        self.gate.operation(f"{kind} {name}" + (" (traced)" if traced_out else ""), problems)
        return res

    # ---- setup and the command cycle ------------------------------------

    def setup(self, where: Path) -> None:
        """Generate the inputs and make every report the timed commands read."""
        self.generate(where)
        for i in range(self.wl.smalls):
            self.run_command("detect", f"small-{i}", where)
        if self.wl.weighted:
            # the --jobs 1 reference whose report and CSV digests every timed --jobs 2 run must equal
            self.run_command("detect", "main-1", where, mode="reference")

    def cycle(self, i: int) -> list[tuple[str, str]]:
        """(command, input) pairs of the i-th cycle."""
        main = f"main-{i % self.wl.mains}"
        small = f"small-{i % self.wl.smalls}"
        return [("detect", main), ("verify", main), ("hierarchy", main), ("oracle", small)]

    # ---- the two kinds of run --------------------------------------------

    def probe(self) -> tuple[float, float]:
        """Wall time of PROBE, a fixed program that does not touch nodecut, and of its loop."""
        started = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", PROBE], env=self.env, check=True, capture_output=True, text=True)
        return time.perf_counter() - started, float(out.stdout)

    def measure(self, seconds: float) -> dict:
        """Set up SETUP_REPEATS times, then run cycles until seconds have passed.

        Every input runs at least once. The probe runs before the first set-up
        and after every set-up and every command, so each timed piece of work
        lies between two probes. Its time at nominal speed (see PROBE) takes
        the mean of those two probes' start-up (wall time less loop) as the
        cost of each process the work starts, and their mean loop time as the
        speed of the rest. A command's metric is the median nominal time of
        all its runs; setup_s is the median of the set-ups'.
        """
        probes = [self.probe()]

        def nominal(wall_s: float, starts: int) -> float:
            probes.append(self.probe())
            probe_wall = (probes[-2][0] + probes[-1][0]) / 2
            loop = (probes[-2][1] + probes[-1][1]) / 2
            return starts * NOMINAL_START_S + (wall_s - starts * (probe_wall - loop)) * NOMINAL_LOOP_S / loop

        setup_raw, setup_s = [], []
        for k in range(SETUP_REPEATS):
            where = self.work / f"setup-{k}"
            spawned = self.spawned
            started = time.perf_counter()
            self.setup(where)
            setup_raw.append(time.perf_counter() - started)
            setup_s.append(nominal(setup_raw[-1], self.spawned - spawned))
        wall: dict[str, dict[str, list[float]]] = {kind: {} for kind in KINDS}
        scaled: dict[str, dict[str, list[float]]] = {kind: {} for kind in KINDS}
        rss: dict[str, dict[str, list[float]]] = {kind: {} for kind in KINDS}
        deadline = time.perf_counter() + seconds
        i = 0
        while i < max(self.wl.mains, self.wl.smalls) or time.perf_counter() < deadline:
            for kind, name in self.cycle(i):
                res = self.run_command(kind, name, where)
                wall[kind].setdefault(name, []).append(res.wall_s)
                scaled[kind].setdefault(name, []).append(nominal(res.wall_s, 1))
                rss[kind].setdefault(name, []).append(res.rss_mb)
            i += 1
        counts = {kind: sum(map(len, wall[kind].values())) for kind in KINDS}
        rows = [("setup_s", _median(setup_s), "s", len(setup_s))]
        rows += [(f"{kind}_s", _median([t for v in scaled[kind].values() for t in v]), "s", counts[kind]) for kind in KINDS]
        peaks = [_median([max(v) for v in rss[kind].values()]) for kind in KINDS]
        rows.append(("peak_rss_mb", max(peaks), "MB", sum(counts.values())))
        rows.append(("probe_median_s", _median([p[0] for p in probes]), "s", len(probes), "raw"))
        rows.append(("probe_loop_median_s", _median([p[1] for p in probes]), "s", len(probes), "raw"))
        rows.append(("setup_wall_s", _median(setup_raw), "s", len(setup_raw), "raw"))
        for kind in KINDS:
            every = [t for v in wall[kind].values() for t in v]
            rows.append((f"{kind}_wall_s", _median(every), "s", counts[kind], "raw, all runs"))
            label, value = _tail(every)
            rows.append((f"{kind}_tail_s", value, "s", counts[kind], f"raw, {label}"))
        samples = {"setup": setup_raw, "wall": wall, "nominal": scaled, "rss_mb": rss, "probe": probes}
        return {"rows": rows, "samples": samples}

    def measure_traced(self, seconds: float) -> dict:
        where = self.work / "setup-0"
        self.setup(where)
        traced_dir = self.work / "traced"
        traced_dir.mkdir()
        cycles = 2  # the golden input and the first seeded one
        untraced: dict[str, list[float]] = {kind: [] for kind in KINDS}
        traced: dict[str, list[float]] = {kind: [] for kind in KINDS}
        passes: list[list] = []
        deadline = time.perf_counter() + seconds
        while len(passes) < 2 or time.perf_counter() < deadline:
            for i in range(cycles):
                for kind, name in self.cycle(i):
                    untraced[kind].append(self.run_command(kind, name, where).wall_s)
            docs = []
            for i in range(cycles):
                for kind, name in self.cycle(i):
                    out = traced_dir / f"p{len(passes)}-{i}-{kind}-{name}.json"
                    res = self.run_command(kind, name, where, traced_out=out)
                    traced[kind].append(res.wall_s)
                    docs.append(self._traced_doc(kind, name, where, out))
                    if kind == "detect" and self.wl.weighted and name.startswith("main"):
                        docs.append(self._sequential_seeds(name, where, traced_dir, len(passes), i))
            passes.append(docs)
        rows = layer_rows(passes, self.wl)
        for kind in KINDS:
            overhead = _median(traced[kind]) - _median(untraced[kind])
            rows.append((f"trace.overhead_s.{kind}", overhead, "s", len(traced[kind])))
        self._check_counts(passes)
        return {"rows": rows}

    def _traced_doc(self, kind: str, name: str, cwd: Path, out: Path) -> dict:
        doc = _load_doc(out, kind, name)
        files = {"report": cwd / f"{name}.json", "hierarchy": cwd / f"{name}.h.json", "traj": cwd / f"{name}.traj"}
        if kind == "detect":
            doc["report_bytes"] = files["report"].stat().st_size
            report = json.loads(files["report"].read_text())
            doc["report_steps"] = sum(s["steps"] for s in report["seeds"]["per_seed"])
            if files["traj"].is_dir():
                doc["trajectory_bytes"] = _dir_bytes(files["traj"])
        if kind == "hierarchy":
            doc["json_bytes"] = files["hierarchy"].stat().st_size
        return doc

    def _sequential_seeds(self, name: str, cwd: Path, traced_dir: Path, p: int, i: int) -> dict:
        index = int(name.split("-")[1])
        out = traced_dir / f"p{p}-{i}-seeds-{name}.json"
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(out), out.stem, "seeds", f"{name}.txt"]
        argv += ["--weighted", "--rng-seed", str(self._rng_seed(index))]
        res = self.spawn(argv, cwd, cwd / ".seeds.stdout")
        self.gate.operation(f"sequential seeds {name}", [] if res.code == 0 else [f"exit code {res.code}"])
        return _load_doc(out, "seeds", name)

    def _check_counts(self, passes: list[list]) -> None:
        """Deterministic counts must repeat exactly across passes and agree across layers."""
        signatures = [[_count_signature(doc) for doc in docs] for docs in passes]
        for p, sig in enumerate(signatures[1:], start=1):
            self.gate.operation(
                f"counts of traced pass {p}", [] if sig == signatures[0] else ["counts differ from pass 0"]
            )
        for docs in passes:
            by_input = {}
            for doc in docs:
                if doc["kind"] in ("detect", "seeds") and doc["greedy"]:
                    by_input.setdefault(doc["input"], []).append(doc)
            for name, found in by_input.items():
                problems = []
                detect = [d for d in found if d["kind"] == "detect"]
                for d in detect:
                    if d["greedy"][0]["steps"] != d["report_steps"]:
                        problems.append("trajectory steps differ from the report's per-seed steps")
                for d in found:
                    if d["greedy"][0] != found[0]["greedy"][0]:
                        problems.append("sequential sweep counts differ from the command's")
                self.gate.operation(f"count cross-check {name}", problems)


def _load_doc(path: Path, kind: str, name: str) -> dict:
    """A traced child's output; empty when the child failed (the gate has counted that)."""
    doc = {"spans": [], "counts": {}, "ns": {}, "greedy": [], "max_drift": 0.0}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["kind"], doc["input"] = kind, name
    return doc


def _count_signature(doc: dict):
    return (doc["kind"], doc["input"], sorted(doc["counts"].items()), doc["greedy"])


def _spans(docs, kind: str, name: str) -> list[float]:
    """Durations in seconds of every span called name in docs of the given kind."""
    return [
        (end - start) / 1e9
        for doc in docs
        if doc["kind"] == kind
        for span_name, start, end, _ in doc["spans"]
        if span_name == name
    ]


def _per_doc(docs, kind: str, name: str) -> list[float]:
    """Per document of the given kind, the summed duration of spans called name."""
    out = []
    for doc in docs:
        if doc["kind"] == kind:
            out.append(sum((e - s) / 1e9 for n, s, e, _ in doc["spans"] if n == name))
    return out


def pass_layer_self_ns(docs) -> dict[str, int]:
    """Self nanoseconds per layer over one traced pass.

    Counted SubgraphState calls are moved from the layer whose spans enclose
    them (greedy in detections, landscape in verify) to psi, and greedy's
    connectivity checks from greedy to graph.
    """
    totals: dict[str, int] = {"psi": 0}
    for doc in docs:
        for layer, value in layer_self_times(doc["spans"]).items():
            totals[layer] = totals.get(layer, 0) + value
        psi_ns = sum(v for k, v in doc["ns"].items() if k.startswith("psi."))
        if psi_ns:
            owner = "landscape" if doc["kind"] == "verify" else "greedy"
            totals[owner] = totals.get(owner, 0) - psi_ns
            totals["psi"] += psi_ns
        connected_ns = doc["ns"].get("greedy.is_connected", 0)
        if connected_ns:
            totals["greedy"] = totals.get("greedy", 0) - connected_ns
            totals["graph"] = totals.get("graph", 0) + connected_ns
    return totals


def layer_rows(passes: list[list], wl: Workload) -> list[tuple]:
    """Per-layer metric rows (name, value, unit, samples) from the traced passes."""
    docs = [doc for pass_docs in passes for doc in pass_docs]
    first = passes[0]
    rows = []

    def timing(metric, values, unit="s", scale=1.0):
        rows.append((metric, _median(values) * scale, unit, len(values)))

    def tail(metric, values, unit="ms", scale=1e3):
        label, value = _tail(values)
        rows.append((f"{metric}.p50", _median(values) * scale, unit, len(values)))
        rows.append((f"{metric}.tail", value * scale, unit, len(values), label))

    def count(metric, value, unit="count"):
        rows.append((metric, value, unit, 1))

    # where greedy work is observed in-process: the command itself, or the
    # sequential sweep when the command fans out to a process pool
    greedy_kind = "seeds" if wl.weighted else "detect"
    greedy_first = [d for d in first if d["kind"] == greedy_kind]

    timing("graph.parse_s", _spans(docs, "verify", "graph.load_edge_list"))

    calls = {k: sum(d["counts"].get(k, 0) for d in greedy_first) for k in ("psi.after_add", "psi.after_remove", "psi.apply")}
    ns = {k: sum(d["ns"].get(k, 0) for d in greedy_first) for k in calls}
    count("psi.after_add_calls", calls["psi.after_add"])
    count("psi.after_remove_calls", calls["psi.after_remove"])
    count("psi.apply_calls", calls["psi.apply"])
    evals = calls["psi.after_add"] + calls["psi.after_remove"]
    rows.append(("psi.eval_ns", (ns["psi.after_add"] + ns["psi.after_remove"]) / max(1, evals), "ns", evals))
    rows.append(("psi.apply_ns", ns["psi.apply"] / max(1, calls["psi.apply"]), "ns", calls["psi.apply"]))
    rows.append(("psi.max_drift", max([d["max_drift"] for d in greedy_first] or [0.0]), "psi", len(greedy_first)))

    if wl.weighted:
        seeds = [
            run - merge
            for run, merge in zip(
                _per_doc(docs, "detect", "greedy.run_all_seeds"), _per_doc(docs, "detect", "greedy.merge_trajectories")
            )
        ]
    else:
        seeds = _per_doc(docs, "detect", "greedy.run_from_seed")
    timing("greedy.seeds_s", seeds)
    tail("greedy.seed_run_ms", _spans(docs, greedy_kind, "greedy.run_from_seed"))
    timing("greedy.merge_s", _spans(docs, "detect", "greedy.merge_trajectories"))
    totals = {}
    for d in first:
        if d["kind"] == "detect":
            for g in d["greedy"]:
                for key, value in g.items():
                    totals[key] = totals.get(key, 0) + value
    for key in ("steps", "adds", "removes", "records", "communities"):
        count(f"greedy.{key}", totals.get(key, 0))
    rows.append(
        ("greedy.revisited_step_share", totals.get("revisited_steps", 0) / max(1, totals.get("steps", 0)), "ratio", totals.get("steps", 0))
    )
    count("greedy.is_connected_calls", sum(d["counts"].get("greedy.is_connected", 0) for d in greedy_first))

    tail("landscape.verify_ms", _spans(docs, "verify", "landscape.verify_local_minimum"))
    timing("landscape.oracle_s", _spans(docs, "oracle", "landscape.exact_local_minima"))
    count("landscape.places", sum(d["counts"].get("landscape.places", 0) for d in first if d["kind"] == "oracle"))

    timing("linegraph.build_s", _spans(docs, "verify", "linegraph.build_line_graph"))
    equivalence = _spans(docs, "verify", "linegraph.check_equivalence")
    rows.append(("linegraph.equivalence_ms.p50", _median(equivalence) * 1e3, "ms", len(equivalence)))
    residuals = [r for d in docs for r in d.get("residuals", [])]
    rows.append(("linegraph.max_residual", max(residuals or [0.0]), "psi", len(residuals)))

    timing("hierarchy.dag_s", _spans(docs, "hierarchy", "hierarchy.build_polyhierarchy"))
    timing("hierarchy.classify_s", _per_doc(docs, "hierarchy", "hierarchy.classify_overlap"))
    count("hierarchy.pairs", len(_spans(first, "hierarchy", "hierarchy.classify_overlap")))
    count("hierarchy.json_bytes", sum(d["json_bytes"] for d in first if d["kind"] == "hierarchy"), "B")

    timing("report.build_s", _spans(docs, "detect", "report.build_report"))
    timing("report.dumps_s", _spans(docs, "detect", "report.dumps_report"))
    count("report.bytes", sum(d["report_bytes"] for d in first if d["kind"] == "detect"), "B")
    timing("report.load_s", [t for kind in KINDS for t in _spans(docs, kind, "report.load_report")])
    timing("report.trajectory_rows_s", _per_doc(docs, "detect", "report.trajectory_rows"))
    count("report.trajectory_bytes", sum(d.get("trajectory_bytes", 0) for d in first if d["kind"] == "detect"), "B")

    for kind in KINDS:
        own = []
        for doc in docs:
            if doc["kind"] == kind and doc["spans"]:
                own.append(self_times(doc["spans"])[0] / 1e9)
        timing(f"cli.self_s.{kind}", own)
    for layer, value in sorted(pass_layer_self_ns(first).items()):
        rows.append((f"self_s.{layer}", value / 1e9, "s", 1, "first traced pass"))
    return rows


def print_table(wl: Workload, seed: int, trace: bool, bench: Bench, rows: list) -> None:
    print(f"nodecut benchmark: workload {wl.name}, seed {seed}, trace {int(trace)}")
    print(f"  why: {wl.why}")
    for name, g in bench.inputs.items():
        print(f"  input {name}: n={g.n} m={g.m} weighted={g.weighted} sha256={g.sha256}")
    print(f"  {'metric':34} {'value':>14} {'unit':6} {'samples':>8}")
    for row in rows:
        name, value, unit, n = row[:4]
        note = f"  ({row[4]})" if len(row) > 4 else ""
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:34} {shown:>14} {unit:6} {n:>8}{note}")
    rate = bench.gate.failed / bench.gate.attempted if bench.gate.attempted else 0.0
    print(f"  {'error_rate':34} {rate:>14.6g} {'ratio':6} {bench.gate.attempted:>8}")
    for problem in bench.gate.problems[:20]:
        print(f"  FAILED {problem}")


def write_golden(wl: Workload, gate: Gate) -> None:
    path = BENCH / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    golden[wl.name] = {key: value for key, value in sorted(gate.first.items()) if key.endswith("-0")}
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="store this run's default-seed digests in bench/golden.json (after a deliberate output change)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "nodecut" / "cli.py").is_file():
        print(f"bench: no nodecut sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = BENCH / "_work" / f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    golden = json.loads((BENCH / "golden.json").read_text()).get(wl.name, {})
    bench = Bench(wl, args.seed, work, None if args.write_golden else golden)
    try:
        result = bench.measure_traced(args.seconds) if args.trace else bench.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rows = result["rows"]
    if args.write_golden:
        write_golden(wl, bench.gate)
    print_table(wl, args.seed, bool(args.trace), bench, rows)
    results_dir = BENCH / "_results"
    results_dir.mkdir(exist_ok=True)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": {name: {"n": g.n, "m": g.m, "sha256": g.sha256} for name, g in bench.inputs.items()},
        "rows": [list(r) for r in rows],
        "attempted": bench.gate.attempted,
        "failed": bench.gate.failed,
        "problems": bench.gate.problems,
        "samples": result.get("samples"),
    }
    (results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    # the last line carries the metrics BENCHMARK.json declares; the table has them all
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    by_name = {row[0]: row for row in rows}
    metrics = {m["name"]: {"value": by_name[m["name"]][1], "unit": m["unit"]} for m in declared}
    print(
        json.dumps(
            {
                "correct": bench.gate.failed == 0,
                "attempted": bench.gate.attempted,
                "failed": bench.gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

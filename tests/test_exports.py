"""Every exported name is bound, and every nodecut name the bench tracer patches exists.

bench/tracing.py wraps nodecut functions and methods by name. A name deleted
from nodecut would end ``bench/run.py --trace 1`` in an AttributeError while
every other test still passes.
"""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import nodecut
from nodecut import SubgraphState, cli, greedy, landscape
from conftest import TWO_TRIANGLES

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_is_bound():
    modules = [nodecut] + [
        importlib.import_module(f"nodecut.{info.name}")
        for info in pkgutil.iter_modules(nodecut.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_psi_names_the_function_after_its_module_loads():
    """Loading the submodule nodecut.psi first leaves nodecut.psi the exported function."""
    code = (
        "import nodecut.psi, nodecut\n"
        "from nodecut import psi\n"
        "assert callable(psi) and psi is nodecut.psi and psi.__module__ == 'nodecut.psi'"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bench_patch_targets_resolve():
    tracing = _load_tracing()
    for modname, names in tracing.SPANNED.values():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    methods = [m for names in tracing.PSI_COUNTED.values() for m in names] + ["recompute"]
    for method in methods:
        assert callable(getattr(SubgraphState, method, None)), f"SubgraphState.{method}"
    assert callable(greedy.is_connected)
    assert callable(landscape.enumerate_connected_subgraphs)
    assert callable(cli.check_equivalence)


def test_traced_commands_run(tmp_path):
    """detect and verify under the tracer, as ``bench/run.py --trace 1`` runs them."""
    edges = tmp_path / "twotri.edges"
    edges.write_text(TWO_TRIANGLES)
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, args in (
        ("detect", ["detect", str(edges), "--out", str(report)]),
        ("verify", ["verify", str(edges), "--report", str(report)]),
    ):
        trace = tmp_path / f"{name}.json"
        argv = [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(trace), name, "cli", *args]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(trace.read_text())["exit"] == 0
    assert json.loads((tmp_path / "detect.json").read_text())["greedy"][0]["communities"] == 2

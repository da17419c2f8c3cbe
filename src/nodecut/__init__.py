"""Overlapping link-community detection by greedy descent of the normalised node cut.

A link community is a connected subgraph whose boundary runs through nodes
rather than links; it is scored by the normalised node cut, the degree-
normalised conductance of its boundary nodes divided by its total internal
degree. Communities are the local minima of that score over the landscape of
connected subgraphs, found by greedy expansion from every link of the graph.

Start-up. Importing the package loads none of its modules: each exported
name is imported from its module on first access (PEP 562), so a command
line run compiles and executes only the modules its command calls (see
nodecut.cli), and no module uses dataclasses, whose import alone pulls in
inspect, ast, dis and tokenize.
"""

import sys

__version__ = "0.1.0"

# module -> the names it exports through the package
_EXPORTS = {
    "datasets": "KARATE_EDGE_LIST builtin_graph karate_graph",
    "errors": (
        "NodeCutError EdgeListError ZeroInternalDegree NotANeighbor NotAMember TooLarge"
        " ReportError"
    ),
    "graph": (
        "Graph Community MAX_WEIGHT_RATIO WEIGHT_RANGE load_edge_list edge_list_text"
        " induced_links is_connected boundary_nodes connected_components"
    ),
    "psi": "psi sigma_and_k_in SubgraphState",
    "linegraph": "LineGraph build_line_graph phi check_equivalence",
    "greedy": (
        "TieBreakPolicy Trajectory DetectionResult prune run_from_seed run_all_seeds"
        " merge_trajectories"
    ),
    "landscape": "enumerate_connected_subgraphs exact_local_minima verify_local_minimum",
    "hierarchy": "PolyhierarchyDag classify_overlap build_polyhierarchy dag_to_dot",
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_SOURCES)


def __getattr__(name):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{source}"), name)
    globals()[name] = value
    return value


class _Package(type(sys)):
    """The package module's type: the name psi stays with the function.

    Loading the submodule nodecut.psi binds it to the package attribute psi,
    which would shadow the exported function of that name.
    """

    def __setattr__(self, name, value):
        if not (name == "psi" and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

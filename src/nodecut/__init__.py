"""Overlapping link-community detection by greedy descent of the normalised node cut.

A link community is a connected subgraph whose boundary runs through nodes
rather than links; it is scored by the normalised node cut, the degree-
normalised conductance of its boundary nodes divided by its total internal
degree. Communities are the local minima of that score over the landscape of
connected subgraphs, found by greedy expansion from every link of the graph.
"""

from .datasets import KARATE_EDGE_LIST, builtin_graph, karate_graph
from .errors import (
    EdgeListError,
    NodeCutError,
    NotAMember,
    NotANeighbor,
    ReportError,
    TooLarge,
    WeightedUnsupported,
    ZeroInternalDegree,
)
from .graph import (
    MAX_WEIGHT_RATIO,
    WEIGHT_RANGE,
    Graph,
    boundary_nodes,
    connected_components,
    edge_list_text,
    induced_links,
    is_connected,
    load_edge_list,
)
from .greedy import (
    Community,
    DetectionResult,
    TieBreakPolicy,
    Trajectory,
    merge_trajectories,
    prune,
    run_all_seeds,
    run_from_seed,
)
from .hierarchy import (
    OverlapRelation,
    PolyhierarchyDag,
    build_polyhierarchy,
    classify_overlap,
    cover_check,
    dag_to_dot,
)
from .landscape import (
    enumerate_connected_subgraphs,
    exact_local_minima,
    verify_local_minimum,
)
from .linegraph import (
    LineGraph,
    build_line_graph,
    check_equivalence,
    phi,
)
from .psi import SubgraphState, psi, sigma_and_k_in

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "MAX_WEIGHT_RATIO",
    "WEIGHT_RANGE",
    "load_edge_list",
    "edge_list_text",
    "induced_links",
    "is_connected",
    "boundary_nodes",
    "connected_components",
    "psi",
    "sigma_and_k_in",
    "SubgraphState",
    "LineGraph",
    "build_line_graph",
    "phi",
    "check_equivalence",
    "TieBreakPolicy",
    "Community",
    "Trajectory",
    "DetectionResult",
    "prune",
    "run_from_seed",
    "run_all_seeds",
    "merge_trajectories",
    "enumerate_connected_subgraphs",
    "exact_local_minima",
    "verify_local_minimum",
    "OverlapRelation",
    "PolyhierarchyDag",
    "classify_overlap",
    "cover_check",
    "build_polyhierarchy",
    "dag_to_dot",
    "karate_graph",
    "builtin_graph",
    "KARATE_EDGE_LIST",
    "NodeCutError",
    "EdgeListError",
    "ZeroInternalDegree",
    "NotANeighbor",
    "NotAMember",
    "WeightedUnsupported",
    "TooLarge",
    "ReportError",
]

"""Boundaries of finite graphs and their isoperimetric inequalities.

The package computes two boundary notions for a simple connected graph
(the averaged-distance boundary and the Chartrand-Erwin-Johns-Zhang
boundary), decomposes graphs into distance layers, and machine-verifies
the inequalities these objects satisfy, in exact integer and rational
arithmetic.
"""

from .boundary import (
    BoundaryReport,
    BoundarySlice,
    boundary,
    report_to_dict,
)
from .core import (
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListParseError,
    Graph,
    GraphError,
    InvariantViolation,
    SelfLoopError,
    SingleVertexError,
    VertexOutOfRangeError,
    bfs_distances,
    distance_matrix,
    format_edge_list,
    is_connected,
    is_path_graph,
    parse_edge_list,
    read_edge_list,
    validate,
)
from .euclid import (
    CASE_ANTIPODAL_DESCENT,
    CASE_EQUAL_DISTANCE,
    AlphaTooLargeError,
    NonUniquenessWitness,
    SectorCheck,
    WitnessNotFoundError,
    classify_cycle,
    classify_prop4,
    radial_laplacian_identity_check,
    sector_check,
    verify_witness,
    verify_witnesses,
)
from .generators import (
    DisconnectedDiscretizationWarning,
    DomainSpec,
    EmptyDomainError,
    GridGraph,
    complete,
    cycle,
    enumerate_connected,
    erdos_renyi,
    grid,
    grid_d,
    hypercube,
    lattice_discretize,
    path,
    random_tree,
    splitmix64,
    star,
)
from .layers import (
    BoundEntry,
    check_mps,
    check_theorem1,
    check_theorem2,
    slice_overlap_stats,
    sweep_rows,
    theorem2_bound,
)
from .verify import ALL_CHECKS, CheckOutcome, run_battery

__version__ = "0.1.0"

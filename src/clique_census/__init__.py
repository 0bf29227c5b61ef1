"""Clique counting and enumeration for sparse graphs.

Exact clique censuses from one pure-Python pivot-counting kernel, run
once per distinct local graph of the (degree, id) orientation;
enumeration over the min-degree search tree; local sparsity
certificates, topological containment oracles for small graphs, extremal
construction generators, and audits of the clique-count bounds those
pieces combine into.
"""

from .backend import available_backends, census_of_subset, default_backend
from .errors import (
    CapacityError,
    CliqueCensusError,
    ExtractionError,
    GraphParseError,
    OracleLimitError,
)
from .graph import (
    Graph,
    average_degree,
    degeneracy,
    induced_subgraph,
    load_graph,
    parse_dimacs,
    parse_graph,
    serialize,
)
from .tree import (
    CliqueCensus,
    CliqueSearchTree,
    CliqueTreeNode,
    build_tree,
    census,
    count_cliques,
    enumerate_cliques,
)
from .sparsity import (
    SparsityCertificate,
    SparsityParams,
    check_local_sparsity,
    generalized_sparsity_params,
    lemma_sparsity_params,
)
from .subdivision import (
    SubdivisionWitness,
    elimination_certificate,
    extract_subdivision_dense,
    has_minor,
    has_subdivision,
    verify_witness,
)
from .constructions import (
    ConstructionSpec,
    LowerBoundReport,
    complete,
    complete_multipartite_222,
    cycle,
    generate,
    lower_bound_constant,
    parse_construction_spec,
    path_power,
    petersen,
    predicted_clique_count,
    random_gnp,
    spec_from_json,
)
from .audit import (
    AuditCheck,
    AuditConfig,
    AuditReport,
    BoundaryCase,
    RefinedExponentsReport,
    Skeleton,
    SkeletonNode,
    audit_dense_window,
    audit_graph,
    bound_degenerate,
    build_skeleton,
    check_binom_sum_inequality,
    refined_exponents,
)

__version__ = "0.1.0"

"""Clique counting and enumeration for sparse graphs.

Exact clique censuses from one pure-Python pivot-counting kernel, run
once per distinct local graph of the (degree, id) orientation;
enumeration over the min-degree search tree; local sparsity
certificates, topological containment oracles for small graphs, extremal
construction generators, and audits of the clique-count bounds those
pieces combine into.

Each name below is imported from its submodule on first access (PEP 562),
so `import clique_census` loads no submodule and a call loads only the
modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the exported names, by the submodule that defines them
_EXPORTS = {
    "backend": ("available_backends", "census_of_subset", "default_backend"),
    "errors": (
        "CliqueCensusError",
        "ExtractionError",
        "GraphParseError",
        "OracleLimitError",
    ),
    "graph": (
        "Graph",
        "average_degree",
        "degeneracy",
        "induced_subgraph",
        "load_graph",
        "parse_dimacs",
        "parse_graph",
        "serialize",
    ),
    "tree": (
        "CliqueCensus",
        "CliqueSearchTree",
        "CliqueTreeNode",
        "build_tree",
        "census",
        "count_cliques",
        "enumerate_cliques",
    ),
    "sparsity": (
        "SparsityCertificate",
        "SparsityParams",
        "check_local_sparsity",
        "generalized_sparsity_params",
        "lemma_sparsity_params",
    ),
    "subdivision": (
        "SubdivisionWitness",
        "elimination_certificate",
        "extract_subdivision_dense",
        "has_minor",
        "has_subdivision",
        "verify_witness",
    ),
    "constructions": (
        "ConstructionSpec",
        "LowerBoundReport",
        "complete",
        "complete_multipartite_222",
        "cycle",
        "generate",
        "lower_bound_constant",
        "parse_construction_spec",
        "path_power",
        "petersen",
        "predicted_clique_count",
        "random_gnp",
        "spec_from_json",
    ),
    "audit": (
        "AuditCheck",
        "AuditConfig",
        "AuditReport",
        "BoundaryCase",
        "Skeleton",
        "SkeletonNode",
        "audit_dense_window",
        "audit_graph",
        "bound_degenerate",
        "build_skeleton",
        "check_binom_sum_inequality",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import an exported name's submodule on first access and keep the
    name here, so later accesses skip this hook; a submodule's own name
    returns the imported submodule."""
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

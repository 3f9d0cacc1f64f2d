"""Exact matrix theory of oriented hypergraphs with a walk-counting oracle.

The package builds incidence, adjacency, degree, Laplacian, switching, and
walk matrices over exact integers; converts two-incidence hypergraphs to
signed graphs and back; constructs signed line graphs; and verifies the
identities tying all of these together by brute-force walk enumeration.
"""

from .core import (
    Incidence,
    OrientedHypergraph,
    SwitchingFunction,
    incidence_dual,
    is_k_uniform,
    is_simple,
    switch,
    validate,
)
from .matrices import (
    LabeledIntegerMatrix,
    adjacency_matrix,
    degree_matrix,
    dual_laplacian,
    incidence_matrix,
    laplacian,
    switching_matrix,
)
from .walks import (
    DEFAULT_MAX_WALKS,
    EnumerationLimitError,
    Walk,
    WalkCounts,
    backstep_count,
    enumerate_walks,
    oracle_walk_counts,
    oracle_walk_matrix,
    walk_counts,
    walk_matrix,
    walk_sign,
)
from .signed import (
    OrientedSignedGraph,
    from_hypergraph,
    line_graph,
    to_hypergraph,
    underlying_is_simple,
)
from .io import (
    FORMAT_VERSION,
    InstanceFormatError,
    parse_instance,
    parse_switching,
    random_bidirected_instance,
    random_instance,
    random_switching,
    serialize_instance,
    serialize_matrix,
    serialize_switching,
)
from .verify import (
    CheckResult,
    VerificationReport,
    VerifyOptions,
    format_report,
    run_verify_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Incidence",
    "OrientedHypergraph",
    "SwitchingFunction",
    "incidence_dual",
    "is_k_uniform",
    "is_simple",
    "switch",
    "validate",
    "LabeledIntegerMatrix",
    "adjacency_matrix",
    "degree_matrix",
    "dual_laplacian",
    "incidence_matrix",
    "laplacian",
    "switching_matrix",
    "DEFAULT_MAX_WALKS",
    "EnumerationLimitError",
    "Walk",
    "WalkCounts",
    "backstep_count",
    "enumerate_walks",
    "oracle_walk_counts",
    "oracle_walk_matrix",
    "walk_counts",
    "walk_matrix",
    "walk_sign",
    "OrientedSignedGraph",
    "from_hypergraph",
    "line_graph",
    "to_hypergraph",
    "underlying_is_simple",
    "FORMAT_VERSION",
    "InstanceFormatError",
    "parse_instance",
    "parse_switching",
    "random_bidirected_instance",
    "random_instance",
    "random_switching",
    "serialize_instance",
    "serialize_matrix",
    "serialize_switching",
    "CheckResult",
    "VerificationReport",
    "VerifyOptions",
    "format_report",
    "run_verify_suite",
    "__version__",
]

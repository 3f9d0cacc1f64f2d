"""Exact matrix theory of oriented hypergraphs with a walk-counting oracle.

The package builds incidence, adjacency, degree, Laplacian, switching, and
walk matrices over exact integers; converts two-incidence hypergraphs to
signed graphs and back; constructs signed line graphs; and verifies the
identities tying all of these together by brute-force walk enumeration.

Each public name is imported from its module on first use, so a command
that never verifies never loads ``verify``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("Incidence", "OrientedHypergraph", "SwitchingFunction", "incidence_dual",
             "is_k_uniform", "is_simple", "switch", "validate"),
    "matrices": ("LabeledIntegerMatrix", "adjacency_matrix", "degree_matrix", "dual_laplacian",
                 "incidence_matrix", "laplacian", "switching_matrix"),
    "walks": ("DEFAULT_MAX_WALKS", "EnumerationLimitError", "Walk", "WalkCounts",
              "backstep_count", "enumerate_walks", "oracle_walk_counts", "oracle_walk_matrix",
              "walk_counts", "walk_matrix", "walk_sign"),
    "signed": ("OrientedSignedGraph", "from_hypergraph", "line_graph", "to_hypergraph",
               "underlying_is_simple"),
    "io": ("FORMAT_VERSION", "InstanceFormatError", "parse_instance", "parse_switching",
           "random_bidirected_instance", "random_instance", "serialize_instance",
           "serialize_matrix"),
    "verify": ("CheckResult", "VerificationReport", "VerifyOptions", "format_report",
               "run_verify_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value

#!/usr/bin/env python3
"""Re-derive the golden instance matrices through the walk enumerator alone.

Every matrix here comes from ``oracle_walk_matrix`` (exhaustive search) or
``backstep_count``, never from the closed-form walk matrices.

The acceptance suite freezes these matrices as literals; this script shows
where every number comes from: incidence matrices are half-step walk
counts, adjacency matrices are one-step walk counts, degrees are backstep
counts, and Laplacians are negated weak one-step walk counts.
"""

import sys

from ohmatrix import (
    Incidence,
    OrientedHypergraph,
    backstep_count,
    oracle_walk_matrix,
    serialize_matrix,
)

GOLDENS = {
    "two-vertex edge": OrientedHypergraph(
        ("v1", "v2"), ("e1",),
        (Incidence("v1", "e1", 1, 1), Incidence("v2", "e1", 1, 1)),
    ),
    "size-3 all-plus edge": OrientedHypergraph(
        ("v1", "v2", "v3"), ("e1",),
        (
            Incidence("v1", "e1", 1, 1),
            Incidence("v2", "e1", 1, 1),
            Incidence("v3", "e1", 1, 1),
        ),
    ),
    "repeated incidence": OrientedHypergraph(
        ("v1",), ("e1",),
        (Incidence("v1", "e1", 1, 1), Incidence("v1", "e1", 2, -1)),
    ),
    "three-vertex path": OrientedHypergraph(
        ("v1", "v2", "v3"), ("e1", "e2"),
        (
            Incidence("v1", "e1", 1, 1),
            Incidence("v2", "e1", 1, -1),
            Incidence("v2", "e2", 1, 1),
            Incidence("v3", "e2", 1, -1),
        ),
    ),
}


def main() -> int:
    for name, g in GOLDENS.items():
        print(f"== {name} ==")
        print("H from half-step walks:")
        print(serialize_matrix(oracle_walk_matrix(g, "V", "E", 1)), end="")
        print("A from one-step walks:")
        print(serialize_matrix(oracle_walk_matrix(g, "V", "V", 2)), end="")
        degrees = {v: backstep_count(g, v) for v in g.vertices}
        print(f"degrees from backsteps: {degrees}")
        print("L from negated weak one-step walks:")
        print(serialize_matrix(-oracle_walk_matrix(g, "V", "V", 2, weak=True)), end="")
        print("dual A from edge-to-edge one-step walks:")
        print(serialize_matrix(oracle_walk_matrix(g, "E", "E", 2)), end="")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

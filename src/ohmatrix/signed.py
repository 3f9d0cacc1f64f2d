"""Two-incidence edges as signed graphs: conversion and line graphs.

A hypergraph whose edges all have exactly two incidences is the same data
as a signed graph with an orientation value of +1 or -1 at each endpoint.
The orientation fixes the edge sign as -tau(v, e) * tau(w, e) for the
endpoints v, w, so the sign is derived, never stored.  This module
converts between the two representations and builds the signed line
graph, whose adjacency matrix matches the adjacency matrix of the
incidence dual.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import combinations

from .core import Incidence, OrientedHypergraph, _Value


class OrientedSignedGraph(_Value):
    """A signed graph with an orientation value at each edge endpoint; an
    immutable value.

    It stores four fields.  ``endpoints`` maps each edge to its two
    endpoint vertices (normalized to vertex declaration order; a loop
    repeats one vertex), and ``orientation`` assigns +1 or -1 to exactly
    the incident (vertex, edge) pairs.  Construction validates both.  The
    edge signs, ``signature``, are computed from the orientation on each
    read, so they always agree with it.
    """

    __slots__ = ("vertices", "edges", "endpoints", "orientation")

    def __init__(self, vertices: Iterable[str], edges: Iterable[str],
                 endpoints: Mapping[str, tuple[str, str]],
                 orientation: Mapping[tuple[str, str], int]) -> None:
        vertices, edges = tuple(vertices), tuple(edges)
        vidx = {v: i for i, v in enumerate(vertices)}
        if len(vidx) != len(vertices):
            raise ValueError("duplicate vertex labels")
        eset = set(edges)
        if len(eset) != len(edges):
            raise ValueError("duplicate edge labels")
        if set(vertices) & eset:
            raise ValueError("vertex and edge labels must be disjoint")
        if set(endpoints) != eset:
            raise ValueError("endpoints must cover exactly the declared edges")
        norm: dict[str, tuple[str, str]] = {}
        for e in edges:
            v, w = endpoints[e]
            if v not in vidx or w not in vidx:
                raise ValueError(f"edge {e!r} has an undeclared endpoint")
            norm[e] = (v, w) if vidx[v] <= vidx[w] else (w, v)
        expected_keys = {(v, e) for e in edges for v in set(norm[e])}
        if set(orientation) != expected_keys:
            raise ValueError("orientation must be defined on exactly the incident (vertex, edge) pairs")
        for key, t in orientation.items():
            if type(t) is not int or t not in (1, -1):
                raise ValueError(f"orientation value at {key} must be +1 or -1, got {t!r}")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "endpoints", norm)
        object.__setattr__(self, "orientation", dict(orientation))

    def __hash__(self) -> int:
        # Agrees with __eq__, which compares the dicts.
        return hash((self.vertices, self.edges, frozenset(self.endpoints.items()),
                     frozenset(self.orientation.items())))

    @property
    def signature(self) -> dict[str, int]:
        """Edge signs sigma(e) = -tau(v, e) * tau(w, e), in edge order."""
        tau = self.orientation
        return {e: -tau[(v, e)] * tau[(w, e)] for e, (v, w) in self.endpoints.items()}


def _first_non_simple_edge(s: OrientedSignedGraph) -> tuple[str, str] | None:
    """``(kind, edge)`` for the first loop or parallel edge, or None."""
    seen: set[tuple[str, str]] = set()
    for e in s.edges:
        v, w = s.endpoints[e]
        if v == w:
            return "loop", e
        if (v, w) in seen:
            return "parallel", e
        seen.add((v, w))
    return None


def underlying_is_simple(s: OrientedSignedGraph) -> bool:
    """True when the graph has no loops and no repeated endpoint pair."""
    return _first_non_simple_edge(s) is None


def from_hypergraph(g: OrientedHypergraph) -> OrientedSignedGraph:
    """Convert a hypergraph whose edges all have exactly two incidences.

    The orientation value at (v, e) is the incidence sign and the edge sign
    is minus the product of the two incidence signs.  A loop (one vertex
    meeting an edge twice) is representable only when both its incidence
    signs agree, because the orientation stores one value per
    (vertex, edge) pair.
    """
    endpoints: dict[str, tuple[str, str]] = {}
    orientation: dict[tuple[str, str], int] = {}
    for e in g.edges:
        incs = g.incidences_at_edge(e)
        if len(incs) != 2:
            raise ValueError(f"edge {e!r} has size {len(incs)}, need exactly 2")
        first, second = incs
        if first.vertex == second.vertex and first.sign != second.sign:
            raise ValueError(
                f"loop edge {e!r} carries two different incidence signs; "
                "a single orientation value per (vertex, edge) pair cannot represent it"
            )
        endpoints[e] = (first.vertex, second.vertex)
        orientation[(first.vertex, e)] = first.sign
        orientation[(second.vertex, e)] = second.sign
    return OrientedSignedGraph(g.vertices, g.edges, endpoints, orientation)


def to_hypergraph(s: OrientedSignedGraph) -> OrientedHypergraph:
    """Inverse of :func:`from_hypergraph`: each edge becomes two incidences.

    A loop at v becomes two incidences with mult_index 1 and 2 and the
    loop's single orientation value as both signs.
    """
    incidences: list[Incidence] = []
    for e in s.edges:
        v, w = s.endpoints[e]
        incidences.append(Incidence(v, e, 1, s.orientation[(v, e)]))
        incidences.append(Incidence(w, e, 2 if v == w else 1, s.orientation[(w, e)]))
    return OrientedHypergraph(s.vertices, s.edges, incidences)


def _fresh_label(base: str, used: set[str]) -> str:
    label = base
    while label in used:
        label += "'"
    used.add(label)
    return label


def line_graph(s: OrientedSignedGraph) -> OrientedSignedGraph:
    """The signed line graph of a graph with a simple underlying graph.

    Vertices of the result are the edges of ``s``.  Two edges meeting at a
    vertex v produce one line edge f with orientation values copied from
    the shared vertex: tau_line(e1, f) = tau(v, e1) and tau_line(e2, f) =
    tau(v, e2); the line edge sign follows as -tau_line * tau_line.
    """
    offender = _first_non_simple_edge(s)
    if offender is not None:
        kind, e = offender
        raise ValueError(f"line graph is undefined for {kind} edge {e!r}")

    edges_at: dict[str, list[str]] = {v: [] for v in s.vertices}
    for e in s.edges:
        v, w = s.endpoints[e]
        edges_at[v].append(e)
        edges_at[w].append(e)

    used = set(s.edges)
    line_edges: list[str] = []
    endpoints: dict[str, tuple[str, str]] = {}
    orientation: dict[tuple[str, str], int] = {}
    for v in s.vertices:
        for e1, e2 in combinations(edges_at[v], 2):
            f = _fresh_label(f"{e1}~{e2}", used)
            line_edges.append(f)
            endpoints[f] = (e1, e2)
            orientation[(e1, f)] = s.orientation[(v, e1)]
            orientation[(e2, f)] = s.orientation[(v, e2)]
    return OrientedSignedGraph(s.edges, line_edges, endpoints, orientation)

"""Two-incidence edges as signed graphs: conversion and line graphs.

A hypergraph whose edges all have exactly two incidences is the same data
as a signed graph with an orientation value of +1 or -1 at each endpoint:
the edge sign is -tau(v, e) * tau(w, e) for the endpoints v, w.  This
module converts between the two representations and builds the signed line
graph, whose adjacency matrix matches the adjacency matrix of the
incidence dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import Incidence, OrientedHypergraph


@dataclass(frozen=True)
class OrientedSignedGraph:
    """A signed graph with an orientation value at each edge endpoint.

    ``endpoints`` maps each edge to its two endpoint vertices (normalized
    to vertex declaration order; a loop repeats one vertex), ``orientation``
    assigns +1 or -1 to exactly the incident (vertex, edge) pairs, and
    ``signature`` holds the edge signs.  Construction validates internal
    consistency, including signature(e) = -tau(v, e) * tau(w, e).
    """

    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    endpoints: Mapping[str, tuple[str, str]]
    orientation: Mapping[tuple[str, str], int]
    signature: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        vidx = {v: i for i, v in enumerate(self.vertices)}
        if len(vidx) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        eset = set(self.edges)
        if len(eset) != len(self.edges):
            raise ValueError("duplicate edge labels")
        if set(self.vertices) & eset:
            raise ValueError("vertex and edge labels must be disjoint")
        if set(self.endpoints) != eset:
            raise ValueError("endpoints must cover exactly the declared edges")
        norm: dict[str, tuple[str, str]] = {}
        for e in self.edges:
            v, w = self.endpoints[e]
            if v not in vidx or w not in vidx:
                raise ValueError(f"edge {e!r} has an undeclared endpoint")
            norm[e] = (v, w) if vidx[v] <= vidx[w] else (w, v)
        object.__setattr__(self, "endpoints", norm)
        expected_keys = {(v, e) for e in self.edges for v in set(norm[e])}
        if set(self.orientation) != expected_keys:
            raise ValueError("orientation must be defined on exactly the incident (vertex, edge) pairs")
        for key, t in self.orientation.items():
            if t not in (1, -1):
                raise ValueError(f"orientation value at {key} must be +1 or -1, got {t!r}")
        object.__setattr__(self, "orientation", dict(self.orientation))
        if set(self.signature) != eset:
            raise ValueError("signature must cover exactly the declared edges")
        for e in self.edges:
            v, w = norm[e]
            expected = -self.orientation[(v, e)] * self.orientation[(w, e)]
            if self.signature[e] != expected:
                raise ValueError(
                    f"signature of edge {e!r} is {self.signature[e]}, "
                    f"expected {expected} from its orientation values"
                )
        object.__setattr__(self, "signature", dict(self.signature))

    @classmethod
    def from_orientation(
        cls,
        vertices: Iterable[str],
        edges: Iterable[str],
        endpoints: Mapping[str, tuple[str, str]],
        orientation: Mapping[tuple[str, str], int],
    ) -> "OrientedSignedGraph":
        """Build a graph with the signature computed from the orientation."""
        signature = {}
        for e, (v, w) in dict(endpoints).items():
            try:
                signature[e] = -orientation[(v, e)] * orientation[(w, e)]
            except KeyError as exc:
                raise ValueError(f"orientation missing a value for {exc.args[0]}") from None
        return cls(tuple(vertices), tuple(edges), dict(endpoints), dict(orientation), signature)


def underlying_is_simple(s: OrientedSignedGraph) -> bool:
    """True when the graph has no loops and no repeated endpoint pair."""
    seen: set[tuple[str, str]] = set()
    for e in s.edges:
        v, w = s.endpoints[e]
        if v == w or (v, w) in seen:
            return False
        seen.add((v, w))
    return True


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
        if first.vertex == second.vertex:
            if first.sign != second.sign:
                raise ValueError(
                    f"loop edge {e!r} carries two different incidence signs; "
                    "a single orientation value per (vertex, edge) pair cannot represent it"
                )
            endpoints[e] = (first.vertex, first.vertex)
            orientation[(first.vertex, e)] = first.sign
        else:
            endpoints[e] = (first.vertex, second.vertex)
            orientation[(first.vertex, e)] = first.sign
            orientation[(second.vertex, e)] = second.sign
    return OrientedSignedGraph.from_orientation(g.vertices, g.edges, endpoints, orientation)


def to_hypergraph(s: OrientedSignedGraph) -> OrientedHypergraph:
    """Inverse of :func:`from_hypergraph`: each edge becomes two incidences.

    A loop at v becomes two incidences with mult_index 1 and 2 and the
    loop's single orientation value as both signs.
    """
    incidences: list[Incidence] = []
    for e in s.edges:
        v, w = s.endpoints[e]
        if v == w:
            t = s.orientation[(v, e)]
            incidences.append(Incidence(v, e, 1, t))
            incidences.append(Incidence(v, e, 2, t))
        else:
            incidences.append(Incidence(v, e, 1, s.orientation[(v, e)]))
            incidences.append(Incidence(w, e, 1, s.orientation[(w, e)]))
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
    seen_pairs: set[tuple[str, str]] = set()
    for e in s.edges:
        v, w = s.endpoints[e]
        if v == w:
            raise ValueError(f"line graph is undefined for loop edge {e!r}")
        if (v, w) in seen_pairs:
            raise ValueError(f"line graph is undefined for parallel edge {e!r}")
        seen_pairs.add((v, w))

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
        es = edges_at[v]
        for a in range(len(es)):
            for b in range(a + 1, len(es)):
                e1, e2 = es[a], es[b]
                f = _fresh_label(f"{e1}~{e2}", used)
                line_edges.append(f)
                endpoints[f] = (e1, e2)
                orientation[(e1, f)] = s.orientation[(v, e1)]
                orientation[(e2, f)] = s.orientation[(v, e2)]
    return OrientedSignedGraph.from_orientation(s.edges, line_edges, endpoints, orientation)


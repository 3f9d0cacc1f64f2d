"""Oriented hypergraphs: signed incidence structures, duality, and switching.

An oriented hypergraph consists of an ordered vertex list, an ordered edge
list, and a collection of signed incidences.  A vertex may meet an edge
several times; the meetings of one (vertex, edge) pair are numbered
1, 2, ... by ``mult_index``.  Every incidence carries a sign of +1 or -1.

All values are immutable and all operations are pure functions, so objects
may be freely shared between threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping


@dataclass(frozen=True)
class Incidence:
    """A signed meeting of a vertex and an edge.

    ``mult_index`` numbers repeated meetings of the same (vertex, edge)
    pair, starting at 1.
    """

    vertex: str
    edge: str
    mult_index: int = 1
    sign: int = 1

    def __post_init__(self) -> None:
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"incidence sign must be +1 or -1, got {self.sign!r}")
        if type(self.mult_index) is not int or self.mult_index < 1:
            raise ValueError(f"mult_index must be a positive integer, got {self.mult_index!r}")

    @property
    def triple(self) -> tuple[str, str, int]:
        return (self.vertex, self.edge, self.mult_index)


@dataclass(frozen=True, eq=False)
class OrientedHypergraph:
    """Ordered vertices and edges plus a collection of signed incidences.

    Construction does not check structural invariants; :func:`validate`
    returns a report instead, so malformed instances can still be built and
    inspected.  Matrix rows and columns always follow the declared label
    order, never an alphabetical one.

    Two hypergraphs are equal when they declare the same vertex order, the
    same edge order, and the same multiset of incidences; the storage order
    of the incidence tuple is not significant.
    """

    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    incidences: tuple[Incidence, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "incidences", tuple(self.incidences))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrientedHypergraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and Counter(self.incidences) == Counter(other.incidences)
        )

    def __hash__(self) -> int:
        return hash(
            (self.vertices, self.edges, frozenset(Counter(self.incidences).items()))
        )

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_index(self) -> dict[str, int]:
        return {e: j for j, e in enumerate(self.edges)}

    @cached_property
    def incidence_set(self) -> frozenset[Incidence]:
        return frozenset(self.incidences)

    def incidence_sort_key(self, inc: Incidence) -> tuple[int, int, int]:
        """Canonical key: declared vertex order, edge order, mult_index."""
        return (self.vertex_index[inc.vertex], self.edge_index[inc.edge], inc.mult_index)

    @cached_property
    def _canonical_incidences(self) -> tuple[Incidence, ...]:
        return tuple(sorted(self.incidences, key=self.incidence_sort_key))

    @cached_property
    def _walk_tables(self):
        """The one per-anchor index: per declared vertex, then per declared
        edge, a row of ``(other_index, sign, incidence)`` in canonical order."""
        vi, ei = self.vertex_index, self.edge_index
        at_vertex = [[] for _ in self.vertices]
        at_edge = [[] for _ in self.edges]
        for inc in self._canonical_incidences:
            v, e = vi[inc.vertex], ei[inc.edge]
            at_vertex[v].append((e, inc.sign, inc))
            at_edge[e].append((v, inc.sign, inc))
        return tuple(map(tuple, at_vertex)), tuple(map(tuple, at_edge))

    def incidences_at_vertex(self, vertex: str) -> tuple[Incidence, ...]:
        """All incidences containing ``vertex``, in canonical order."""
        try:
            idx = self.vertex_index[vertex]
        except KeyError:
            raise ValueError(f"unknown vertex {vertex!r}") from None
        return tuple(inc for _, _, inc in self._walk_tables[0][idx])

    def incidences_at_edge(self, edge: str) -> tuple[Incidence, ...]:
        """All incidences containing ``edge``, in canonical order."""
        try:
            idx = self.edge_index[edge]
        except KeyError:
            raise ValueError(f"unknown edge {edge!r}") from None
        return tuple(inc for _, _, inc in self._walk_tables[1][idx])

    def degree(self, vertex: str) -> int:
        """Number of incidences containing ``vertex``."""
        return len(self.incidences_at_vertex(vertex))

    def edge_size(self, edge: str) -> int:
        """Number of incidences containing ``edge``."""
        return len(self.incidences_at_edge(edge))


@dataclass(frozen=True)
class SwitchingFunction:
    """A total assignment of +1 or -1 to vertex labels."""

    assignment: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))
        bad = {v: s for v, s in self.assignment.items() if type(s) is not int or s not in (1, -1)}
        if bad:
            raise ValueError(f"switching values must be +1 or -1, got {bad!r}")

    def __hash__(self) -> int:
        # Agrees with the generated __eq__, which compares the dicts.
        return hash(frozenset(self.assignment.items()))

    def __call__(self, vertex: str) -> int:
        try:
            return self.assignment[vertex]
        except KeyError:
            raise ValueError(f"switching function is undefined on vertex {vertex!r}") from None


def validate(g: OrientedHypergraph) -> list[str]:
    """Return one message per violated structural invariant (empty if valid).

    Checks label distinctness and vertex/edge disjointness, incidence
    references, duplicate (vertex, edge, mult_index) triples, and per-pair
    mult_index contiguity: the indices present for each pair must be
    exactly 1..count.
    """
    problems: list[str] = []
    for kind, labels in (("vertex", g.vertices), ("edge", g.edges)):
        for label, count in Counter(labels).items():
            if count > 1:
                problems.append(f"duplicate {kind} label {label!r} declared {count} times")
    for label in sorted(set(g.vertices) & set(g.edges)):
        problems.append(f"label {label!r} is declared both as a vertex and as an edge")
    vset, eset = set(g.vertices), set(g.edges)
    for inc in g.incidences:
        if inc.vertex not in vset:
            problems.append(f"incidence {inc.triple} references undeclared vertex {inc.vertex!r}")
        if inc.edge not in eset:
            problems.append(f"incidence {inc.triple} references undeclared edge {inc.edge!r}")
    for triple, count in Counter(inc.triple for inc in g.incidences).items():
        if count > 1:
            problems.append(f"incidence triple {triple} appears {count} times")
    ks_by_pair: dict[tuple[str, str], list[int]] = {}
    for inc in g.incidences:
        ks_by_pair.setdefault((inc.vertex, inc.edge), []).append(inc.mult_index)
    for (v, e), ks in ks_by_pair.items():
        if sorted(ks) != list(range(1, len(ks) + 1)):
            problems.append(
                f"mult_index values for pair ({v!r}, {e!r}) are {sorted(ks)}, expected 1..{len(ks)}"
            )
    return problems


def is_simple(g: OrientedHypergraph) -> bool:
    """True when every (vertex, edge) pair meets at most once."""
    seen: set[tuple[str, str]] = set()
    for inc in g.incidences:
        pair = (inc.vertex, inc.edge)
        if pair in seen:
            return False
        seen.add(pair)
    return True


def is_k_uniform(g: OrientedHypergraph, k: int) -> bool:
    """True when every edge has exactly ``k`` incidences."""
    if k < 1:
        raise ValueError(f"uniformity parameter must be a positive integer, got {k!r}")
    return all(g.edge_size(e) == k for e in g.edges)


def is_k_regular(g: OrientedHypergraph, k: int) -> bool:
    """True when every vertex has exactly ``k`` incidences."""
    if k < 0:
        raise ValueError(f"regularity parameter must be nonnegative, got {k!r}")
    return all(g.degree(v) == k for v in g.vertices)


def incidence_dual(g: OrientedHypergraph) -> OrientedHypergraph:
    """Swap the roles of vertices and edges, keeping signs and mult_index.

    The dual's vertex order is this hypergraph's edge order and vice versa;
    applying the operation twice restores the original instance.
    """
    return OrientedHypergraph(
        vertices=g.edges,
        edges=g.vertices,
        incidences=tuple(
            Incidence(inc.edge, inc.vertex, inc.mult_index, inc.sign) for inc in g.incidences
        ),
    )


def switch(g: OrientedHypergraph, theta: SwitchingFunction) -> OrientedHypergraph:
    """Multiply the sign of every incidence at v by theta(v).

    ``theta`` must be defined on exactly the vertex set of ``g``.
    """
    missing = [v for v in g.vertices if v not in theta.assignment]
    if missing:
        raise ValueError(f"switching function missing vertices: {missing}")
    extra = sorted(set(theta.assignment) - set(g.vertices))
    if extra:
        raise ValueError(f"switching function defined on unknown vertices: {extra}")
    return OrientedHypergraph(
        vertices=g.vertices,
        edges=g.edges,
        incidences=tuple(
            Incidence(inc.vertex, inc.edge, inc.mult_index, theta(inc.vertex) * inc.sign)
            for inc in g.incidences
        ),
    )

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
from collections.abc import Iterable, Mapping
from functools import cached_property
from operator import attrgetter


def _require_int(value, name: str) -> None:
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")


class _Value:
    """Base of the immutable value classes.

    A subclass names its fields, in order, as its ``__slots__`` (plus
    ``"__dict__"`` when it caches properties), and its ``__init__`` sets
    them with ``object.__setattr__``.  An instance then equals only an
    instance of the same class with equal fields, hashes like the tuple of
    its fields, prints as ``Name(field=value, ...)``, is copied and
    serialized through its constructor, and refuses assignment and deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple([f for f in cls.__slots__ if f != "__dict__"])
        cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, f) for f in self.__match_args__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Incidence(_Value):
    """A signed meeting of a vertex and an edge; an immutable value.

    ``mult_index`` numbers repeated meetings of the same (vertex, edge)
    pair, starting at 1.
    """

    __slots__ = ("vertex", "edge", "mult_index", "sign")

    def __init__(self, vertex: str, edge: str, mult_index: int = 1, sign: int = 1) -> None:
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"incidence sign must be +1 or -1, got {sign!r}")
        if type(mult_index) is not int or mult_index < 1:
            raise ValueError(f"mult_index must be a positive integer, got {mult_index!r}")
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "mult_index", mult_index)
        object.__setattr__(self, "sign", sign)

    @property
    def triple(self) -> tuple[str, str, int]:
        return (self.vertex, self.edge, self.mult_index)


class OrientedHypergraph(_Value):
    """Ordered vertices and edges plus a collection of signed incidences; an
    immutable value.

    Construction does not check structural invariants; :func:`validate`
    returns a report instead, so malformed instances can still be built and
    inspected.  Matrix rows and columns always follow the declared label
    order, never an alphabetical one.

    Two hypergraphs are equal when they declare the same vertex order, the
    same edge order, and the same multiset of incidences; the storage order
    of the incidence tuple is not significant.
    """

    __slots__ = ("vertices", "edges", "incidences", "__dict__")

    def __init__(
        self, vertices: Iterable[str], edges: Iterable[str], incidences: Iterable[Incidence] = ()
    ) -> None:
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "incidences", tuple(incidences))

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
    def _walk_tables(self):
        """The one per-anchor index: per declared vertex, then per declared edge,
        a row of ``(other_index, sign, incidence)`` in storage order, for sums and counts."""
        vi, ei = self.vertex_index, self.edge_index
        at_vertex = [[] for _ in self.vertices]
        at_edge = [[] for _ in self.edges]
        for inc in self.incidences:
            v, e = vi[inc.vertex], ei[inc.edge]
            at_vertex[v].append((e, inc.sign, inc))
            at_edge[e].append((v, inc.sign, inc))
        return tuple([*map(tuple, at_vertex)]), tuple([*map(tuple, at_edge)])

    def _anchor_row(self, label: str, is_vertex: bool):
        """The ``_walk_tables`` row of vertex or edge ``label``."""
        index = self.vertex_index if is_vertex else self.edge_index
        if label not in index:
            raise ValueError(f"unknown {'vertex' if is_vertex else 'edge'} {label!r}")
        return self._walk_tables[0 if is_vertex else 1][index[label]]

    def incidences_at_vertex(self, vertex: str) -> tuple[Incidence, ...]:
        """All incidences containing ``vertex``, in canonical order."""
        row = self._anchor_row(vertex, True)
        return tuple(sorted((inc for _, _, inc in row), key=self.incidence_sort_key))

    def incidences_at_edge(self, edge: str) -> tuple[Incidence, ...]:
        """All incidences containing ``edge``, in canonical order."""
        row = self._anchor_row(edge, False)
        return tuple(sorted((inc for _, _, inc in row), key=self.incidence_sort_key))

    def degree(self, vertex: str) -> int:
        """Number of incidences containing ``vertex``."""
        return len(self._anchor_row(vertex, True))

    def edge_size(self, edge: str) -> int:
        """Number of incidences containing ``edge``."""
        return len(self._anchor_row(edge, False))


class SwitchingFunction(_Value):
    """A total assignment of +1 or -1 to vertex labels; an immutable value."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: Mapping[str, int]) -> None:
        assignment = dict(assignment)
        bad = {v: s for v, s in assignment.items() if type(s) is not int or s not in (1, -1)}
        if bad:
            raise ValueError(f"switching values must be +1 or -1, got {bad!r}")
        object.__setattr__(self, "assignment", assignment)

    def __hash__(self) -> int:
        # Agrees with __eq__, which compares the dicts.
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
    """True when every edge has exactly ``k`` incidences.

    An edgeless instance is k-uniform for every k.
    """
    _require_int(k, "uniformity parameter")
    if k < 1:
        raise ValueError(f"uniformity parameter must be a positive integer, got {k!r}")
    return all(g.edge_size(e) == k for e in g.edges)


def incidence_dual(g: OrientedHypergraph) -> OrientedHypergraph:
    """Swap the roles of vertices and edges, keeping signs and mult_index.

    The dual's vertex order is this hypergraph's edge order and vice versa;
    applying the operation twice restores the original instance.
    """
    return OrientedHypergraph(
        vertices=g.edges,
        edges=g.vertices,
        incidences=tuple([
            Incidence(inc.edge, inc.vertex, inc.mult_index, inc.sign) for inc in g.incidences
        ]),
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
        incidences=tuple([
            inc if theta(inc.vertex) == 1
            else Incidence(inc.vertex, inc.edge, inc.mult_index, -inc.sign)
            for inc in g.incidences
        ]),
    )

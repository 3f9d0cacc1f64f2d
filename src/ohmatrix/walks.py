"""Walk enumeration over oriented hypergraphs, walk signs, and walk matrices.

A walk is an alternating sequence of anchors (vertices and edges) joined by
incidences: a0, i1, a1, i2, ..., in, an, where incidence ih contains both
a(h-1) and ah.  The length of a walk is half its incidence count, so walks
between anchors of the same kind have an even incidence count and walks
between a vertex and an edge have an odd one.  Lengths are always passed
around as the integer incidence count n, never as a fraction.

The defining constraint pairs incidences by position: (i1, i2), (i3, i4),
and so on must each be two distinct incidences.  The pairs (i2, i3),
(i4, i5), ... are deliberately unconstrained, so a walk may leave its
current anchor along the incidence it just arrived by.  This positional
reading is observable: it makes counts of vertex-to-edge walks differ, in
general, from counts of edge-to-vertex walks once three or more incidences
are involved.  A weak walk drops the pair constraint entirely and may
immediately return along the same incidence at any point.

The sign of a walk with n incidences is (-1)**(n // 2) times the product of
its incidence signs; backsteps (weak one-step returns v, i, e, i, v) are
therefore always negative.

Enumeration is exhaustive depth-first search and is intended as a
desk-scale oracle; ceilings on the incidence count and on the number of
generated walks keep runs bounded.  Walk matrices are computed in closed
form instead, as products of one pair-step matrix (see :func:`walk_matrix`),
with :func:`oracle_walk_matrix` as their brute-force reference;
:func:`oracle_walk_counts` gives the same search's counts split by sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Incidence, OrientedHypergraph
from .matrices import LabeledIntegerMatrix, _one_steps, _pair_steps


# Deepest walk search allowed: well inside the interpreter's default
# recursion limit of 1000 frames.
INCIDENCE_CAP = 500


class EnumerationLimitError(RuntimeError):
    """Raised when a walk search would exceed its configured ceilings."""


@dataclass(frozen=True)
class EnumerationLimits:
    """Ceilings for a walk search.

    ``max_incidences`` bounds the requested incidence count n, and may not
    exceed ``INCIDENCE_CAP``, since the search recurses once per incidence;
    ``max_walks`` bounds the number of walk sequences generated during one
    search, counting every complete sequence regardless of its endpoint.
    A ceiling below its least useful value (0 incidences, 1 walk) raises
    ValueError, rather than failing every search later.
    """

    max_incidences: int = 12
    max_walks: int = 1_000_000

    def __post_init__(self) -> None:
        for name, least in (("max_incidences", 0), ("max_walks", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.max_incidences > INCIDENCE_CAP:
            raise ValueError(
                f"max_incidences must be at most {INCIDENCE_CAP}, got {self.max_incidences}"
            )


DEFAULT_LIMITS = EnumerationLimits()


@dataclass(frozen=True)
class Walk:
    """An alternating anchor sequence joined by incidences.

    ``anchors`` has one more element than ``incidences``; incidence h joins
    anchors h-1 and h.  ``weak`` records that the walk was produced under
    the relaxed rule (see the module docstring); a weak walk may also
    happen to satisfy the strict pair constraint.
    """

    anchors: tuple[str, ...]
    incidences: tuple[Incidence, ...]
    weak: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchors", tuple(self.anchors))
        object.__setattr__(self, "incidences", tuple(self.incidences))
        if len(self.anchors) != len(self.incidences) + 1:
            raise ValueError("a walk needs exactly one more anchor than incidences")

    @property
    def half_length_numerator(self) -> int:
        """Number of incidences; the walk length is half this value."""
        return len(self.incidences)

    @property
    def is_backstep(self) -> bool:
        """True for a one-step vertex walk that returns along its own incidence."""
        return (
            len(self.incidences) == 2
            and self.incidences[0] == self.incidences[1]
            and self.anchors[0] == self.incidences[0].vertex
        )


@dataclass(frozen=True)
class WalkCounts:
    """Walk counts split by sign, with their total and signed net."""

    positive: int
    negative: int

    @property
    def total(self) -> int:
        return self.positive + self.negative

    @property
    def signed_net(self) -> int:
        return self.positive - self.negative


def _anchor_is_vertex(g: OrientedHypergraph, label: str) -> bool:
    if label in g.vertex_index:
        return True
    if label in g.edge_index:
        return False
    raise ValueError(f"unknown anchor label {label!r}")


def _require_length(start_is_vertex: bool, end_is_vertex: bool, n: int) -> None:
    if n < 0:
        raise ValueError(f"incidence count must be nonnegative, got {n}")
    if start_is_vertex == end_is_vertex:
        if n % 2:
            kind = "vertices" if start_is_vertex else "edges"
            raise ValueError(f"walks between two {kind} need an even incidence count, got {n}")
    elif n % 2 == 0:
        raise ValueError(f"walks between a vertex and an edge need an odd incidence count, got {n}")


def _require_ceiling(n: int, limits: EnumerationLimits) -> None:
    if n > limits.max_incidences:
        raise EnumerationLimitError(
            f"incidence count {n} exceeds the ceiling of {limits.max_incidences}"
        )


def walk_sign(g: OrientedHypergraph, walk: Walk) -> int:
    """Sign of a walk: (-1)**(n // 2) times the product of incidence signs.

    The walk is structurally checked against ``g`` first; a malformed walk
    raises ValueError.
    """
    _check_walk(g, walk)
    prod = 1
    for inc in walk.incidences:
        prod *= inc.sign
    return -prod if (len(walk.incidences) // 2) % 2 else prod


def _check_walk(g: OrientedHypergraph, walk: Walk) -> None:
    anchors, incs = walk.anchors, walk.incidences
    is_vertex = _anchor_is_vertex(g, anchors[0])
    for h, inc in enumerate(incs, start=1):
        prev_a, next_a = anchors[h - 1], anchors[h]
        if inc not in g.incidence_set:
            raise ValueError(f"incidence {inc} is not part of the hypergraph")
        if is_vertex:
            if inc.vertex != prev_a or inc.edge != next_a:
                raise ValueError(f"incidence {h} does not join {prev_a!r} to {next_a!r}")
        else:
            if inc.edge != prev_a or inc.vertex != next_a:
                raise ValueError(f"incidence {h} does not join {prev_a!r} to {next_a!r}")
        if not walk.weak and h % 2 == 0 and inc == incs[h - 2]:
            raise ValueError(f"incidences {h - 1} and {h} coincide in a non-weak walk")
        is_vertex = not is_vertex


def _search(tables, start_is_vertex, start_idx, n, weak, limits, visit) -> None:
    """The one walk search: depth-first over every walk with ``n`` incidences
    from one anchor, in canonical order, whatever the endpoint.

    Calls ``visit(end_index, incidences, sign)`` per walk; ``incidences`` is
    the live stack.  Every complete walk counts against ``limits.max_walks``.
    """
    at_vertex, at_edge = tables
    budget = [limits.max_walks]
    incs: list[Incidence] = []

    def descend(is_vertex: bool, idx: int, h: int, last: Incidence | None, prod: int) -> None:
        check = not weak and h % 2 == 0
        for other, sign, inc in at_vertex[idx] if is_vertex else at_edge[idx]:
            if check and inc is last:
                continue
            incs.append(inc)
            if h < n:
                descend(not is_vertex, other, h + 1, inc, prod * sign)
            else:
                # The last incidence is handled in this loop rather than one
                # call deeper: the oracle's cost is one call per walk.
                budget[0] -= 1
                if budget[0] < 0:
                    raise EnumerationLimitError(
                        f"walk enumeration exceeded the ceiling of {limits.max_walks} walks"
                    )
                visit(other, incs, prod * sign)
            incs.pop()

    if n:
        descend(start_is_vertex, start_idx, 1, None, -1 if (n // 2) % 2 else 1)
    else:
        visit(start_idx, incs, 1)  # the trivial walk


def enumerate_walks(
    g: OrientedHypergraph,
    start: str,
    end: str,
    half_length_numerator: int,
    weak: bool = False,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> list[Walk]:
    """Every walk from ``start`` to ``end`` with exactly the given incidence count.

    Walks come out in canonical order: lexicographic in the incidence
    sequence under the declared-order key (vertex, edge, mult_index).  The
    incidence count 0 yields the single trivial walk when start == end.
    """
    n = half_length_numerator
    _require_ceiling(n, limits)
    start_is_vertex = _anchor_is_vertex(g, start)
    end_is_vertex = _anchor_is_vertex(g, end)
    _require_length(start_is_vertex, end_is_vertex, n)
    target = (g.vertex_index if end_is_vertex else g.edge_index)[end]
    walks: list[Walk] = []

    def keep(end_idx: int, incs: list[Incidence], _sign: int) -> None:
        if end_idx == target:
            anchors = (start, *(inc.edge if (h % 2 == 0) == start_is_vertex else inc.vertex
                                for h, inc in enumerate(incs)))
            walks.append(Walk(anchors, tuple(incs), weak))

    index = g.vertex_index if start_is_vertex else g.edge_index
    _search(g._walk_tables, start_is_vertex, index[start], n, weak, limits, keep)
    return walks


def walk_counts(
    g: OrientedHypergraph,
    start: str,
    end: str,
    half_length_numerator: int,
    weak: bool = False,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> WalkCounts:
    """Totals of :func:`enumerate_walks` output classified by :func:`walk_sign`."""
    walks = enumerate_walks(g, start, end, half_length_numerator, weak, limits)
    positive = sum(1 for w in walks if walk_sign(g, w) == 1)
    return WalkCounts(positive, len(walks) - positive)


def _anchor_family(g: OrientedHypergraph, which: str) -> tuple[tuple[str, ...], bool]:
    if which == "V":
        return g.vertices, True
    if which == "E":
        return g.edges, False
    raise ValueError(f"anchor family must be 'V' or 'E', got {which!r}")


def _matrix_shape(g: OrientedHypergraph, row_anchors: str, col_anchors: str, n: int):
    row_labels, rows_vertex = _anchor_family(g, row_anchors)
    col_labels, cols_vertex = _anchor_family(g, col_anchors)
    _require_length(rows_vertex, cols_vertex, n)
    return row_labels, col_labels, rows_vertex


def oracle_walk_counts(
    g: OrientedHypergraph,
    row_anchors: str,
    col_anchors: str,
    half_length_numerator: int,
    weak: bool = False,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> tuple[LabeledIntegerMatrix, LabeledIntegerMatrix]:
    """Walk counts split by sign between two anchor families, by exhaustive search.

    One search per row anchor, each walk counted by its sign at its
    endpoint, and no matrix arithmetic.  Entry (a, b) of the two matrices
    is what :func:`walk_counts` gives as ``positive`` and ``negative`` for
    the pair.  ``limits`` bounds each search.
    """
    n = half_length_numerator
    row_labels, col_labels, rows_vertex = _matrix_shape(g, row_anchors, col_anchors, n)
    _require_ceiling(n, limits)
    positive, negative = [], []
    for start in range(len(row_labels)):
        plus, minus = [0] * len(col_labels), [0] * len(col_labels)

        def tally(end_idx: int, _incs: list[Incidence], sign: int) -> None:
            if sign > 0:
                plus[end_idx] += 1
            else:
                minus[end_idx] += 1

        _search(g._walk_tables, rows_vertex, start, n, weak, limits, tally)
        positive.append(plus)
        negative.append(minus)
    return (
        LabeledIntegerMatrix(row_labels, col_labels, positive),
        LabeledIntegerMatrix(row_labels, col_labels, negative),
    )


def oracle_walk_matrix(
    g: OrientedHypergraph,
    row_anchors: str,
    col_anchors: str,
    half_length_numerator: int,
    weak: bool = False,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> LabeledIntegerMatrix:
    """Signed net walk counts between two anchor families, by exhaustive search.

    The brute-force reference for :func:`walk_matrix` and
    :func:`weak_walk_matrix`: positive minus negative
    :func:`oracle_walk_counts`.
    """
    positive, negative = oracle_walk_counts(
        g, row_anchors, col_anchors, half_length_numerator, weak, limits
    )
    return positive - negative


def _closed_form(
    g: OrientedHypergraph, row_anchors: str, col_anchors: str, n: int, weak: bool
) -> LabeledIntegerMatrix:
    # Under the positional rule a walk is n // 2 independent pair steps, plus
    # one free incidence (an entry of H or H^T) when n is odd.
    row_labels, _, rows_vertex = _matrix_shape(g, row_anchors, col_anchors, n)
    result = None
    if n >= 2:
        result = step = _pair_steps(g, rows_vertex, weak)
        for _ in range(n // 2 - 1):
            result = result @ step
    if n % 2:
        tail = _one_steps(g, rows_vertex)
        result = tail if result is None else result @ tail
    return LabeledIntegerMatrix.identity(row_labels) if result is None else result


def walk_matrix(
    g: OrientedHypergraph,
    row_anchors: str,
    col_anchors: str,
    half_length_numerator: int,
) -> LabeledIntegerMatrix:
    """Signed net walk counts between two anchor families ("V" or "E").

    Entry (a, b) is the number of positive minus the number of negative
    walks from a to b with the given incidence count.  Computed in closed
    form, with no walk ceiling: ``W(V,V,2k) = A^k``, ``W(V,E,2k+1) = A^k H``,
    ``W(E,V,2k+1) = A_dual^k H^T`` and ``W(E,E,2k) = A_dual^k``.
    """
    return _closed_form(g, row_anchors, col_anchors, half_length_numerator, False)


def weak_walk_matrix(
    g: OrientedHypergraph,
    row_anchors: str,
    col_anchors: str,
    half_length_numerator: int,
) -> LabeledIntegerMatrix:
    """Signed net weak walk counts between two anchor families ("V" or "E").

    The closed forms of :func:`walk_matrix` with ``A`` replaced by
    ``-H H^T`` and ``A_dual`` by ``-H^T H``.
    """
    return _closed_form(g, row_anchors, col_anchors, half_length_numerator, True)


def backstep_count(g: OrientedHypergraph, vertex: str) -> int:
    """Number of weak one-step walks at ``vertex`` reusing one incidence.

    Equal to the degree of the vertex: every incidence at the vertex
    contributes exactly one backstep.
    """
    if vertex not in g.vertex_index:
        raise ValueError(f"unknown vertex {vertex!r}")
    return sum(1 for w in enumerate_walks(g, vertex, vertex, 2, weak=True) if w.is_backstep)

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

Enumeration is exhaustive depth-first search, one level per pair step of
two incidences, and is intended as a desk-scale oracle; it still generates
every walk one by one.  One ceiling, ``max_walks`` on the walks a search
generates, keeps each run bounded; a search refuses incidence counts above
``INCIDENCE_CAP``, which keeps its recursion shallow.  Walk matrices are
computed in closed form instead, as products of one pair-step matrix (see
:func:`walk_matrix`), with :func:`oracle_walk_matrix` as their brute-force
reference; :func:`oracle_walk_counts` gives the same search's counts split
by sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Incidence, OrientedHypergraph
from .matrices import LabeledIntegerMatrix, _one_steps, _pair_steps


# Largest incidence count a walk search accepts.  The search recurses about
# n/2 deep, once per pair step, so this stays well inside the interpreter's
# default recursion limit of 1000 frames.  It bounds only the depth; the
# work is bounded by the search's ``max_walks``.
INCIDENCE_CAP = 500

# Default ceiling on the walks one search may generate.
DEFAULT_MAX_WALKS = 1_000_000


class EnumerationLimitError(RuntimeError):
    """Raised when a walk search would generate more than ``max_walks`` walks."""


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


def _require_search(n: int, max_walks: int) -> None:
    if max_walks < 1:
        raise ValueError(f"max_walks must be at least 1, got {max_walks}")
    if n > INCIDENCE_CAP:
        raise ValueError(f"incidence count must be at most {INCIDENCE_CAP}, got {n}")


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


def _plan(g: OrientedHypergraph, start_is_vertex: bool, n: int, weak: bool):
    """The rows one search walks over, from every anchor of the start kind.

    ``pairs[a]`` lists the pair steps ``(target, -s1*s2, first, second)``
    from anchor a, in canonical order; the two incidences are distinct
    objects unless ``weak``.  ``last[a]`` lists the final steps from a: the
    pair steps for even n, the one-incidence steps ``(end, sign, inc)`` for
    odd n, and the trivial ``(a, 1)`` for n = 0.  Every entry's incidences
    are its items from index 2 on.
    """
    here, there = g._walk_tables if start_is_vertex else g._walk_tables[::-1]
    pairs = tuple(
        tuple(
            (target, -s1 * s2, first, second)
            for mid, s1, first in steps
            for target, s2, second in there[mid]
            if weak or second is not first
        )
        for steps in here
    ) if n >= 2 else ()
    if n == 0:
        last = tuple(((idx, 1),) for idx in range(len(here)))
    else:
        last = here if n % 2 else pairs
    return pairs, last


def _search(plan, start: int, n: int, max_walks: int, visit) -> None:
    """The one walk search: depth-first over every walk with ``n`` incidences
    from one anchor, in canonical order, whatever the endpoint.

    It recurses once per interior pair step, (n - 1) // 2 of them for n > 0,
    and calls ``visit(idx, prefix, sign)`` once per anchor ``idx`` reached,
    where ``prefix`` (the live stack) and ``sign`` cover the interior steps;
    each entry of ``plan``'s last row at ``idx`` completes one walk.  Every
    complete walk counts against ``max_walks``, and they are taken off the
    budget before ``visit`` runs.
    """
    pairs, last = plan
    budget = [max_walks]
    prefix: list[Incidence] = []

    def descend(idx: int, steps: int, sign: int) -> None:
        if steps:
            for target, step_sign, first, second in pairs[idx]:
                prefix.append(first)
                prefix.append(second)
                descend(target, steps - 1, sign * step_sign)
                del prefix[-2:]
        else:
            budget[0] -= len(last[idx])
            if budget[0] < 0:
                raise EnumerationLimitError(
                    f"walk enumeration exceeded the ceiling of {max_walks} walks"
                )
            visit(idx, prefix, sign)

    try:
        descend(start, max(0, (n - 1) // 2), 1)
    finally:
        # descend holds itself in its closure; emptying that cell frees the
        # search's tables now rather than at the next cyclic collection.
        del descend


def enumerate_walks(
    g: OrientedHypergraph,
    start: str,
    end: str,
    half_length_numerator: int,
    weak: bool = False,
    max_walks: int = DEFAULT_MAX_WALKS,
) -> list[Walk]:
    """Every walk from ``start`` to ``end`` with exactly the given incidence count.

    Walks come out in canonical order: lexicographic in the incidence
    sequence under the declared-order key (vertex, edge, mult_index).  The
    incidence count 0 yields the single trivial walk when start == end.
    A search that would generate more than ``max_walks`` walks, whatever
    their endpoint, raises :class:`EnumerationLimitError`.
    """
    n = half_length_numerator
    _require_search(n, max_walks)
    start_is_vertex = _anchor_is_vertex(g, start)
    end_is_vertex = _anchor_is_vertex(g, end)
    _require_length(start_is_vertex, end_is_vertex, n)
    target = (g.vertex_index if end_is_vertex else g.edge_index)[end]
    plan = _plan(g, start_is_vertex, n, weak)
    walks: list[Walk] = []

    def keep(idx: int, prefix: list[Incidence], _sign: int) -> None:
        for entry in plan[1][idx]:
            if entry[0] == target:
                incs = (*prefix, *entry[2:])
                anchors = (start, *(inc.edge if (h % 2 == 0) == start_is_vertex else inc.vertex
                                    for h, inc in enumerate(incs)))
                walks.append(Walk(anchors, incs, weak))

    index = g.vertex_index if start_is_vertex else g.edge_index
    _search(plan, index[start], n, max_walks, keep)
    return walks


def walk_counts(
    g: OrientedHypergraph,
    start: str,
    end: str,
    half_length_numerator: int,
    weak: bool = False,
    max_walks: int = DEFAULT_MAX_WALKS,
) -> WalkCounts:
    """Totals of :func:`enumerate_walks` output classified by :func:`walk_sign`."""
    walks = enumerate_walks(g, start, end, half_length_numerator, weak, max_walks)
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
    max_walks: int = DEFAULT_MAX_WALKS,
) -> tuple[LabeledIntegerMatrix, LabeledIntegerMatrix]:
    """Walk counts split by sign between two anchor families, by exhaustive search.

    One search per row anchor, each walk counted by its sign at its
    endpoint, and no matrix arithmetic.  Entry (a, b) of the two matrices
    is what :func:`walk_counts` gives as ``positive`` and ``negative`` for
    the pair.  ``max_walks`` bounds each search.
    """
    n = half_length_numerator
    row_labels, col_labels, rows_vertex = _matrix_shape(g, row_anchors, col_anchors, n)
    _require_search(n, max_walks)
    plan = _plan(g, rows_vertex, n, weak)
    # Each last row split by sign once: a walk is then one counter increment.
    ends = [
        ([e[0] for e in row if e[1] > 0], [e[0] for e in row if e[1] < 0]) for row in plan[1]
    ]
    positive, negative = [], []
    for start in range(len(row_labels)):
        plus, minus = [0] * len(col_labels), [0] * len(col_labels)

        def tally(idx: int, _prefix: list[Incidence], sign: int) -> None:
            same, flipped = ends[idx]
            if sign < 0:
                same, flipped = flipped, same
            for end in same:
                plus[end] += 1
            for end in flipped:
                minus[end] += 1

        _search(plan, start, n, max_walks, tally)
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
    max_walks: int = DEFAULT_MAX_WALKS,
) -> LabeledIntegerMatrix:
    """Signed net walk counts between two anchor families, by exhaustive search.

    The brute-force reference for :func:`walk_matrix` under both rules,
    strict and ``weak``: positive minus negative :func:`oracle_walk_counts`.
    """
    positive, negative = oracle_walk_counts(
        g, row_anchors, col_anchors, half_length_numerator, weak, max_walks
    )
    return positive - negative


def walk_matrix(
    g: OrientedHypergraph,
    row_anchors: str,
    col_anchors: str,
    half_length_numerator: int,
    weak: bool = False,
) -> LabeledIntegerMatrix:
    """Signed net walk counts between two anchor families ("V" or "E").

    Entry (a, b) is the number of positive minus the number of negative
    walks from a to b with the given incidence count.  Computed in closed
    form, with no walk ceiling: ``W(V,V,2k) = A^k``, ``W(V,E,2k+1) = A^k H``,
    ``W(E,V,2k+1) = A_dual^k H^T`` and ``W(E,E,2k) = A_dual^k``.  With
    ``weak``, weak walks are counted instead: the same forms with ``A``
    replaced by ``-H H^T`` and ``A_dual`` by ``-H^T H``.
    """
    # Under the positional rule a walk is n // 2 independent pair steps, plus
    # one free incidence (an entry of H or H^T) when n is odd.
    n = half_length_numerator
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


def backstep_count(g: OrientedHypergraph, vertex: str) -> int:
    """Number of weak one-step walks at ``vertex`` reusing one incidence.

    Equal to the degree of the vertex: every incidence at the vertex
    contributes exactly one backstep.
    """
    if vertex not in g.vertex_index:
        raise ValueError(f"unknown vertex {vertex!r}")
    return sum(1 for w in enumerate_walks(g, vertex, vertex, 2, weak=True) if w.is_backstep)

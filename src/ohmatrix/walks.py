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
every walk one by one.  It builds and sorts its own per-anchor index from
``g.incidences``, reading neither the unsorted index that the matrix builders
it checks share nor ``g.incidence_sort_key``.  One ceiling, ``max_walks`` on
the walks a search generates, keeps each run bounded: each plan counts every
search's walks in one pass before any walk is generated, and a search with
too many is refused up front.  A search also refuses incidence counts above
``INCIDENCE_CAP``, which keeps its recursion shallow.  Walk matrices are
computed in closed form instead, as powers of one pair-step matrix (see
:func:`walk_matrix`), with :func:`oracle_walk_matrix` as their brute-force
reference; :func:`oracle_walk_counts` gives the same search's counts split
by sign.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import Incidence, OrientedHypergraph, _Value, _require_int
from .matrices import LabeledIntegerMatrix, _one_steps, _pair_steps, _pushed


# Largest incidence count a walk search accepts.  The search recurses about
# n/2 deep, once per pair step, so this stays well inside the interpreter's
# default recursion limit of 1000 frames.  It bounds only the depth; the
# work is bounded by the search's ``max_walks``.
INCIDENCE_CAP = 500

# Default ceiling on the walks one search may generate.
DEFAULT_MAX_WALKS = 1_000_000


class EnumerationLimitError(RuntimeError):
    """Raised when a walk search would generate more than ``max_walks`` walks."""


class Walk(_Value):
    """An alternating anchor sequence joined by incidences; an immutable value.

    ``anchors`` has one more element than ``incidences``; incidence h joins
    anchors h-1 and h.  ``weak`` records that the walk was produced under
    the relaxed rule (see the module docstring); a weak walk may also
    happen to satisfy the strict pair constraint.
    """

    __slots__ = ("anchors", "incidences", "weak")

    def __init__(
        self, anchors: Iterable[str], incidences: Iterable[Incidence], weak: bool = False
    ) -> None:
        anchors, incidences = tuple(anchors), tuple(incidences)
        if len(anchors) != len(incidences) + 1:
            raise ValueError("a walk needs exactly one more anchor than incidences")
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "incidences", incidences)
        object.__setattr__(self, "weak", weak)

    @property
    def is_backstep(self) -> bool:
        """True for a one-step vertex walk that returns along its own incidence."""
        return (
            len(self.incidences) == 2
            and self.incidences[0] == self.incidences[1]
            and self.anchors[0] == self.incidences[0].vertex
        )


class WalkCounts(_Value):
    """Walk counts split by sign, with their total and signed net; an
    immutable value."""

    __slots__ = ("positive", "negative")

    def __init__(self, positive: int, negative: int) -> None:
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "negative", negative)

    @property
    def total(self) -> int:
        return self.positive + self.negative

    @property
    def signed_net(self) -> int:
        return self.positive - self.negative


def _anchor(g: OrientedHypergraph, label: str) -> tuple[bool, int]:
    """Whether ``label`` names a vertex, and its position among its kind."""
    if label in g.vertex_index:
        return True, g.vertex_index[label]
    if label in g.edge_index:
        return False, g.edge_index[label]
    raise ValueError(f"unknown anchor label {label!r}")


def _family(g: OrientedHypergraph, which: str) -> tuple[tuple[str, ...], bool]:
    if which == "V":
        return g.vertices, True
    if which == "E":
        return g.edges, False
    raise ValueError(f"anchor family must be 'V' or 'E', got {which!r}")


def _require_walks(start_is_vertex: bool, end_is_vertex: bool, n: int, max_walks=None) -> None:
    """The one check of a walk request: ``n`` incidences between anchors of
    the given kinds, and for a search (``max_walks`` given) its ceiling."""
    _require_int(n, "incidence count")
    if max_walks is not None:
        _require_int(max_walks, "max_walks")
        if max_walks < 1:
            raise ValueError(f"max_walks must be at least 1, got {max_walks}")
        if n > INCIDENCE_CAP:
            raise ValueError(f"incidence count must be at most {INCIDENCE_CAP}, got {n}")
    if n < 0:
        raise ValueError(f"incidence count must be nonnegative, got {n}")
    if start_is_vertex == end_is_vertex:
        if n % 2:
            kind = "vertices" if start_is_vertex else "edges"
            raise ValueError(f"walks between two {kind} need an even incidence count, got {n}")
    elif n % 2 == 0:
        raise ValueError(f"walks between a vertex and an edge need an odd incidence count, got {n}")


def walk_sign(g: OrientedHypergraph, walk: Walk) -> int:
    """Sign of a walk: (-1)**(n // 2) times the product of incidence signs.

    For a walk built outside the search, which carries its own signs: the
    walk is checked against ``g`` first, and a malformed one raises ValueError.
    """
    _check_walk(g, walk)
    prod = 1
    for inc in walk.incidences:
        prod *= inc.sign
    return -prod if (len(walk.incidences) // 2) % 2 else prod


def _check_walk(g: OrientedHypergraph, walk: Walk) -> None:
    anchors, incs = walk.anchors, walk.incidences
    is_vertex = _anchor(g, anchors[0])[0]
    for h, inc in enumerate(incs, start=1):
        if inc not in g.incidence_set:
            raise ValueError(f"incidence {inc} is not part of the hypergraph")
        joined = (inc.vertex, inc.edge) if is_vertex else (inc.edge, inc.vertex)
        if joined != anchors[h - 1:h + 1]:
            raise ValueError(f"incidence {h} does not join {anchors[h - 1]!r} to {anchors[h]!r}")
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
    are its items from index 2 on.  ``totals[a]`` is the number of walks
    :func:`_search` generates from a, pulled back through the pair rows
    once per interior step from the lengths of the last rows.

    The rows come from ``g.incidences``, sorted here by the other anchor's
    position and ``mult_index``: this sort alone gives :func:`enumerate_walks`
    its canonical order.  The rows read neither the cached, unsorted index
    that the matrix builders and ``degree`` share nor ``g.incidence_sort_key``,
    so a fault in either shows up as a mismatch.  Both sides still use the
    label positions ``vertex_index`` and ``edge_index``.
    """
    at_vertex, at_edge = [[] for _ in g.vertices], [[] for _ in g.edges]
    for inc in g.incidences:
        v, e = g.vertex_index[inc.vertex], g.edge_index[inc.edge]
        at_vertex[v].append((e, inc.sign, inc))
        at_edge[e].append((v, inc.sign, inc))
    for row in (*at_vertex, *at_edge):
        row.sort(key=lambda entry: (entry[0], entry[2].mult_index))
    here, there = (at_vertex, at_edge) if start_is_vertex else (at_edge, at_vertex)
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
    totals = [len(row) for row in last]
    for _ in range((n - 1) // 2):
        totals = [sum(totals[entry[0]] for entry in row) for row in pairs]
    return pairs, last, totals


def _search(plan, start: int, n: int, max_walks: int, visit, state) -> None:
    """The one walk search: depth-first over every walk with ``n`` incidences
    from one anchor, in canonical order, whatever the endpoint.

    A search whose plan total is above ``max_walks`` is refused before it
    generates any walk.  Otherwise :func:`_descend` takes (n - 1) // 2
    interior pair steps for n > 0 and calls ``visit(state, idx, prefix,
    sign)`` once per anchor ``idx`` reached, where ``prefix`` (the live
    stack) and ``sign`` cover the interior steps; each entry of ``plan``'s
    last row at ``idx`` completes one walk.
    """
    if plan[2][start] > max_walks:
        raise EnumerationLimitError(f"walk enumeration exceeded the ceiling of {max_walks} walks")
    _descend(plan[0], [], visit, state, start, max(0, (n - 1) // 2), 1)


def _descend(pairs, prefix: list[Incidence], visit, state, idx: int, steps: int, sign: int) -> None:
    """Every way on from anchor ``idx`` through ``steps`` more pair rows."""
    if steps:
        for target, step_sign, first, second in pairs[idx]:
            prefix.append(first)
            prefix.append(second)
            _descend(pairs, prefix, visit, state, target, steps - 1, sign * step_sign)
            del prefix[-2:]
    else:
        visit(state, idx, prefix, sign)


def _keep(state, idx: int, prefix: list[Incidence], sign: int) -> None:
    """Add to ``found`` the sign and incidences of each walk completed at ``idx``
    that ends at ``target``, where ``state`` is ``(last rows, target, found)``."""
    last, target, found = state
    for entry in last[idx]:
        if entry[0] == target:
            found.append((sign * entry[1], (*prefix, *entry[2:])))


def _tally(state, idx: int, _prefix: list[Incidence], sign: int) -> None:
    """Count each walk completed at ``idx`` at its endpoint, in ``plus`` or
    ``minus`` by its sign, where ``state`` is ``(ends, plus, minus)``."""
    ends, plus, minus = state
    same, flipped = ends[idx]
    if sign < 0:
        same, flipped = flipped, same
    for end in same:
        plus[end] += 1
    for end in flipped:
        minus[end] += 1


def _tallies(g, start_is_vertex: bool, end_is_vertex: bool, n: int, weak: bool, max_walks, starts):
    """Per start index in ``starts``, one search's walks counted by sign at
    each endpoint index, as rows of positive and of negative counts."""
    _require_walks(start_is_vertex, end_is_vertex, n, max_walks)
    plan = _plan(g, start_is_vertex, n, weak)
    # Each last row split by sign once: a walk is then one counter increment.
    ends = [([e[0] for e in row if e[1] > 0], [e[0] for e in row if e[1] < 0]) for row in plan[1]]
    width = len(g.vertices if end_is_vertex else g.edges)
    positive, negative = [[0] * width for _ in starts], [[0] * width for _ in starts]
    for start, plus, minus in zip(starts, positive, negative):
        _search(plan, start, n, max_walks, _tally, (ends, plus, minus))
    return positive, negative


def _signed_walks(g, start: str, end: str, n: int, weak: bool, max_walks: int) -> list:
    """The walks of :func:`enumerate_walks` as ``(sign, walk)``, signed by the search."""
    start_is_vertex, origin = _anchor(g, start)
    end_is_vertex, target = _anchor(g, end)
    _require_walks(start_is_vertex, end_is_vertex, n, max_walks)
    plan = _plan(g, start_is_vertex, n, weak)
    found: list[tuple[int, tuple[Incidence, ...]]] = []
    _search(plan, origin, n, max_walks, _keep, (plan[1], target, found))
    return [
        (sign, Walk((start, *(inc.edge if (h % 2 == 0) == start_is_vertex else inc.vertex
                              for h, inc in enumerate(incs))), incs, weak))
        for sign, incs in found
    ]


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
    return [w for _, w in _signed_walks(g, start, end, half_length_numerator, weak, max_walks)]


def walk_counts(
    g: OrientedHypergraph,
    start: str,
    end: str,
    half_length_numerator: int,
    weak: bool = False,
    max_walks: int = DEFAULT_MAX_WALKS,
) -> WalkCounts:
    """Totals of :func:`enumerate_walks` output split by sign, tallied without building a walk."""
    (start_is_vertex, origin), (end_is_vertex, target) = _anchor(g, start), _anchor(g, end)
    (plus,), (minus,) = _tallies(g, start_is_vertex, end_is_vertex, half_length_numerator, weak,
                                 max_walks, (origin,))
    return WalkCounts(plus[target], minus[target])


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
    row_labels, rows_vertex = _family(g, row_anchors)
    col_labels, cols_vertex = _family(g, col_anchors)
    positive, negative = _tallies(
        g, rows_vertex, cols_vertex, half_length_numerator, weak, max_walks, range(len(row_labels))
    )
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
    replaced by ``-H H^T`` and ``A_dual`` by ``-H^T H``.  The rows of ``H``
    or ``H^T``, or for even ``n`` of the pair-step matrix itself, are pushed
    through the pair-step matrix, each row packed into one integer; no
    matrix product is formed.
    """
    # Under the positional rule a walk is n // 2 independent pair steps, plus
    # one free incidence (an entry of H or H^T) when n is odd.
    n = half_length_numerator
    row_labels, rows_vertex = _family(g, row_anchors)
    _require_walks(rows_vertex, _family(g, col_anchors)[1], n)
    if n < 2:
        return _one_steps(g, rows_vertex) if n else LabeledIntegerMatrix.identity(row_labels)
    # Odd n pushes the tail n // 2 times; even n pushes one step n // 2 - 1
    # times, so n = 2 returns the step itself.
    step, k = _pair_steps(g, rows_vertex, weak), n // 2
    return _pushed(step, k, _one_steps(g, rows_vertex)) if n % 2 else _pushed(step, k - 1, step)


def backstep_count(g: OrientedHypergraph, vertex: str) -> int:
    """Number of weak one-step walks at ``vertex`` reusing one incidence.

    Equal to the degree of the vertex: every incidence at the vertex
    contributes exactly one backstep.
    """
    if vertex not in g.vertex_index:
        raise ValueError(f"unknown vertex {vertex!r}")
    return sum(1 for w in enumerate_walks(g, vertex, vertex, 2, weak=True) if w.is_backstep)

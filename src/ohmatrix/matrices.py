"""Exact integer matrices with labeled axes, and the standard constructions.

Everything here is plain Python integers, so arithmetic never overflows and
equality is exact.  Matrix equality requires equal row labels, equal column
labels, and equal entries.

Storage is dense, but products skip zero terms: most factors here are
mostly zero (the switching matrices are diagonal).  Validation happens once,
at ``LabeledIntegerMatrix(...)`` and ``io.parse_matrix``; the results of
arithmetic on validated matrices are built from their operands and are not
validated again.

``H``, ``A``, both Laplacians and the walk steps come from two constructions
over the incidence tables, one-incidence and pair steps, so ``L = D - A``
and ``L = H H^T`` compare independent computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import OrientedHypergraph, SwitchingFunction


@dataclass(frozen=True)
class LabeledIntegerMatrix:
    """Dense integer matrix whose rows and columns are label sequences.

    Constructing one checks the labels, the shape and every entry.  The
    arithmetic operators, ``transpose`` and ``power`` return matrices that
    skip that check, since their labels and int entries come from operands
    that already passed it; they compare and hash like validated ones.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("duplicate column labels")
        if len(self.entries) != len(self.row_labels):
            raise ValueError(
                f"expected {len(self.row_labels)} rows, got {len(self.entries)}"
            )
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError(
                    f"expected {len(self.col_labels)} columns, got a row of length {len(row)}"
                )
            for x in row:
                if not isinstance(x, int):
                    raise TypeError(f"matrix entries must be integers, got {x!r}")

    @classmethod
    def _trusted(
        cls,
        row_labels: tuple[str, ...],
        col_labels: tuple[str, ...],
        entries: tuple[tuple[int, ...], ...],
    ) -> "LabeledIntegerMatrix":
        # For arithmetic results only: label tuples taken from validated
        # operands, and a tuple of int tuples of the matching shape.
        m = object.__new__(cls)
        object.__setattr__(m, "row_labels", row_labels)
        object.__setattr__(m, "col_labels", col_labels)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def identity(cls, labels: Iterable[str]) -> "LabeledIntegerMatrix":
        labels = tuple(labels)
        n = len(labels)
        return cls(labels, labels, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, labels: Iterable[str], values: Sequence[int]) -> "LabeledIntegerMatrix":
        labels = tuple(labels)
        if len(values) != len(labels):
            raise ValueError("diagonal needs one value per label")
        n = len(labels)
        return cls(
            labels,
            labels,
            tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n)),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def entry(self, row_label: str, col_label: str) -> int:
        try:
            i = self.row_labels.index(row_label)
            j = self.col_labels.index(col_label)
        except ValueError:
            raise ValueError(f"no entry at ({row_label!r}, {col_label!r})") from None
        return self.entries[i][j]

    def transpose(self) -> "LabeledIntegerMatrix":
        # zip(*()) has no rows to give, so a matrix without rows needs its
        # empty columns spelled out.
        rows = tuple(zip(*self.entries)) if self.entries else ((),) * len(self.col_labels)
        return LabeledIntegerMatrix._trusted(self.col_labels, self.row_labels, rows)

    def _require_same_labels(self, other: "LabeledIntegerMatrix") -> None:
        if self.row_labels != other.row_labels or self.col_labels != other.col_labels:
            raise ValueError("matrix labels do not match")

    def __add__(self, other: "LabeledIntegerMatrix") -> "LabeledIntegerMatrix":
        if not isinstance(other, LabeledIntegerMatrix):
            return NotImplemented
        self._require_same_labels(other)
        rows = tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)
        )
        return LabeledIntegerMatrix._trusted(self.row_labels, self.col_labels, rows)

    def __sub__(self, other: "LabeledIntegerMatrix") -> "LabeledIntegerMatrix":
        if not isinstance(other, LabeledIntegerMatrix):
            return NotImplemented
        self._require_same_labels(other)
        rows = tuple(
            tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)
        )
        return LabeledIntegerMatrix._trusted(self.row_labels, self.col_labels, rows)

    def __neg__(self) -> "LabeledIntegerMatrix":
        rows = tuple(tuple(-a for a in row) for row in self.entries)
        return LabeledIntegerMatrix._trusted(self.row_labels, self.col_labels, rows)

    def __matmul__(self, other: "LabeledIntegerMatrix") -> "LabeledIntegerMatrix":
        if not isinstance(other, LabeledIntegerMatrix):
            return NotImplemented
        if self.col_labels != other.row_labels:
            raise ValueError("matrix product needs the inner labels to match")
        # Gustavson's row-by-row product: row i of the result is the sum of
        # a_ij times row j of other, over the nonzero a_ij and the nonzero
        # entries of that row only.
        sparse_rows = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        width = len(other.col_labels)
        rows = []
        for row in self.entries:
            acc = [0] * width
            for a, terms in zip(row, sparse_rows):
                if a:
                    for j, b in terms:
                        acc[j] += a * b
            rows.append(tuple(acc))
        return LabeledIntegerMatrix._trusted(self.row_labels, other.col_labels, tuple(rows))

    def power(self, k: int) -> "LabeledIntegerMatrix":
        """k-fold product of a square matrix with itself; power(0) is I.

        Computed by repeated squaring, in at most 2 log2(k) + 1 products.
        """
        if self.row_labels != self.col_labels:
            raise ValueError("matrix power needs equal row and column labels")
        if k < 0:
            raise ValueError(f"matrix power needs a nonnegative exponent, got {k}")
        result, square = LabeledIntegerMatrix.identity(self.row_labels), self
        while k:
            if k & 1:
                result = result @ square
            k >>= 1
            if k:
                square = square @ square
        return result


def _one_steps(g: OrientedHypergraph, vertex_rows: bool) -> LabeledIntegerMatrix:
    # Entry (a, b) sums the signs of the incidences joining anchor a to
    # anchor b of the other kind: H, or H^T with edge rows.
    here = g._walk_tables[0 if vertex_rows else 1]
    rows, cols = (g.vertices, g.edges) if vertex_rows else (g.edges, g.vertices)
    acc = [[0] * len(cols) for _ in rows]
    for row, steps in zip(acc, here):
        for other, sign, _ in steps:
            row[other] += sign
    return LabeledIntegerMatrix(rows, cols, acc)


def _pair_steps(g: OrientedHypergraph, vertex_rows: bool, weak: bool) -> LabeledIntegerMatrix:
    # Entry (a, b) sums -s1*s2 over the incidence pairs from a, through a
    # neighbour of the other kind, to b; the two incidences must be distinct
    # objects unless weak.  That is A (A_dual with edge rows), or -H H^T
    # (-H^T H) when weak.
    here, there = g._walk_tables if vertex_rows else g._walk_tables[::-1]
    labels = g.vertices if vertex_rows else g.edges
    acc = [[0] * len(labels) for _ in labels]
    for row, steps in zip(acc, here):
        for mid, s1, first in steps:
            for target, s2, second in there[mid]:
                if weak or second is not first:
                    row[target] -= s1 * s2
    return LabeledIntegerMatrix(labels, labels, acc)


def incidence_matrix(g: OrientedHypergraph) -> LabeledIntegerMatrix:
    """Vertices-by-edges matrix summing incidence signs over mult_index.

    For a simple instance each entry is the incidence sign, or 0 when the
    vertex and edge do not meet.
    """
    return _one_steps(g, True)


def adjacency_matrix(g: OrientedHypergraph) -> LabeledIntegerMatrix:
    """Vertices-by-vertices matrix of signed adjacency counts.

    Every ordered pair of distinct incidences inside one edge contributes
    -sign(first) * sign(second) to the entry of its vertex pair.  For a
    simple instance this leaves a zero diagonal and, off the diagonal, the
    sum over edges of -sign(v, e) * sign(w, e); repeated incidences add
    signed self-adjacencies on the diagonal.
    """
    return _pair_steps(g, True, False)


def degree_matrix(g: OrientedHypergraph) -> LabeledIntegerMatrix:
    """Diagonal matrix of vertex degrees (incidence counts)."""
    return LabeledIntegerMatrix.diagonal(g.vertices, [g.degree(v) for v in g.vertices])


def laplacian(g: OrientedHypergraph) -> LabeledIntegerMatrix:
    """Vertices-by-vertices H H^T, which equals D - A.

    Entry (v, w) sums sign * sign over the ordered pairs of incidences at v
    and at w inside one edge, the same incidence twice included.
    """
    return -_pair_steps(g, True, True)


def dual_laplacian(g: OrientedHypergraph) -> LabeledIntegerMatrix:
    """Edges-by-edges H^T H, which equals the Laplacian of the incidence dual."""
    return -_pair_steps(g, False, True)


def switching_matrix(theta: SwitchingFunction, vertex_order: Iterable[str]) -> LabeledIntegerMatrix:
    """Diagonal +1/-1 matrix of switching values in the given vertex order."""
    order = tuple(vertex_order)
    return LabeledIntegerMatrix.diagonal(order, [theta(v) for v in order])

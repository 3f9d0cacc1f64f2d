"""Exact integer matrices with labeled axes, and the standard constructions.

Everything here is plain Python integers, so arithmetic never overflows and
equality is exact.  Matrix equality requires equal row labels, equal column
labels, and equal entries.

Storage is dense; a matrix is its labels and entries alone.  Each kernel
derives the rows it reads, as their nonzero ``(column, value)`` pairs, once
per call: ``@`` from its right factor, so its products (verify's three and
``power``'s) skip zero terms, and ``_pushed`` from its step and start.
Validation happens once, at ``LabeledIntegerMatrix(...)``; the results of
arithmetic on validated matrices are built from their operands and are not
validated again.  This module is the only one that loops over stored rows or
builds a matrix without validating it: ``+`` and ``-`` share one entrywise
kernel, and ``_signed`` gives ``D_r M D_c`` for diagonal +1/-1 sign matrices
entry by entry, for unary minus and for the switching check in ``verify``,
which pass all-plus signs for a side they leave alone.  ``_pushed`` gives
``step^k start`` for ``walk_matrix`` without products, each row of the
running product packed into one int; ``walk_matrix`` chooses the start.

``H``, ``A``, both Laplacians and the walk steps come from two constructions
over the incidence tables, one-incidence and pair steps, so ``L = D - A``
and ``L = H H^T`` compare independent computations.

Every tuple in the package is built from a list, never from a generator,
``map``, ``zip`` or ``filter``: CPython allocates such a tuple at ten slots
and shrinks it, and the interpreter-wide free list of its final length then
keeps it after release, about 1 MB over a 40-trial verify family.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from operator import add, mul, neg, sub

from .core import OrientedHypergraph, SwitchingFunction, _Value, _require_int


class LabeledIntegerMatrix(_Value):
    """Dense integer matrix whose rows and columns are label sequences; an
    immutable value.

    Constructing one checks the labels, the shape and every entry, in
    ``__post_init__``; it is where a matrix from outside data is validated.
    The arithmetic operators, ``transpose`` and ``power`` return matrices
    that skip that check, since their labels and int entries come from
    operands that already passed it; they compare and hash like validated
    ones.
    """

    __slots__ = ("row_labels", "col_labels", "entries")

    def __init__(
        self,
        row_labels: Iterable[str],
        col_labels: Iterable[str],
        entries: Iterable[Iterable[int]],
    ) -> None:
        object.__setattr__(self, "row_labels", tuple(row_labels))
        object.__setattr__(self, "col_labels", tuple(col_labels))
        object.__setattr__(self, "entries", tuple([tuple(row) for row in entries]))
        self.__post_init__()

    def __post_init__(self) -> None:
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
                if type(x) is not int:
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
        return cls.diagonal(labels, [1] * len(labels))

    @classmethod
    def diagonal(cls, labels: Iterable[str], values: Sequence[int]) -> "LabeledIntegerMatrix":
        labels = tuple(labels)
        if len(values) != len(labels):
            raise ValueError("diagonal needs one value per label")
        n = len(labels)
        return cls(
            labels,
            labels,
            tuple([tuple([values[i] if i == j else 0 for j in range(n)]) for i in range(n)]),
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
        rows = tuple([*zip(*self.entries)]) if self.entries else ((),) * len(self.col_labels)
        return LabeledIntegerMatrix._trusted(self.col_labels, self.row_labels, rows)

    def _entrywise(self, other: "LabeledIntegerMatrix", op) -> "LabeledIntegerMatrix":
        if not isinstance(other, LabeledIntegerMatrix):
            return NotImplemented
        if self.row_labels != other.row_labels or self.col_labels != other.col_labels:
            raise ValueError("matrix labels do not match")
        rows = tuple([tuple([*map(op, r1, r2)]) for r1, r2 in zip(self.entries, other.entries)])
        return LabeledIntegerMatrix._trusted(self.row_labels, self.col_labels, rows)

    def __add__(self, other: "LabeledIntegerMatrix") -> "LabeledIntegerMatrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "LabeledIntegerMatrix") -> "LabeledIntegerMatrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "LabeledIntegerMatrix":
        return _signed(self, (-1,) * len(self.row_labels), (1,) * len(self.col_labels))

    def __matmul__(self, other: "LabeledIntegerMatrix") -> "LabeledIntegerMatrix":
        if not isinstance(other, LabeledIntegerMatrix):
            return NotImplemented
        if self.col_labels != other.row_labels:
            raise ValueError("matrix product needs the inner labels to match")
        # Gustavson's row-by-row product: row i of the result is the sum of
        # a_ij times row j of other, over the nonzero a_ij and the nonzero
        # entries of that row only.
        sparse_rows = _nonzero_rows(other)
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
        It is the reference for ``walk_matrix``: ``tests/test_walks.py``,
        acceptance criterion 1 and the README quickstart compare the two.
        """
        if self.row_labels != self.col_labels:
            raise ValueError("matrix power needs equal row and column labels")
        _require_int(k, "matrix power exponent")
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


# The field widths that memoryview.cast reads as signed ints, by format code.
_CAST_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}


def _nonzero_rows(m: LabeledIntegerMatrix) -> list[list[tuple[int, int]]]:
    # Each row's nonzero (column, value) pairs.
    return [[(j, b) for j, b in enumerate(row) if b] for row in m.entries]


def _row_norm(sparse_rows) -> int:
    # The largest absolute row sum of a matrix given by its nonzero rows:
    # no entry of m x exceeds it times max |x|.
    return max((sum(abs(b) for _, b in terms) for terms in sparse_rows), default=0)


def _pushed(
    step: LabeledIntegerMatrix, k: int, start: LabeledIntegerMatrix
) -> LabeledIntegerMatrix:
    # step^k start without products; start itself when k is 0.
    # Kronecker substitution: each row of the running product is one int
    # whose w-bit fields are its entries, so a push, row'_a = sum of
    # step[a][t] * row_t, is one big-int multiply-add per nonzero of step.
    # Packing is linear, so only the answer's entries need to fit a field,
    # and ||step||^k ||start|| bounds them.  A field is read back by adding
    # 2^(w-1) to every field, XOR-ing it back off, and reading w-bit two's
    # complement.
    if k == 0:
        return start
    # An even-n walk push starts at its step, whose rows are then read once.
    cols, steps = start.col_labels, _nonzero_rows(step)
    starts = steps if start is step else _nonzero_rows(start)
    bits = (_row_norm(steps) ** k * _row_norm(starts)).bit_length() + 1
    width = next((w for w in _CAST_FORMATS if w >= bits), -(-bits // 8) * 8)
    rows = [sum(b << width * j for j, b in terms) for terms in starts]
    for _ in range(k):
        rows = [sum([b * rows[t] for t, b in terms]) for terms in steps]
    size, order, fmt = width // 8, sys.byteorder, _CAST_FORMATS.get(width)
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * len(cols), "little")
    entries = []
    for packed in rows:
        data = ((packed + bias) ^ bias).to_bytes(size * len(cols), order)
        if fmt:
            fields = memoryview(data).cast(fmt).tolist()
        else:
            fields = [int.from_bytes(data[i:i + size], order, signed=True)
                      for i in range(0, len(data), size)]
        # Native order puts the first field last on a big-endian machine.
        entries.append(tuple(fields) if order == "little" else tuple(reversed(fields)))
    return LabeledIntegerMatrix._trusted(step.row_labels, cols, tuple(entries))


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


def _signed(
    m: LabeledIntegerMatrix, row_signs: Sequence[int], col_signs: Sequence[int]
) -> LabeledIntegerMatrix:
    # D_r M D_c for the diagonal +1/-1 matrices of the signs, without
    # products: each row is multiplied entrywise by the column signs, or by
    # their negation where its row sign is -1.
    flipped = tuple([*map(neg, col_signs)])
    rows = tuple([
        tuple([*map(mul, row, col_signs if s == 1 else flipped)])
        for s, row in zip(row_signs, m.entries)
    ])
    return LabeledIntegerMatrix._trusted(m.row_labels, m.col_labels, rows)


def _pair_steps(
    g: OrientedHypergraph, vertex_rows: bool, weak: bool, sign: int = -1
) -> LabeledIntegerMatrix:
    # Entry (a, b) sums sign*s1*s2 over the pairs of incidences, distinct
    # objects unless weak, from a through a neighbour of the other kind to b.
    # A, A_dual and the walk steps take sign -1; the Laplacians take +1.
    here, there = g._walk_tables if vertex_rows else g._walk_tables[::-1]
    labels = g.vertices if vertex_rows else g.edges
    acc = [[0] * len(labels) for _ in labels]
    for row, steps in zip(acc, here):
        for mid, s1, first in steps:
            for target, s2, second in there[mid]:
                if weak or second is not first:
                    row[target] += sign * s1 * s2
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
    return _pair_steps(g, True, True, 1)


def dual_laplacian(g: OrientedHypergraph) -> LabeledIntegerMatrix:
    """Edges-by-edges H^T H, which equals the Laplacian of the incidence dual."""
    return _pair_steps(g, False, True, 1)


def switching_matrix(theta: SwitchingFunction, vertex_order: Iterable[str]) -> LabeledIntegerMatrix:
    """Diagonal +1/-1 matrix of switching values in the given vertex order.

    It is the reference for ``_signed``, which verify conjugates by without
    forming a product: ``tests/test_verify.py`` compares ``_signed`` with
    ``D^T M D`` and ``D H`` built from this matrix.
    """
    order = tuple(vertex_order)
    return LabeledIntegerMatrix.diagonal(order, [theta(v) for v in order])

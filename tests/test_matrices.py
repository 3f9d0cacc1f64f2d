import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmatrix import (
    Incidence,
    InstanceFormatError,
    LabeledIntegerMatrix,
    OrientedHypergraph,
    SwitchingFunction,
    adjacency_matrix,
    degree_matrix,
    dual_laplacian,
    incidence_dual,
    incidence_matrix,
    is_simple,
    laplacian,
    parse_matrix,
    random_switching,
    switch,
    switching_matrix,
)

from helpers import double_incidence, instances, two_vertex_edge, uniform3_edge


class TestLabeledIntegerMatrix:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate row"):
            LabeledIntegerMatrix(("a", "a"), ("b",), ((1,), (2,)))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="columns"):
            LabeledIntegerMatrix(("a",), ("b", "c"), ((1,),))

    def test_rejects_non_integer_entries(self):
        with pytest.raises(TypeError):
            LabeledIntegerMatrix(("a",), ("b",), ((1.5,),))

    def test_addition_requires_matching_labels(self):
        a = LabeledIntegerMatrix.identity(("x", "y"))
        b = LabeledIntegerMatrix.identity(("x", "z"))
        with pytest.raises(ValueError, match="labels"):
            a + b

    def test_product_requires_matching_inner_labels(self):
        a = LabeledIntegerMatrix(("r",), ("x", "y"), ((1, 2),))
        b = LabeledIntegerMatrix(("y", "x"), ("c",), ((3,), (4,)))
        with pytest.raises(ValueError, match="inner labels"):
            a @ b

    def test_product_and_transpose(self):
        a = LabeledIntegerMatrix(("r1", "r2"), ("m",), ((2,), (3,)))
        b = LabeledIntegerMatrix(("m",), ("c1", "c2"), ((5, 7),))
        prod = a @ b
        assert prod.entries == ((10, 14), (15, 21))
        assert prod.transpose().entries == ((10, 15), (14, 21))
        assert prod.transpose().row_labels == ("c1", "c2")

    def test_product_through_empty_inner_dimension(self):
        a = LabeledIntegerMatrix(("r1", "r2"), (), ((), ()))
        b = LabeledIntegerMatrix((), ("c1",), ())
        assert (a @ b).entries == ((0,), (0,))

    def test_power(self):
        a = LabeledIntegerMatrix(("x", "y"), ("x", "y"), ((0, 1), (1, 0)))
        assert a.power(0) == LabeledIntegerMatrix.identity(("x", "y"))
        assert a.power(2) == LabeledIntegerMatrix.identity(("x", "y"))
        with pytest.raises(ValueError):
            a.power(-1)
        with pytest.raises(ValueError):
            LabeledIntegerMatrix(("x",), ("y",), ((1,),)).power(2)

    def test_equality_includes_labels(self):
        a = LabeledIntegerMatrix(("x",), ("y",), ((1,),))
        b = LabeledIntegerMatrix(("x",), ("z",), ((1,),))
        assert a != b

    def test_entry_lookup(self):
        a = LabeledIntegerMatrix(("x",), ("y",), ((7,),))
        assert a.entry("x", "y") == 7
        with pytest.raises(ValueError):
            a.entry("x", "x")


# Mostly zeros, as in the products verify forms, plus entries past 2**64.
_ENTRIES = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(-3, 3), st.integers(2**64, 2**70),
    st.integers(-(2**70), -(2**64)),
)


@st.composite
def _matrices(draw, rows=None, cols=None):
    """Matrices over r*/c* labels; 0 rows or 0 columns are drawn often."""
    n = draw(st.integers(0, 4)) if rows is None else len(rows)
    m = draw(st.integers(0, 4)) if cols is None else len(cols)
    rows = tuple(f"r{i}" for i in range(n)) if rows is None else rows
    cols = tuple(f"c{j}" for j in range(m)) if cols is None else cols
    entries = draw(st.lists(st.lists(_ENTRIES, min_size=m, max_size=m), min_size=n, max_size=n))
    return LabeledIntegerMatrix(rows, cols, entries)


@st.composite
def _product_pairs(draw):
    a = draw(_matrices())
    return a, draw(_matrices(rows=a.col_labels))


def _schoolbook(a: LabeledIntegerMatrix, b: LabeledIntegerMatrix):
    n, k, m = len(a.row_labels), len(b.row_labels), len(b.col_labels)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i][j] += a.entries[i][t] * b.entries[t][j]
    return tuple(tuple(row) for row in out)


def _assert_like_validated(m: LabeledIntegerMatrix) -> None:
    rebuilt = LabeledIntegerMatrix(m.row_labels, m.col_labels, m.entries)
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert type(m.entries) is tuple
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in m.entries)


class TestArithmetic:
    @given(_product_pairs())
    @settings(max_examples=150)
    def test_product_matches_schoolbook(self, pair):
        a, b = pair
        prod = a @ b
        assert prod.row_labels == a.row_labels and prod.col_labels == b.col_labels
        assert prod.entries == _schoolbook(a, b)

    def test_product_shapes_with_a_zero_dimension(self):
        no_rows = LabeledIntegerMatrix((), ("m",), ())
        no_cols = LabeledIntegerMatrix(("m",), (), ((),))
        wide = LabeledIntegerMatrix(("m",), ("c1", "c2"), ((1, 2),))
        assert (no_rows @ wide).entries == ()
        assert (wide.transpose() @ no_cols).entries == ((), ())
        assert no_rows.transpose() == LabeledIntegerMatrix(("m",), (), ((),))

    @given(_matrices(rows=("x", "y", "z"), cols=("x", "y", "z")), st.integers(0, 20))
    @settings(max_examples=60)
    def test_power_matches_iterated_product(self, a, k):
        iterated = LabeledIntegerMatrix.identity(a.row_labels)
        for _ in range(k):
            iterated = iterated @ a
        assert a.power(k) == iterated

    @given(_product_pairs(), st.integers(0, 5))
    def test_results_equal_and_hash_like_validated_matrices(self, pair, k):
        a, b = pair
        square = a @ a.transpose()
        for result in (a @ b, a + a, a - a, -a, a.transpose(), square.power(k)):
            _assert_like_validated(result)

    @pytest.mark.parametrize("build, error, match", [
        (lambda: LabeledIntegerMatrix.diagonal(("a", "b"), [1, 2.5]), TypeError, "integers"),
        (lambda: LabeledIntegerMatrix.diagonal(("a", "b"), [1]), ValueError, "one value"),
        (lambda: LabeledIntegerMatrix.diagonal(("a", "a"), [1, 2]), ValueError, "duplicate"),
        (lambda: parse_matrix(",c\na,1\na,2\n"), InstanceFormatError, "duplicate"),
        (lambda: parse_matrix('{"rows": ["a"], "cols": ["c"], "entries": [[1.5]]}', "json"),
         InstanceFormatError, "integer"),
        (lambda: parse_matrix('{"rows": ["a"], "cols": ["c"], "entries": [[1, 2]]}', "json"),
         InstanceFormatError, "columns"),
        (lambda: parse_matrix('{"rows": ["a", "a"], "cols": [], "entries": [[], []]}', "json"),
         InstanceFormatError, "duplicate"),
    ])
    def test_diagonal_and_parse_matrix_still_validate(self, build, error, match):
        # The constructor's own float, ragged and duplicate cases are in
        # TestLabeledIntegerMatrix, the CSV cell errors in test_io.
        with pytest.raises(error, match=match):
            build()


class TestIncidenceMatrix:
    def test_single_edge_column(self):
        assert incidence_matrix(two_vertex_edge()).entries == ((1,), (1,))

    def test_repeated_incidences_cancel(self):
        assert incidence_matrix(double_incidence()).entries == ((0,),)

    def test_labels_follow_declared_order(self):
        h = incidence_matrix(two_vertex_edge())
        assert h.row_labels == ("v1", "v2") and h.col_labels == ("e1",)

    @given(instances())
    def test_dual_incidence_matrix_is_transpose(self, g):
        assert incidence_matrix(incidence_dual(g)) == incidence_matrix(g).transpose()

    @given(instances())
    def test_row_pair_counts_sum_to_degree(self, g):
        for v in g.vertices:
            assert sum(1 for inc in g.incidences if inc.vertex == v) == g.degree(v)


class TestAdjacencyMatrix:
    def test_two_vertex_edge(self):
        assert adjacency_matrix(two_vertex_edge()).entries == ((0, -1), (-1, 0))

    def test_uniform3_edge(self):
        assert adjacency_matrix(uniform3_edge()).entries == (
            (0, -1, -1),
            (-1, 0, -1),
            (-1, -1, 0),
        )

    def test_repeated_incidence_self_adjacency(self):
        g = OrientedHypergraph(
            ("v1",), ("e1",), (Incidence("v1", "e1", 1, 1), Incidence("v1", "e1", 2, 1))
        )
        assert adjacency_matrix(g).entries == ((-2,),)
        assert adjacency_matrix(double_incidence()).entries == ((2,),)

    @given(instances())
    def test_symmetric(self, g):
        a = adjacency_matrix(g)
        assert a == a.transpose()

    @given(instances(simple=True))
    def test_simple_diagonal_is_zero(self, g):
        a = adjacency_matrix(g)
        assert all(a.entries[i][i] == 0 for i in range(len(g.vertices)))


class TestDegreeAndLaplacian:
    def test_degree_examples(self):
        assert degree_matrix(two_vertex_edge()).entries == ((1, 0), (0, 1))
        assert degree_matrix(double_incidence()).entries == ((2,),)
        isolated = OrientedHypergraph(("v1",), (), ())
        assert degree_matrix(isolated).entries == ((0,),)

    def test_laplacian_examples(self):
        assert laplacian(two_vertex_edge()).entries == ((1, 1), (1, 1))
        assert laplacian(uniform3_edge()).entries == ((1, 1, 1),) * 3
        assert laplacian(double_incidence()).entries == ((0,),)

    @given(instances())
    def test_laplacian_is_incidence_product(self, g):
        h = incidence_matrix(g)
        assert laplacian(g) == h @ h.transpose()

    @given(instances())
    def test_laplacian_is_degree_minus_adjacency(self, g):
        assert laplacian(g) == degree_matrix(g) - adjacency_matrix(g)

    @given(instances(simple=True))
    def test_simple_laplacian_diagonal_is_degree(self, g):
        lap, d = laplacian(g), degree_matrix(g)
        assert all(
            lap.entries[i][i] == d.entries[i][i] for i in range(len(g.vertices))
        )


class TestDualLaplacian:
    def test_examples(self):
        assert dual_laplacian(two_vertex_edge()).entries == ((2,),)
        assert dual_laplacian(uniform3_edge()).entries == ((3,),)

    @given(instances())
    def test_equals_transposed_product(self, g):
        h = incidence_matrix(g)
        assert dual_laplacian(g) == h.transpose() @ h

    @given(instances())
    def test_is_the_laplacian_of_the_dual(self, g):
        assert dual_laplacian(g) == laplacian(incidence_dual(g))

    def test_uniform_identity_on_golden(self):
        g = uniform3_edge()
        h = incidence_matrix(g)
        ki = LabeledIntegerMatrix.diagonal(g.edges, [3] * len(g.edges))
        assert h.transpose() @ h == ki - adjacency_matrix(incidence_dual(g))

    @given(instances(simple=True, max_edge_size=3, min_vertices=3), st.integers(2, 3))
    @settings(max_examples=25)
    def test_uniform_identity_random(self, g, k):
        sizes = {g.edge_size(e) for e in g.edges}
        if sizes and sizes != {k}:
            return
        h = incidence_matrix(g)
        ki = LabeledIntegerMatrix.diagonal(g.edges, [k] * len(g.edges))
        assert h.transpose() @ h == ki - adjacency_matrix(incidence_dual(g))


class TestSwitchingMatrix:
    def test_examples(self):
        ident = SwitchingFunction({"v1": 1, "v2": 1})
        assert switching_matrix(ident, ("v1", "v2")) == LabeledIntegerMatrix.identity(("v1", "v2"))
        mixed = SwitchingFunction({"v1": -1, "v2": 1})
        assert switching_matrix(mixed, ("v1", "v2")).entries == ((-1, 0), (0, 1))

    def test_missing_vertex(self):
        with pytest.raises(ValueError, match="v2"):
            switching_matrix(SwitchingFunction({"v1": 1}), ("v1", "v2"))

    @given(st.integers(0, 2**32))
    def test_involutory(self, seed):
        order = ("v1", "v2", "v3")
        d = switching_matrix(random_switching(seed, order), order)
        assert d @ d == LabeledIntegerMatrix.identity(order)

    @given(instances(), st.integers(0, 2**32))
    def test_conjugation_identities(self, g, seed):
        theta = random_switching(seed, g.vertices)
        dt = switching_matrix(theta, g.vertices)
        gs = switch(g, theta)
        assert adjacency_matrix(gs) == dt.transpose() @ adjacency_matrix(g) @ dt
        assert incidence_matrix(gs) == dt @ incidence_matrix(g)
        assert laplacian(gs) == dt.transpose() @ laplacian(g) @ dt


def test_empty_hypergraph_matrices():
    g = OrientedHypergraph((), (), ())
    assert incidence_matrix(g).shape == (0, 0)
    assert adjacency_matrix(g).shape == (0, 0)
    assert laplacian(g).shape == (0, 0)
    assert dual_laplacian(g).shape == (0, 0)

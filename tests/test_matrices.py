import ast
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmatrix import (
    Incidence,
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
    switch,
    switching_matrix,
)
from ohmatrix.matrices import _pushed

from helpers import double_incidence, instances, two_vertex_edge, uniform3_edge, with_edge_cases

SRC = Path(__file__).resolve().parent.parent / "src" / "ohmatrix"


def test_only_the_matrices_module_skips_validation():
    # Matrices built without validation, and so the row storage they assume,
    # are known to matrices.py alone.
    users = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "_trusted" in (getattr(node, "attr", None), getattr(node, "id", None),
                              getattr(node, "name", None)):
                users.add(path.name)
    assert users == {"matrices.py"}


def test_the_walk_oracle_reads_nothing_it_checks():
    # The search entry points and walk_sign, and every walks.py function they
    # reach, name neither the per-anchor index the builders share, nor what
    # reads it, nor the canonical sort key, nor a matrices function.
    def defs(name):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    walks, builders = defs("walks.py"), set(defs("matrices.py"))
    assert {"_one_steps", "_pair_steps", "laplacian"} <= builders
    checked = builders | {"_walk_tables", "incidence_sort_key", "incidences_at_vertex",
                          "incidences_at_edge", "degree", "edge_size", "_anchor_row",
                          "walk_matrix"}
    todo = ["enumerate_walks", "walk_counts", "backstep_count", "oracle_walk_counts",
            "oracle_walk_matrix", "walk_sign"]
    seen, readers = set(), {}
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        names = {getattr(node, "attr", None) or getattr(node, "id", None)
                 for node in ast.walk(walks[name])}
        todo.extend(names & walks.keys())
        if names & checked:
            readers[name] = sorted(names & checked)
    assert {"_plan", "_search", "walk_sign", "_check_walk"} <= seen
    assert readers == {}


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, and a __future__ import is a switch.
    unused = {}
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_every_tuple_is_built_from_a_list():
    # tuple() over a generator, map, zip or filter allocates ten slots and
    # shrinks them, and CPython parks the shrunk tuple on a free list when it
    # is released; a list gives tuple() its exact length.
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "tuple" and node.args):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp) or (
                isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                and arg.func.id in ("map", "zip", "filter")
            ):
                sites.append((path.name, node.lineno))
    assert not sites, "tuple() over an iterator at " + ", ".join(
        f"{name}:{line}" for name, line in sorted(sites)
    )


class TestLabeledIntegerMatrix:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate row"):
            LabeledIntegerMatrix(("a", "a"), ("b",), ((1,), (2,)))
        with pytest.raises(ValueError, match="^duplicate column labels$"):
            LabeledIntegerMatrix(("a",), ("b", "b"), ((1, 2),))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="columns"):
            LabeledIntegerMatrix(("a",), ("b", "c"), ((1,),))
        with pytest.raises(ValueError, match="^expected 2 rows, got 1$"):
            LabeledIntegerMatrix(("a", "b"), ("c",), ((1,),))

    def test_rejects_non_integer_entries(self):
        with pytest.raises(TypeError):
            LabeledIntegerMatrix(("a",), ("b",), ((1.5,),))

    def test_addition_requires_matching_labels(self):
        a = LabeledIntegerMatrix.identity(("x", "y"))
        b = LabeledIntegerMatrix.identity(("x", "z"))
        rows_differ = LabeledIntegerMatrix(("x", "z"), ("x", "y"), ((1, 0), (0, 1)))
        cols_differ = LabeledIntegerMatrix(("x", "y"), ("x", "z"), ((1, 0), (0, 1)))
        for other in (b, rows_differ, cols_differ):
            for op in (operator.add, operator.sub):
                with pytest.raises(ValueError, match="^matrix labels do not match$"):
                    op(a, other)
        with pytest.raises(TypeError):
            a + 1

    def test_product_requires_matching_inner_labels(self):
        a = LabeledIntegerMatrix(("r",), ("x", "y"), ((1, 2),))
        b = LabeledIntegerMatrix(("y", "x"), ("c",), ((3,), (4,)))
        with pytest.raises(ValueError, match="inner labels"):
            a @ b
        with pytest.raises(TypeError):
            a @ 1

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
        for k in (True, 2.0):
            with pytest.raises(ValueError,
                               match=f"^matrix power exponent must be an integer, got {k}$"):
                a.power(k)
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
        (lambda: LabeledIntegerMatrix(["a"], ["c"], [[1.5]]), TypeError, "integers"),
        (lambda: LabeledIntegerMatrix(["a"], ["c"], [[True]]), TypeError, "integers"),
        (lambda: LabeledIntegerMatrix(["a"], ["c"], [[1, 2]]), ValueError, "columns"),
        (lambda: LabeledIntegerMatrix(["a", "a"], [], [[], []]), ValueError, "duplicate"),
    ])
    def test_diagonal_and_list_input_still_validate(self, build, error, match):
        # The constructor's own tuple cases are in TestLabeledIntegerMatrix;
        # data decoded from JSON comes as lists and may hold floats and bools.
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
    @with_edge_cases()
    def test_dual_incidence_matrix_is_transpose(self, g):
        assert incidence_matrix(incidence_dual(g)) == incidence_matrix(g).transpose()

    @given(instances())
    @with_edge_cases()
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
    @with_edge_cases()
    def test_symmetric(self, g):
        a = adjacency_matrix(g)
        assert a == a.transpose()

    @given(instances(simple=True))
    @with_edge_cases()
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
    @with_edge_cases()
    def test_laplacian_is_incidence_product(self, g):
        h = incidence_matrix(g)
        assert laplacian(g) == h @ h.transpose()

    @given(instances())
    @with_edge_cases()
    def test_laplacian_is_degree_minus_adjacency(self, g):
        assert laplacian(g) == degree_matrix(g) - adjacency_matrix(g)

    @given(instances(simple=True))
    @with_edge_cases()
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
    @with_edge_cases()
    def test_equals_transposed_product(self, g):
        h = incidence_matrix(g)
        assert dual_laplacian(g) == h.transpose() @ h

    @given(instances())
    @with_edge_cases()
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
        rng = random.Random(seed)
        d = switching_matrix(SwitchingFunction({v: rng.choice((1, -1)) for v in order}), order)
        assert d @ d == LabeledIntegerMatrix.identity(order)

    @given(instances(), st.integers(0, 2**32))
    @with_edge_cases(0)
    def test_conjugation_identities(self, g, seed):
        rng = random.Random(seed)
        theta = SwitchingFunction({v: rng.choice((1, -1)) for v in g.vertices})
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


class TestPushed:
    # A step whose entries share one sign and whose absolute row sums are
    # all r, pushed onto the all-ones column, gives (+-r)^k in every entry:
    # the kernel's bound itself.
    # The cases sit at the edges of the 8-, 16-, 32- and 64-bit fields and
    # beyond them, where fields are read with int.from_bytes.
    @pytest.mark.parametrize("r, k", [
        pytest.param(127, 1, id="w8-top"),
        pytest.param(2, 7, id="w16-bottom"),
        pytest.param(2**15 - 1, 1, id="w16-top"),
        pytest.param(2, 15, id="w32-bottom"),
        pytest.param(2**31 - 1, 1, id="w32-top"),
        pytest.param(2, 31, id="w64-bottom"),
        pytest.param(2**63 - 1, 1, id="w64-top"),
        pytest.param(2, 63, id="w72-bottom"),
        pytest.param(3, 90, id="w144"),
    ])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_answers_at_the_bound(self, r, k, sign):
        labels = ("a", "b")
        off = sign * (r - 1)
        step = LabeledIntegerMatrix(labels, labels, ((sign, off), (off, sign)))
        ones = LabeledIntegerMatrix(labels, ("c",), ((1,), (1,)))
        pushed = _pushed(step, k, ones)
        assert pushed.entries == (((sign * r) ** k,),) * 2
        assert pushed == step.power(k) @ ones

    @given(instances(), st.integers(1, 6))
    @with_edge_cases(2)
    def test_equals_the_products(self, g, k):
        a = adjacency_matrix(g)
        assert _pushed(a, k - 1, a) == a.power(k)
        h = incidence_matrix(g)
        assert _pushed(a, k, h) == a.power(k) @ h

    def test_no_push_is_the_start(self):
        a = adjacency_matrix(two_vertex_edge())
        assert _pushed(a, 0, a) is a

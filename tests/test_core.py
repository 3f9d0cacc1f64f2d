import pytest
from hypothesis import given
from hypothesis import strategies as st

from ohmatrix import (
    Incidence,
    LabeledIntegerMatrix,
    OrientedHypergraph,
    OrientedSignedGraph,
    SwitchingFunction,
    adjacency_matrix,
    incidence_dual,
    is_k_regular,
    is_k_uniform,
    is_simple,
    random_switching,
    switch,
    validate,
)

from helpers import double_incidence, instances, two_vertex_edge, uniform3_edge


class TestIncidence:
    def test_fields(self):
        inc = Incidence("v1", "e1", 2, -1)
        assert inc.triple == ("v1", "e1", 2)
        assert inc.sign == -1

    def test_rejects_zero_sign(self):
        with pytest.raises(ValueError, match="sign"):
            Incidence("v1", "e1", 1, 0)

    def test_rejects_nonpositive_mult_index(self):
        with pytest.raises(ValueError, match="mult_index"):
            Incidence("v1", "e1", 0, 1)


# A bool compares equal to 1, so a check of value alone lets True through;
# the serializers would then write true or True, which the parsers reject.
@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Incidence("v1", "e1", 1, True), ValueError, "incidence sign"),
        (lambda: Incidence("v1", "e1", True, 1), ValueError, "mult_index"),
        (lambda: SwitchingFunction({"v1": True}), ValueError, "switching values"),
        (lambda: LabeledIntegerMatrix(("v1",), ("v1",), ((True,),)), TypeError, "integers"),
        (
            lambda: OrientedSignedGraph(
                ("v1", "v2"), ("e1",), {"e1": ("v1", "v2")},
                {("v1", "e1"): True, ("v2", "e1"): 1},
            ),
            ValueError,
            "orientation value",
        ),
    ],
    ids=["incidence-sign", "mult-index", "switching", "matrix-entry", "orientation"],
)
def test_constructors_refuse_bools(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestValidate:
    def test_well_formed(self):
        assert validate(two_vertex_edge()) == []

    def test_duplicate_triple_named(self):
        g = OrientedHypergraph(
            ("v1",), ("e1",), (Incidence("v1", "e1", 1, 1), Incidence("v1", "e1", 1, 1))
        )
        report = validate(g)
        assert any("('v1', 'e1', 1)" in p and "appears 2" in p for p in report)

    def test_multiplicity_gap_named(self):
        g = OrientedHypergraph(
            ("v1",), ("e1",), (Incidence("v1", "e1", 1, 1), Incidence("v1", "e1", 3, -1))
        )
        report = validate(g)
        assert any("mult_index" in p and "[1, 3]" in p for p in report)

    def test_undeclared_labels(self):
        g = OrientedHypergraph(("v1",), ("e1",), (Incidence("v2", "e9", 1, 1),))
        report = validate(g)
        assert any("undeclared vertex 'v2'" in p for p in report)
        assert any("undeclared edge 'e9'" in p for p in report)

    def test_duplicate_and_overlapping_labels(self):
        g = OrientedHypergraph(("a", "a"), ("a",), ())
        report = validate(g)
        assert any("duplicate vertex" in p for p in report)
        assert any("both as a vertex and as an edge" in p for p in report)

    def test_empty_instance_is_valid(self):
        assert validate(OrientedHypergraph((), (), ())) == []

    @given(instances())
    def test_generated_instances_are_valid(self, g):
        assert validate(g) == []


class TestPredicates:
    def test_simple(self):
        assert is_simple(two_vertex_edge())
        assert not is_simple(double_incidence())
        assert is_simple(OrientedHypergraph((), (), ()))

    def test_uniform(self):
        g = uniform3_edge()
        assert is_k_uniform(g, 3)
        assert not is_k_uniform(g, 2)
        edgeless = OrientedHypergraph(("v1",), (), ())
        assert all(is_k_uniform(edgeless, k) for k in (1, 2, 5))
        with pytest.raises(ValueError):
            is_k_uniform(g, 0)

    def test_regular(self):
        g = two_vertex_edge()
        assert is_k_regular(g, 1)
        assert not is_k_regular(g, 2)
        with pytest.raises(ValueError):
            is_k_regular(g, -1)

    def test_dual_of_uniform_is_regular(self):
        g = OrientedHypergraph(
            ("v1", "v2", "v3", "v4"),
            ("e1", "e2"),
            (
                Incidence("v1", "e1", 1, 1),
                Incidence("v2", "e1", 1, -1),
                Incidence("v3", "e1", 1, 1),
                Incidence("v1", "e2", 1, 1),
                Incidence("v2", "e2", 1, 1),
                Incidence("v4", "e2", 1, -1),
            ),
        )
        assert is_k_uniform(g, 3)
        assert is_k_regular(incidence_dual(g), 3)


class TestDual:
    def test_explicit_relabeling(self):
        d = incidence_dual(two_vertex_edge())
        assert d.vertices == ("e1",)
        assert d.edges == ("v1", "v2")
        assert set(d.incidences) == {
            Incidence("e1", "v1", 1, 1),
            Incidence("e1", "v2", 1, 1),
        }

    def test_empty(self):
        empty = OrientedHypergraph((), (), ())
        assert incidence_dual(empty) == empty

    @given(instances())
    def test_involution(self, g):
        assert incidence_dual(incidence_dual(g)) == g

    @given(instances())
    def test_degree_and_edge_size_swap(self, g):
        d = incidence_dual(g)
        assert all(g.degree(v) == d.edge_size(v) for v in g.vertices)
        assert all(g.edge_size(e) == d.degree(e) for e in g.edges)


class TestSwitch:
    def test_identity_switching(self):
        g = two_vertex_edge()
        theta = SwitchingFunction({"v1": 1, "v2": 1})
        assert switch(g, theta) == g

    def test_explicit_sign_flip(self):
        g = two_vertex_edge()
        theta = SwitchingFunction({"v1": -1, "v2": 1})
        assert set(switch(g, theta).incidences) == {
            Incidence("v1", "e1", 1, -1),
            Incidence("v2", "e1", 1, 1),
        }

    def test_missing_vertex_named(self):
        with pytest.raises(ValueError, match="v2"):
            switch(two_vertex_edge(), SwitchingFunction({"v1": 1}))

    def test_extra_vertex_rejected(self):
        with pytest.raises(ValueError, match="v9"):
            switch(two_vertex_edge(), SwitchingFunction({"v1": 1, "v2": 1, "v9": -1}))

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError, match="values"):
            SwitchingFunction({"v1": 0})

    def test_equal_switchings_hash_equal(self):
        a = SwitchingFunction({"v1": 1, "v2": -1})
        b = SwitchingFunction({"v2": -1, "v1": 1})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, SwitchingFunction({"v1": -1, "v2": -1})}) == 2

    @given(instances(), st.integers(0, 2**32))
    def test_involution(self, g, seed):
        theta = random_switching(seed, g.vertices)
        assert switch(switch(g, theta), theta) == g

    @given(instances(), st.integers(0, 2**32))
    def test_underlying_structure_preserved(self, g, seed):
        theta = random_switching(seed, g.vertices)
        gs = switch(g, theta)
        assert gs.vertices == g.vertices and gs.edges == g.edges
        assert sorted(i.triple for i in gs.incidences) == sorted(i.triple for i in g.incidences)


def test_equality_ignores_incidence_storage_order():
    a = OrientedHypergraph(
        ("v1", "v2"), ("e1",), (Incidence("v1", "e1", 1, 1), Incidence("v2", "e1", 1, 1))
    )
    b = OrientedHypergraph(
        ("v1", "v2"), ("e1",), (Incidence("v2", "e1", 1, 1), Incidence("v1", "e1", 1, 1))
    )
    assert a == b and hash(a) == hash(b)
    assert a != OrientedHypergraph(("v2", "v1"), ("e1",), a.incidences)


class TestIncidenceLookups:
    def test_undeclared_label_is_a_value_error(self):
        g = two_vertex_edge()
        with pytest.raises(ValueError, match="^unknown vertex 'v9'$"):
            g.incidences_at_vertex("v9")
        with pytest.raises(ValueError, match="^unknown edge 'e9'$"):
            g.edge_size("e9")

    @pytest.mark.parametrize("inc, bad", [
        (Incidence("v9", "e1"), "v9"), (Incidence("v1", "e9"), "e9"),
    ])
    def test_incidence_naming_an_undeclared_label_names_that_label(self, inc, bad):
        # A declared label is looked up fine; the index build then fails on
        # the incidence's own undeclared label, as adjacency_matrix does.
        g = OrientedHypergraph(("v1",), ("e1",), (inc,))
        for lookup in (lambda: g.incidences_at_vertex("v1"), lambda: g.degree("v1"),
                       lambda: g.incidences_at_edge("e1"), lambda: g.edge_size("e1"),
                       lambda: adjacency_matrix(g)):
            with pytest.raises(KeyError, match=f"^'{bad}'$"):
                lookup()

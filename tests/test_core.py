import copy
import pickle
import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ohmatrix import (
    DEFAULT_MAX_WALKS,
    CheckResult,
    Incidence,
    LabeledIntegerMatrix,
    OrientedHypergraph,
    OrientedSignedGraph,
    SwitchingFunction,
    VerificationReport,
    VerifyOptions,
    Walk,
    WalkCounts,
    adjacency_matrix,
    degree_matrix,
    dual_laplacian,
    enumerate_walks,
    format_report,
    incidence_dual,
    incidence_matrix,
    is_k_uniform,
    is_simple,
    laplacian,
    oracle_walk_counts,
    run_verify_suite,
    serialize_instance,
    switch,
    validate,
    walk_matrix,
)

from helpers import (
    double_incidence, instances, path3, two_vertex_edge, uniform3_edge, with_edge_cases,
)


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


_I1, _I2 = Incidence("v1", "e1"), Incidence("v2", "e1", 1, -1)
_I_TEXT = ("Incidence(vertex='v1', edge='e1', mult_index=1, sign=1), "
           "Incidence(vertex='v2', edge='e1', mult_index=1, sign=-1)")
_OPTIONS = (10, 6, 7, 3, 6, 4, 500)
_CHECK_ARGS = ("walk_oracle_power", "|V|=1", "A differs", 7, 3)
_CHECK = CheckResult(*_CHECK_ARGS)
_CHECK_TEXT = ("CheckResult(check_name='walk_oracle_power', instance_summary='|V|=1', "
               "counterexample='A differs', seed=7, trial=3)")
_TAU = {("v1", "e1"): 1, ("v2", "e1"): -1}

# Per value class: positional arguments, its fields, its repr, keywords that
# leave the defaulted fields out with the positional arguments they stand
# for, instances that differ in one field each, and arguments it refuses.
VALUE_CASES = [
    pytest.param(
        Incidence, ("v1", "e1", 2, -1), ("vertex", "edge", "mult_index", "sign"),
        "Incidence(vertex='v1', edge='e1', mult_index=2, sign=-1)",
        ({"vertex": "v1", "edge": "e1"}, ("v1", "e1", 1, 1)),
        [("v2", "e1", 2, -1), ("v1", "e2", 2, -1), ("v1", "e1", 1, -1), ("v1", "e1", 2, 1)],
        [("v1", "e1", 2, 2), ("v1", "e1", 0, -1), ("v1", "e1", 2.0, -1)],
        id="Incidence",
    ),
    pytest.param(
        OrientedHypergraph, (["v1", "v2"], ["e1"], [_I1, _I2]), ("vertices", "edges", "incidences"),
        f"OrientedHypergraph(vertices=('v1', 'v2'), edges=('e1',), incidences=({_I_TEXT}))",
        ({"vertices": ["v1"], "edges": ()}, (("v1",), (), ())),
        [(["v2", "v1"], ["e1"], [_I1, _I2]), (["v1", "v2"], ["e2"], [_I1, _I2]),
         (["v1", "v2"], ["e1"], [_I1])],
        [],
        id="OrientedHypergraph",
    ),
    pytest.param(
        SwitchingFunction, ({"v1": 1, "v2": -1},), ("assignment",),
        "SwitchingFunction(assignment={'v1': 1, 'v2': -1})",
        ({"assignment": {"v1": -1}}, ({"v1": -1},)),
        [({"v1": 1, "v2": 1},), ({"v1": 1},)],
        [({"v1": 2},), ({"v1": 0},)],
        id="SwitchingFunction",
    ),
    pytest.param(
        LabeledIntegerMatrix, (["r1", "r2"], ["c1"], [[1], [-2]]),
        ("row_labels", "col_labels", "entries"),
        "LabeledIntegerMatrix(row_labels=('r1', 'r2'), col_labels=('c1',), entries=((1,), (-2,)))",
        ({"row_labels": ["r1"], "col_labels": [], "entries": [[]]}, (("r1",), (), ((),))),
        [(["r2", "r1"], ["c1"], [[1], [-2]]), (["r1", "r2"], ["c2"], [[1], [-2]]),
         (["r1", "r2"], ["c1"], [[1], [2]])],
        [(["r1", "r1"], ["c1"], [[1], [2]]), (["r1"], ["c1"], [[1], [2]]),
         (["r1"], ["c1"], [[1.0]])],
        id="LabeledIntegerMatrix",
    ),
    pytest.param(
        Walk, (["v1", "e1", "v2"], [_I1, _I2], True), ("anchors", "incidences", "weak"),
        f"Walk(anchors=('v1', 'e1', 'v2'), incidences=({_I_TEXT}), weak=True)",
        ({"anchors": ["v1"], "incidences": []}, (("v1",), (), False)),
        [(["v2", "e1", "v2"], [_I1, _I2], True), (["v1", "e1", "v2"], [_I2, _I2], True),
         (["v1", "e1", "v2"], [_I1, _I2], False)],
        [(["v1", "e1"], [_I1, _I2]), (["v1"], [_I1])],
        id="Walk",
    ),
    pytest.param(
        WalkCounts, (3, 5), ("positive", "negative"), "WalkCounts(positive=3, negative=5)",
        ({"negative": 1, "positive": 2}, (2, 1)),
        [(4, 5), (3, 6)],
        [],
        id="WalkCounts",
    ),
    pytest.param(
        VerifyOptions, _OPTIONS,
        ("trials", "max_vertices", "max_edges", "max_edge_size", "max_walk_incidences",
         "switching_trials", "max_walks"),
        "VerifyOptions(trials=10, max_vertices=6, max_edges=7, max_edge_size=3, "
        "max_walk_incidences=6, switching_trials=4, max_walks=500)",
        ({"trials": 10}, (10, 8, 8, 4, 8, 1, DEFAULT_MAX_WALKS)),
        [(*_OPTIONS[:i], _OPTIONS[i] + 1, *_OPTIONS[i + 1:]) for i in range(7)],
        [(True, *_OPTIONS[1:]), (10, 6.0, *_OPTIONS[2:]), (10, 0, *_OPTIONS[2:]),
         (*_OPTIONS[:6], 0), (*_OPTIONS[:4], 501, *_OPTIONS[5:])],
        id="VerifyOptions",
    ),
    pytest.param(
        CheckResult, _CHECK_ARGS,
        ("check_name", "instance_summary", "counterexample", "seed", "trial"), _CHECK_TEXT,
        ({"check_name": "c", "instance_summary": "s"}, ("c", "s", None, None, None)),
        [(*_CHECK_ARGS[:i], other, *_CHECK_ARGS[i + 1:])
         for i, other in enumerate(("degree_backsteps", "|V|=2", None, 8, None))],
        [("walk_oracle_power",)],
        id="CheckResult",
    ),
    pytest.param(
        VerificationReport, ([_CHECK], ["trial 3: cut short"]), ("results", "notes"),
        f"VerificationReport(results=({_CHECK_TEXT},), notes=('trial 3: cut short',))",
        ({"results": []}, ((), ())),
        [([], ["trial 3: cut short"]), ([_CHECK], []), ([_CHECK, _CHECK], ["trial 3: cut short"])],
        [],
        id="VerificationReport",
    ),
    pytest.param(
        OrientedSignedGraph, (["v1", "v2"], ["e1"], {"e1": ("v2", "v1")}, _TAU),
        ("vertices", "edges", "endpoints", "orientation"),
        "OrientedSignedGraph(vertices=('v1', 'v2'), edges=('e1',), endpoints={'e1': ('v1', 'v2')}, "
        "orientation={('v1', 'e1'): 1, ('v2', 'e1'): -1})",
        ({"vertices": ["v1"], "edges": [], "endpoints": {}, "orientation": {}},
         (("v1",), (), {}, {})),
        [(["v1", "v2", "v3"], ["e1"], {"e1": ("v1", "v2")}, _TAU),
         (["v1", "v2"], ["e1"], {"e1": ("v1", "v1")}, {("v1", "e1"): 1}),
         (["v1", "v2"], ["e1"], {"e1": ("v1", "v2")}, {("v1", "e1"): 1, ("v2", "e1"): 1})],
        [(["v1", "v1"], ["e1"], {"e1": ("v1", "v1")}, {("v1", "e1"): 1}),
         (["v1", "v2"], ["e1"], {"e1": ("v1", "v3")}, _TAU),
         (["v1", "v2"], ["e1"], {"e1": ("v1", "v2")}, {("v1", "e1"): 1}),
         (["v1", "v2"], ["e1"], {"e1": ("v1", "v2")}, {("v1", "e1"): 1, ("v2", "e1"): 2})],
        id="OrientedSignedGraph",
    ),
]


@pytest.mark.parametrize("cls, args, fields, text, defaults, others, refused", VALUE_CASES)
def test_value_semantics(cls, args, fields, text, defaults, others, refused):
    value, twin = cls(*args), cls(*args)
    assert cls.__match_args__ == fields
    assert value == twin and not value != twin and value is not twin
    assert hash(value) == hash(twin)
    for changed in map(cls, *zip(*others)):
        assert value != changed and not value == changed
    # Equality holds only within the class: a tuple of the same fields, or
    # another value class, is left to the other operand.
    stranger = Incidence("v1", "e1") if cls is WalkCounts else WalkCounts(3, 5)
    for other in (tuple(getattr(value, f) for f in fields), stranger):
        assert value.__eq__(other) is NotImplemented
        assert value != other
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value and hash(clone) == hash(value)
        assert repr(clone) == text
    assert cls(**dict(zip(fields, args))) == value
    keywords, positional = defaults
    assert cls(**keywords) == cls(*positional)
    for bad in refused:
        with pytest.raises((ValueError, TypeError)):
            cls(*bad)


def test_matrix_is_its_fields():
    # A matrix carries its three fields and nothing else: no instance
    # dictionary to cache derived views in.
    assert LabeledIntegerMatrix.__slots__ == LabeledIntegerMatrix.__match_args__
    m = LabeledIntegerMatrix(["v1"], ["e1"], [[1]])
    assert not hasattr(m, "__dict__")


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
    @with_edge_cases()
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
        for k in (True, 3.0):
            with pytest.raises(ValueError,
                               match=f"^uniformity parameter must be an integer, got {k}$"):
                is_k_uniform(g, k)

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
        d = incidence_dual(g)
        assert all(d.degree(v) == 3 for v in d.vertices)


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
    @with_edge_cases()
    def test_involution(self, g):
        assert incidence_dual(incidence_dual(g)) == g

    @given(instances())
    @with_edge_cases()
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

    @pytest.mark.parametrize("values", [(1, -1), (-1, 1)])
    def test_keeps_the_incidences_at_plus_one_vertices_and_negates_the_rest(self, values):
        # v1 meets e1 twice, so both branches see a repeated (vertex, edge) pair.
        g = OrientedHypergraph(
            ("v1", "v2"),
            ("e1",),
            (
                Incidence("v1", "e1", 1, 1),
                Incidence("v1", "e1", 2, -1),
                Incidence("v2", "e1", 1, 1),
            ),
        )
        theta = SwitchingFunction(dict(zip(g.vertices, values)))
        for old, new in zip(g.incidences, switch(g, theta).incidences, strict=True):
            if theta(old.vertex) == 1:
                assert new is old
            else:
                assert new == Incidence(old.vertex, old.edge, old.mult_index, -old.sign)

    @pytest.mark.parametrize("value", [1, -1])
    def test_incidence_at_an_undeclared_vertex_is_named(self, value):
        g = OrientedHypergraph(("v1",), ("e1",), (Incidence("v1", "e1"), Incidence("v9", "e1")))
        with pytest.raises(ValueError, match="^switching function is undefined on vertex 'v9'$"):
            switch(g, SwitchingFunction({"v1": value}))

    def test_equal_switchings_hash_equal(self):
        a = SwitchingFunction({"v1": 1, "v2": -1})
        b = SwitchingFunction({"v2": -1, "v1": 1})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, SwitchingFunction({"v1": -1, "v2": -1})}) == 2

    @given(instances(), st.integers(0, 2**32))
    @with_edge_cases(0)
    def test_involution(self, g, seed):
        rng = random.Random(seed)
        theta = SwitchingFunction({v: rng.choice((1, -1)) for v in g.vertices})
        assert switch(switch(g, theta), theta) == g

    @given(instances(), st.integers(0, 2**32))
    @with_edge_cases(0)
    def test_underlying_structure_preserved(self, g, seed):
        rng = random.Random(seed)
        theta = SwitchingFunction({v: rng.choice((1, -1)) for v in g.vertices})
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
    assert (a == "g") is False


def _order_dependent_outputs(g):
    # Each result that the storage order of g.incidences must leave unchanged.
    anchors = [(a, True) for a in g.vertices] + [(a, False) for a in g.edges]
    outputs = [
        f(g) for f in (incidence_matrix, adjacency_matrix, degree_matrix, laplacian,
                       dual_laplacian, serialize_instance)
    ]
    outputs += [(g.incidences_at_vertex(v), g.degree(v)) for v in g.vertices]
    outputs += [(g.incidences_at_edge(e), g.edge_size(e)) for e in g.edges]
    for (rows, rows_vertex), (cols, cols_vertex), n, weak in product(
        (("V", True), ("E", False)), (("V", True), ("E", False)), range(5), (False, True)
    ):
        if n % 2 == (rows_vertex != cols_vertex):
            outputs += [walk_matrix(g, rows, cols, n, weak),
                        oracle_walk_counts(g, rows, cols, n, weak)]
    for (start, start_vertex), (end, end_vertex), n, weak in product(
        anchors, anchors, range(5), (False, True)
    ):
        if n % 2 == (start_vertex != end_vertex):
            outputs.append(enumerate_walks(g, start, end, n, weak))
    outputs.append(format_report(run_verify_suite(g, seed=0)))
    return outputs


class TestIncidenceStorageOrder:
    @given(instances(), st.integers(0, 2**32))
    @with_edge_cases(0)
    def test_no_output_depends_on_it(self, g, seed):
        shuffled = list(g.incidences)
        random.Random(seed).shuffle(shuffled)
        h = OrientedHypergraph(g.vertices, g.edges, shuffled)
        assert _order_dependent_outputs(h) == _order_dependent_outputs(g)

    def test_only_the_canonical_accessors_and_serialization_sort(self, monkeypatch):
        # The builders' index is in storage order; canonical order is made
        # where it is promised, by the declared-order key itself.
        calls = []
        key = OrientedHypergraph.incidence_sort_key
        monkeypatch.setattr(OrientedHypergraph, "incidence_sort_key",
                            lambda g, inc: calls.append(inc) or key(g, inc))
        g = path3()
        for build in (adjacency_matrix, incidence_matrix, degree_matrix, laplacian,
                      dual_laplacian, lambda g: walk_matrix(g, "V", "V", 4)):
            build(g)
        assert calls == []
        serialize_instance(g)
        assert len(calls) == len(g.incidences)
        g.incidences_at_vertex("v2")
        assert len(calls) == len(g.incidences) + g.degree("v2")


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

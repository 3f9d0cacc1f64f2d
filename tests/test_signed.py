import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmatrix import (
    Incidence,
    OrientedHypergraph,
    OrientedSignedGraph,
    VerifyOptions,
    adjacency_matrix,
    format_report,
    from_hypergraph,
    incidence_dual,
    incidence_matrix,
    line_graph,
    random_bidirected_instance,
    run_verify_suite,
    to_hypergraph,
    underlying_is_simple,
)

from helpers import path3, two_vertex_edge, uniform3_edge


def loop_graph():
    return OrientedSignedGraph(
        ("v1",), ("e1",), {"e1": ("v1", "v1")}, {("v1", "e1"): 1}
    )


@st.composite
def bidirected_instances(draw, max_vertices=6, max_edges=6, min_edges=0):
    nv = draw(st.integers(2, max_vertices))
    cap = min(max_edges, nv * (nv - 1) // 2)
    ne = draw(st.integers(min_edges, cap))
    seed = draw(st.integers(0, 2**48))
    return random_bidirected_instance(seed, nv, ne)


class TestFromHypergraph:
    def test_all_plus_edge_is_negative(self):
        s = from_hypergraph(two_vertex_edge())
        assert s.signature == {"e1": -1}
        assert s.orientation == {("v1", "e1"): 1, ("v2", "e1"): 1}

    def test_mixed_signs_give_positive_edge(self):
        g = OrientedHypergraph(
            ("v1", "v2"), ("e1",),
            (Incidence("v1", "e1", 1, 1), Incidence("v2", "e1", 1, -1)),
        )
        assert from_hypergraph(g).signature == {"e1": 1}

    def test_rejects_other_edge_sizes(self):
        with pytest.raises(ValueError, match="'e1' has size 3"):
            from_hypergraph(uniform3_edge())

    def test_loop_with_equal_signs(self):
        g = OrientedHypergraph(
            ("v1",), ("e1",),
            (Incidence("v1", "e1", 1, -1), Incidence("v1", "e1", 2, -1)),
        )
        s = from_hypergraph(g)
        assert s.endpoints["e1"] == ("v1", "v1")
        assert s.signature["e1"] == -1

    def test_loop_with_mixed_signs_not_representable(self):
        g = OrientedHypergraph(
            ("v1",), ("e1",),
            (Incidence("v1", "e1", 1, 1), Incidence("v1", "e1", 2, -1)),
        )
        with pytest.raises(ValueError, match="loop edge 'e1'"):
            from_hypergraph(g)


class TestToHypergraph:
    def test_loop_expands_to_two_mult_indices(self):
        g = to_hypergraph(loop_graph())
        assert set(g.incidences) == {
            Incidence("v1", "e1", 1, 1),
            Incidence("v1", "e1", 2, 1),
        }

    def test_round_trip_from_graph(self):
        s = from_hypergraph(path3())
        assert from_hypergraph(to_hypergraph(s)) == s
        assert from_hypergraph(to_hypergraph(loop_graph())) == loop_graph()

    @given(bidirected_instances())
    def test_round_trip_from_hypergraph(self, g):
        assert to_hypergraph(from_hypergraph(g)) == g


class TestOrientedSignedGraphValidation:
    @given(bidirected_instances())
    @settings(max_examples=30)
    def test_signature_is_derived_from_the_orientation(self, g):
        # tau(v, e) is the incidence sign, so sigma(e) = -tau * tau is minus
        # the product of the edge's two incidence signs.
        expected = {}
        for e in g.edges:
            first, second = g.incidences_at_edge(e)
            expected[e] = -first.sign * second.sign
        s = from_hypergraph(g)
        assert s.signature == expected
        assert list(s.signature) == list(s.edges)

    def test_loop_signature_is_negative(self):
        assert loop_graph().signature == {"e1": -1}

    def test_orientation_domain_is_exact(self):
        with pytest.raises(ValueError, match="orientation"):
            OrientedSignedGraph(
                ("v1", "v2"), ("e1",), {"e1": ("v1", "v2")}, {("v1", "e1"): 1}
            )

    @pytest.mark.parametrize("vertices, edges, endpoints, message", [
        (("v1", "v1"), ("e1",), {"e1": ("v1", "v1")}, "^duplicate vertex labels$"),
        (("v1",), ("e1", "e1"), {"e1": ("v1", "v1")}, "^duplicate edge labels$"),
        (("v1", "x"), ("x",), {"x": ("v1", "v1")}, "^vertex and edge labels must be disjoint$"),
        (("v1",), ("e1", "e2"), {"e1": ("v1", "v1")},
         "^endpoints must cover exactly the declared edges$"),
        (("v1",), ("e1",), {"e1": ("v1", "v1"), "e2": ("v1", "v1")},
         "^endpoints must cover exactly the declared edges$"),
        (("v1",), ("e1",), {"e1": ("v1", "v9")}, "^edge 'e1' has an undeclared endpoint$"),
    ])
    def test_refuses_inconsistent_labels(self, vertices, edges, endpoints, message):
        with pytest.raises(ValueError, match=message):
            OrientedSignedGraph(vertices, edges, endpoints, {("v1", "e1"): 1})

    def test_endpoints_are_normalized_to_vertex_order(self):
        s = OrientedSignedGraph(
            ("v1", "v2"), ("e1",), {"e1": ("v2", "v1")},
            {("v1", "e1"): 1, ("v2", "e1"): -1},
        )
        assert s.endpoints["e1"] == ("v1", "v2")

    def test_equal_graphs_hash_equal(self):
        def build(endpoints, orientation):
            return OrientedSignedGraph(("v1", "v2", "v3"), ("e1", "e2"), endpoints, orientation)

        a = build({"e1": ("v1", "v2"), "e2": ("v2", "v3")},
                  {("v1", "e1"): 1, ("v2", "e1"): -1, ("v2", "e2"): 1, ("v3", "e2"): 1})
        b = build({"e2": ("v3", "v2"), "e1": ("v1", "v2")},
                  {("v3", "e2"): 1, ("v2", "e2"): 1, ("v2", "e1"): -1, ("v1", "e1"): 1})
        assert a == b and hash(a) == hash(b)
        c = build({"e1": ("v1", "v2"), "e2": ("v2", "v3")},
                  {("v1", "e1"): 1, ("v2", "e1"): 1, ("v2", "e2"): 1, ("v3", "e2"): 1})
        assert len({a, b, c}) == 2


class TestLineGraph:
    def test_path_example(self):
        s = from_hypergraph(path3())
        lam = line_graph(s)
        assert lam.vertices == ("e1", "e2")
        assert len(lam.edges) == 1
        (f,) = lam.edges
        assert lam.orientation == {("e1", f): -1, ("e2", f): 1}
        assert lam.signature[f] == 1

    def test_disjoint_edges_give_edgeless_line_graph(self):
        g = OrientedHypergraph(
            ("v1", "v2", "v3", "v4"), ("e1", "e2"),
            (
                Incidence("v1", "e1", 1, 1),
                Incidence("v2", "e1", 1, 1),
                Incidence("v3", "e2", 1, 1),
                Incidence("v4", "e2", 1, 1),
            ),
        )
        assert line_graph(from_hypergraph(g)).edges == ()

    def test_rejects_loops_and_parallel_edges(self):
        with pytest.raises(ValueError, match="loop"):
            line_graph(loop_graph())
        parallel = OrientedSignedGraph(
            ("v1", "v2"), ("e1", "e2"),
            {"e1": ("v1", "v2"), "e2": ("v1", "v2")},
            {("v1", "e1"): 1, ("v2", "e1"): 1, ("v1", "e2"): 1, ("v2", "e2"): -1},
        )
        assert not underlying_is_simple(parallel)
        with pytest.raises(ValueError, match="parallel"):
            line_graph(parallel)

    def test_label_collision_gets_suffixed(self):
        g = OrientedHypergraph(
            ("v1", "v2", "v3"), ("e1", "e2", "e1~e2"),
            (
                Incidence("v1", "e1", 1, 1),
                Incidence("v2", "e1", 1, 1),
                Incidence("v2", "e2", 1, 1),
                Incidence("v3", "e2", 1, 1),
                Incidence("v1", "e1~e2", 1, 1),
                Incidence("v3", "e1~e2", 1, 1),
            ),
        )
        lam = line_graph(from_hypergraph(g))
        assert len(set(lam.edges) | set(lam.vertices)) == len(lam.edges) + len(lam.vertices)

    @given(bidirected_instances())
    @settings(max_examples=30)
    def test_adjacency_matches_the_dual(self, g):
        lam = line_graph(from_hypergraph(g))
        assert adjacency_matrix(to_hypergraph(lam)) == adjacency_matrix(incidence_dual(g))


LINE_GRAPH_CHECKS = (
    "laplacian_incidence_product",
    "line_graph_dual_adjacency",
    "line_graph_incidence_identity",
)


def assert_line_graph_checks_pass(g):
    """The verify suite runs and passes both line-graph identities on ``g``."""
    report = run_verify_suite(g, options=VerifyOptions(max_walk_incidences=2, switching_trials=1))
    status = {r.check_name: r.status for r in report.results}
    assert {name: status.get(name) for name in LINE_GRAPH_CHECKS} == dict.fromkeys(
        LINE_GRAPH_CHECKS, "pass"
    ), format_report(report)


class TestSignedGraphIdentities:
    def test_path_example(self):
        assert_line_graph_checks_pass(path3())

    def test_single_edge(self):
        g = two_vertex_edge()
        assert_line_graph_checks_pass(g)
        h = incidence_matrix(g)
        assert (h.transpose() @ h).entries == ((2,),)

    @given(bidirected_instances(min_edges=1))
    @settings(max_examples=30)
    def test_hold_on_random_instances(self, g):
        assert_line_graph_checks_pass(g)

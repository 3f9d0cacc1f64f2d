import gc
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ohmatrix.matrices
import ohmatrix.walks
from ohmatrix import (
    EnumerationLimitError,
    Incidence,
    LabeledIntegerMatrix,
    OrientedHypergraph,
    Walk,
    WalkCounts,
    adjacency_matrix,
    backstep_count,
    degree_matrix,
    dual_laplacian,
    enumerate_walks,
    incidence_dual,
    incidence_matrix,
    laplacian,
    oracle_walk_counts,
    oracle_walk_matrix,
    random_instance,
    walk_counts,
    walk_matrix,
    walk_sign,
)

from helpers import (
    double_incidence, instances, path3, two_vertex_edge, uniform3_edge,
    with_edge_cases,
)


class TestWalkSign:
    def test_trivial_walk_is_positive(self):
        g = two_vertex_edge()
        assert walk_sign(g, Walk(("v1",), ())) == 1

    def test_single_step(self):
        g = two_vertex_edge()
        w = Walk(
            ("v1", "e1", "v2"),
            (Incidence("v1", "e1", 1, 1), Incidence("v2", "e1", 1, 1)),
        )
        assert walk_sign(g, w) == -1

    @pytest.mark.parametrize("sign", [1, -1])
    def test_backstep_is_negative_for_both_signs(self, sign):
        inc = Incidence("v1", "e1", 1, sign)
        g = OrientedHypergraph(("v1",), ("e1",), (inc,))
        w = Walk(("v1", "e1", "v1"), (inc, inc), weak=True)
        assert w.is_backstep
        assert walk_sign(g, w) == -1

    def test_rejects_foreign_incidence(self):
        g = two_vertex_edge()
        w = Walk(
            ("v1", "e1", "v2"),
            (Incidence("v1", "e1", 1, -1), Incidence("v2", "e1", 1, 1)),
        )
        with pytest.raises(ValueError, match="not part"):
            walk_sign(g, w)

    # path3's incidences in order: v1-e1, v2-e1, v2-e2, v3-e2.
    @pytest.mark.parametrize("anchors, positions, message", [
        (("v2", "e1", "v2"), (0, 1), "incidence 1 does not join 'v2' to 'e1'"),
        (("v1", "e2", "v2"), (0, 2), "incidence 1 does not join 'v1' to 'e2'"),
        (("v1", "e1", "v3"), (0, 1), "incidence 2 does not join 'e1' to 'v3'"),
        (("e2", "v2", "e2"), (1, 2), "incidence 1 does not join 'e2' to 'v2'"),
        (("e1", "v2", "e1"), (1, 2), "incidence 2 does not join 'v2' to 'e1'"),
    ], ids=["after-a-vertex", "to-another-edge", "after-an-edge", "edge-start",
            "edge-start-after-a-vertex"])
    def test_rejects_disconnected_steps(self, anchors, positions, message):
        g = path3()
        w = Walk(anchors, tuple(g.incidences[p] for p in positions), weak=True)
        with pytest.raises(ValueError, match=f"^{message}$"):
            walk_sign(g, w)

    def test_rejects_pair_reuse_in_strict_walk(self):
        inc = Incidence("v1", "e1", 1, 1)
        g = OrientedHypergraph(("v1",), ("e1",), (inc,))
        w = Walk(("v1", "e1", "v1"), (inc, inc), weak=False)
        with pytest.raises(ValueError, match="coincide"):
            walk_sign(g, w)

    def test_names_the_later_pair_that_coincides(self):
        # Incidences 2 and 3 coincide at a vertex, which a strict walk
        # allows; 3 and 4 coincide at an edge, which it does not.
        g = two_vertex_edge()
        first, second = g.incidences
        w = Walk(("v1", "e1", "v2", "e1", "v2"), (first, second, second, second), weak=False)
        with pytest.raises(ValueError, match="^incidences 3 and 4 coincide in a non-weak walk$"):
            walk_sign(g, w)

    def test_cross_walk_sign(self):
        g = two_vertex_edge()
        w = Walk(("v1", "e1"), (Incidence("v1", "e1", 1, 1),))
        assert walk_sign(g, w) == 1

    @pytest.mark.parametrize("anchors", [("v1",), ("v1", "e1", "v2")])
    def test_walk_needs_one_more_anchor_than_incidences(self, anchors):
        with pytest.raises(ValueError, match="exactly one more anchor than incidences"):
            Walk(anchors, (Incidence("v1", "e1", 1, 1),))


class TestEnumerateWalks:
    def test_single_adjacency(self):
        g = two_vertex_edge()
        walks = enumerate_walks(g, "v1", "v2", 2)
        assert len(walks) == 1
        assert walks[0].anchors == ("v1", "e1", "v2")

    def test_backstep_only_when_weak(self):
        g = two_vertex_edge()
        assert enumerate_walks(g, "v1", "v1", 2) == []
        weak = enumerate_walks(g, "v1", "v1", 2, weak=True)
        assert len(weak) == 1 and weak[0].is_backstep

    def test_repeated_incidence_pair_orderings(self):
        g = double_incidence()
        walks = enumerate_walks(g, "v1", "v1", 2)
        assert len(walks) == 2
        assert all(walk_sign(g, w) == 1 for w in walks)

    def test_trivial_walks(self):
        g = two_vertex_edge()
        assert len(enumerate_walks(g, "v1", "v1", 0)) == 1
        assert enumerate_walks(g, "v1", "v2", 0) == []
        assert len(enumerate_walks(g, "e1", "e1", 0)) == 1

    def test_parity_errors(self):
        g = two_vertex_edge()
        with pytest.raises(ValueError, match="even"):
            enumerate_walks(g, "v1", "v2", 3)
        with pytest.raises(ValueError, match="odd"):
            enumerate_walks(g, "v1", "e1", 2)

    def test_unknown_anchor(self):
        with pytest.raises(ValueError, match="unknown anchor"):
            enumerate_walks(two_vertex_edge(), "nope", "v1", 2)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_walks(two_vertex_edge(), "v1", "v1", -2)
        # A bool or a float equal to an integer is no count either.
        for n in (True, 4.0):
            for count in (enumerate_walks, walk_counts):
                with pytest.raises(ValueError,
                                   match=f"^incidence count must be an integer, got {n}$"):
                    count(two_vertex_edge(), "v1", "v1", n)

    def test_incidence_cap(self):
        assert len(enumerate_walks(two_vertex_edge(), "v1", "v1", 500)) == 1
        with pytest.raises(ValueError, match="^incidence count must be at most 500, got 502$"):
            enumerate_walks(two_vertex_edge(), "v1", "v1", 502)

    def test_walk_ceiling_alone_bounds_the_deepest_search(self):
        # A weak pair step on the two-vertex edge has two choices, so this
        # search would generate 2**250 walks: only max_walks stops it.
        with pytest.raises(EnumerationLimitError,
                           match="^walk enumeration exceeded the ceiling of 1000 walks$"):
            enumerate_walks(two_vertex_edge(), "v1", "v1", 500, weak=True, max_walks=1000)

    @pytest.mark.parametrize("value, message", [
        (0, "at least 1, got 0"), (-1, "at least 1, got -1"),
        (True, "an integer, got True"), (2.5, "an integer, got 2.5"),
    ], ids=["0", "-1", "True", "2.5"])
    def test_ceilings_below_their_least_value(self, value, message):
        with pytest.raises(ValueError, match=f"^max_walks must be {message}$"):
            enumerate_walks(two_vertex_edge(), "v1", "v1", 2, max_walks=value)
        with pytest.raises(ValueError, match=f"^max_walks must be {message}$"):
            oracle_walk_matrix(two_vertex_edge(), "V", "V", 2, max_walks=value)
        assert len(enumerate_walks(two_vertex_edge(), "v1", "v2", 2, max_walks=1)) == 1

    def test_walk_count_ceiling(self):
        with pytest.raises(EnumerationLimitError, match="exceeded"):
            enumerate_walks(uniform3_edge(), "v1", "v2", 2, max_walks=1)

    def test_canonical_order(self):
        g = OrientedHypergraph(
            ("v1", "v2"),
            ("e1", "e2"),
            (
                Incidence("v1", "e1", 1, 1),
                Incidence("v2", "e1", 1, 1),
                Incidence("v1", "e2", 1, 1),
                Incidence("v2", "e2", 1, 1),
            ),
        )
        walks = enumerate_walks(g, "v1", "v2", 2)
        assert [w.anchors[1] for w in walks] == ["e1", "e2"]

    def test_may_leave_vertex_along_arrival_incidence(self):
        # v1 -> e1 -> v2 -> e1 again through the same incidence is allowed
        # because only the incidence pairs (1, 2), (3, 4), ... are constrained.
        g = two_vertex_edge()
        walks = enumerate_walks(g, "v1", "e1", 3)
        assert len(walks) == 1
        w = walks[0]
        assert w.anchors == ("v1", "e1", "v2", "e1")
        assert w.incidences[1] == w.incidences[2]


class TestWalkCounts:
    def test_single_adjacency(self):
        counts = walk_counts(two_vertex_edge(), "v1", "v2", 2)
        assert (counts.total, counts.positive, counts.negative, counts.signed_net) == (1, 0, 1, -1)

    def test_zero_length(self):
        g = two_vertex_edge()
        assert walk_counts(g, "v1", "v1", 0).total == 1
        assert walk_counts(g, "v1", "v2", 0).total == 0

    def test_weak_counts_on_repeated_incidence(self):
        counts = walk_counts(double_incidence(), "v1", "v1", 2, weak=True)
        assert counts.total == 4 and counts.signed_net == 0

    def test_counts_come_from_the_search_without_building_walks(self, monkeypatch):
        # Every anchor pair of a seeded non-simple instance, strict and weak:
        # the counts equal the signs of the enumerated walks, and still come
        # out once building a Walk raises.
        g = random_instance(5, 4, 3, 3, simple=False, non_simple_rate=0.5)
        anchors = (*g.vertices, *g.edges)
        expected = {}
        for start, end in itertools.product(anchors, repeat=2):
            odd = (start in g.vertex_index) != (end in g.vertex_index)
            for n, weak in itertools.product(range(odd, 5, 2), (False, True)):
                signs = [walk_sign(g, w) for w in enumerate_walks(g, start, end, n, weak)]
                expected[start, end, n, weak] = WalkCounts(signs.count(1), signs.count(-1))

        def refuse(*args, **kwargs):
            raise AssertionError("a Walk was built")

        monkeypatch.setattr(ohmatrix.walks, "Walk", refuse)
        for (start, end, n, weak), counts in expected.items():
            assert walk_counts(g, start, end, n, weak) == counts, (start, end, n, weak)
        with pytest.raises(AssertionError, match="a Walk was built"):
            enumerate_walks(g, g.vertices[0], g.vertices[0], 0)

    def test_total_and_net_are_derived_from_the_signed_counts(self):
        counts = WalkCounts(positive=3, negative=5)
        assert WalkCounts.__match_args__ == ("positive", "negative")
        assert (counts.total, counts.signed_net) == (8, -2)

    @given(instances(max_vertices=4, max_edges=3), st.integers(0, 2))
    @with_edge_cases(1)
    @settings(max_examples=25)
    def test_matches_walk_matrix_entries(self, g, k):
        m = walk_matrix(g, "V", "V", 2 * k)
        for i, vi in enumerate(g.vertices):
            for j, vj in enumerate(g.vertices):
                assert m.entries[i][j] == walk_counts(g, vi, vj, 2 * k).signed_net


class TestWalkMatrix:
    def test_zero_steps_is_identity(self):
        g = uniform3_edge()
        assert walk_matrix(g, "V", "V", 0).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert walk_matrix(g, "E", "E", 0).entries == ((1,),)

    @given(instances())
    @with_edge_cases()
    def test_half_step_matrix_is_incidence_matrix(self, g):
        assert walk_matrix(g, "V", "E", 1) == incidence_matrix(g)

    @given(instances())
    @with_edge_cases()
    def test_one_step_matrix_is_adjacency(self, g):
        assert walk_matrix(g, "V", "V", 2) == adjacency_matrix(g)

    @given(instances(simple=True), st.integers(0, 3))
    @with_edge_cases(1)
    @settings(max_examples=25)
    def test_powers_count_walks_on_simple_instances(self, g, k):
        assert walk_matrix(g, "V", "V", 2 * k) == adjacency_matrix(g).power(k)

    @given(instances(max_vertices=4, max_edges=4))
    @with_edge_cases()
    @settings(max_examples=25)
    def test_powers_count_walks_with_repeated_incidences(self, g):
        # The positional pair constraint never spans the seam between a
        # one-step prefix and the rest, so the product rule survives
        # repeated incidences as well.
        a = adjacency_matrix(g)
        for k in (2, 3):
            assert walk_matrix(g, "V", "V", 2 * k) == a.power(k)

    def test_parity_mismatch(self):
        g = two_vertex_edge()
        with pytest.raises(ValueError, match="odd"):
            walk_matrix(g, "V", "E", 2)
        with pytest.raises(ValueError, match="even"):
            walk_matrix(g, "V", "V", 1)

    def test_bad_anchor_family(self):
        with pytest.raises(ValueError, match="anchor family"):
            walk_matrix(two_vertex_edge(), "X", "V", 1)

    @given(instances(max_vertices=4, max_edges=4), st.sampled_from(["V", "E"]), st.integers(0, 2))
    @with_edge_cases("E", 1)
    @settings(max_examples=25)
    def test_equal_anchor_matrices_are_symmetric(self, g, family, k):
        m = walk_matrix(g, family, family, 2 * k)
        assert m == m.transpose()

    def test_anchor_with_no_incidences_gives_zero_line(self):
        g = OrientedHypergraph(
            ("v1", "v2", "v3"), ("e1",),
            (Incidence("v1", "e1", 1, 1), Incidence("v2", "e1", 1, 1)),
        )
        m = walk_matrix(g, "V", "V", 2)
        assert m.entries[2] == (0, 0, 0)
        assert tuple(row[2] for row in m.entries) == (0, 0, 0)


class TestRequestContract:
    # Every public walk entry point runs the one request check, so a request
    # with one fault gets the same message from each of them.
    @staticmethod
    def _entry_points(same_kind):
        g = path3()
        end, family = ("v2", "V") if same_kind else ("e1", "E")
        return {
            "enumerate_walks": lambda n, **kw: enumerate_walks(g, "v1", end, n, **kw),
            "walk_counts": lambda n, **kw: walk_counts(g, "v1", end, n, **kw),
            "oracle_walk_counts": lambda n, **kw: oracle_walk_counts(g, "V", family, n, **kw),
            "oracle_walk_matrix": lambda n, **kw: oracle_walk_matrix(g, "V", family, n, **kw),
            "walk_matrix": lambda n, **kw: walk_matrix(g, "V", family, n, **kw),
        }

    @staticmethod
    def _messages(calls, **request):
        messages = {}
        for name, call in calls.items():
            with pytest.raises(ValueError) as exc:
                call(**request)
            messages[name] = str(exc.value)
        return messages

    @pytest.mark.parametrize(
        "same_kind, n, message",
        [
            (True, -2, "incidence count must be nonnegative, got -2"),
            (True, True, "incidence count must be an integer, got True"),
            (True, 3, "walks between two vertices need an even incidence count, got 3"),
            (False, 2, "walks between a vertex and an edge need an odd incidence count, got 2"),
        ],
        ids=["negative", "bool", "odd-between-vertices", "even-vertex-to-edge"],
    )
    def test_one_fault_one_message_at_every_entry_point(self, same_kind, n, message):
        calls = self._entry_points(same_kind)
        assert self._messages(calls, n=n) == dict.fromkeys(calls, message)

    @pytest.mark.parametrize(
        "request_, message",
        [
            ({"n": 2, "max_walks": 0}, "max_walks must be at least 1, got 0"),
            ({"n": 502}, "incidence count must be at most 500, got 502"),
        ],
        ids=["walk-ceiling", "incidence-cap"],
    )
    def test_every_search_refuses_past_its_ceilings(self, request_, message):
        searches = self._entry_points(True)
        del searches["walk_matrix"]
        assert self._messages(searches, **request_) == dict.fromkeys(searches, message)


FAMILY_PAIRS = [("V", "V", 0), ("V", "E", 1), ("E", "V", 1), ("E", "E", 0)]


class TestClosedForm:
    @pytest.mark.parametrize("simple", [True, False])
    @given(data=st.data())
    def test_matches_the_oracle(self, simple, data):
        g = data.draw(instances(max_vertices=4, max_edges=3, simple=simple))
        for rows, cols, odd in FAMILY_PAIRS:
            for n in range(odd, 8, 2):
                assert walk_matrix(g, rows, cols, n) == oracle_walk_matrix(g, rows, cols, n)
                assert walk_matrix(g, rows, cols, n, weak=True) == oracle_walk_matrix(
                    g, rows, cols, n, weak=True
                )

    @given(instances(max_vertices=5, max_edges=4))
    @with_edge_cases()
    @settings(max_examples=15)
    def test_matches_dense_powers_where_the_oracle_is_unaffordable(self, g):
        h = incidence_matrix(g)
        ht = h.transpose()
        a, a_dual = adjacency_matrix(g), adjacency_matrix(incidence_dual(g))
        neg_l, neg_dual_l = -laplacian(g), -dual_laplacian(g)
        for k in range(21):
            assert walk_matrix(g, "V", "V", 2 * k) == a.power(k)
            assert walk_matrix(g, "V", "E", 2 * k + 1) == a.power(k) @ h
            assert walk_matrix(g, "E", "V", 2 * k + 1) == a_dual.power(k) @ ht
            assert walk_matrix(g, "E", "E", 2 * k) == a_dual.power(k)
            assert walk_matrix(g, "V", "V", 2 * k, weak=True) == neg_l.power(k)
            assert walk_matrix(g, "V", "E", 2 * k + 1, weak=True) == neg_l.power(k) @ h
            assert walk_matrix(g, "E", "V", 2 * k + 1, weak=True) == neg_dual_l.power(k) @ ht
            assert walk_matrix(g, "E", "E", 2 * k, weak=True) == neg_dual_l.power(k)

    @given(instances(max_vertices=4, max_edges=4), st.sampled_from(FAMILY_PAIRS), st.booleans())
    @settings(max_examples=20)
    def test_equals_powers_through_every_field_width(self, g, family, weak):
        # k runs until the answer's bound ||step||^k ||tail|| needs more than
        # 64 bits.  With 2 <= ||step|| < 256, as on these instances, it grows
        # by 1 to 8 bits a step, so the answer passes through the 8-, 16-,
        # 32- and 64-bit fields and on to the wide ones.
        rows, cols, odd = family
        gr = g if rows == "V" else incidence_dual(g)
        step = -laplacian(gr) if weak else adjacency_matrix(gr)
        tail = incidence_matrix(gr) if odd else None
        norm = max((sum(map(abs, row)) for row in step.entries), default=0)
        bound = 1 if tail is None else max(sum(map(abs, row)) for row in tail.entries)
        assume(norm >= 2 and bound >= 1)
        k = 0
        while bound.bit_length() < 64:
            expected = step.power(k) if tail is None else step.power(k) @ tail
            assert walk_matrix(g, rows, cols, 2 * k + odd, weak=weak) == expected
            bound, k = bound * norm, k + 1
        expected = step.power(k) if tail is None else step.power(k) @ tail
        assert walk_matrix(g, rows, cols, 2 * k + odd, weak=weak) == expected

    def test_no_walk_ceiling(self):
        g = two_vertex_edge()
        assert walk_matrix(g, "V", "V", 2000).entries == ((1, 0), (0, 1))
        assert walk_matrix(g, "V", "E", 2001) == incidence_matrix(g)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            walk_matrix(two_vertex_edge(), "V", "V", -2, weak=True)
        for n in (True, 4.0):
            for matrix in (walk_matrix, oracle_walk_matrix):
                with pytest.raises(ValueError,
                                   match=f"^incidence count must be an integer, got {n}$"):
                    matrix(two_vertex_edge(), "V", "V", n)

    @pytest.mark.parametrize("build", [
        lambda: OrientedHypergraph((), (), ()),
        lambda: OrientedHypergraph((), ("e1", "e2"), ()),
        lambda: OrientedHypergraph(("v1", "v2"), (), ()),
        two_vertex_edge, double_incidence, path3,
    ])
    def test_results_compare_and_hash_like_validated_matrices(self, build):
        g = build()
        for rows, cols, odd in FAMILY_PAIRS:
            for n in range(odd, 6, 2):
                for m in (walk_matrix(g, rows, cols, n, weak=weak) for weak in (False, True)):
                    rebuilt = LabeledIntegerMatrix(m.row_labels, m.col_labels, m.entries)
                    assert m == rebuilt and hash(m) == hash(rebuilt)
                    assert type(m.entries) is tuple
                    assert all(type(row) is tuple for row in m.entries)
                    assert all(type(x) is int for row in m.entries for x in row)

    def test_calls_no_matrix_builder(self, monkeypatch):
        g = path3()
        expected = {
            (rows, cols, n, weak): oracle_walk_matrix(g, rows, cols, n, weak=weak)
            for rows, cols, odd in FAMILY_PAIRS for n in range(odd, 6, 2)
            for weak in (False, True)
        }

        def refuse(*args, **kwargs):
            raise AssertionError("a matrix builder was called")

        for module in (ohmatrix.matrices, ohmatrix.walks):
            for name in ("adjacency_matrix", "incidence_matrix", "laplacian"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for (rows, cols, n, weak), oracle in expected.items():
            assert walk_matrix(g, rows, cols, n, weak=weak) == oracle

    def test_scans_each_matrix_once(self, monkeypatch):
        # A push derives the nonzero rows of its step and of its start once
        # each, and an even-n push, which starts at its step, only the
        # step's; a product derives its right factor's.
        scanned = []
        derive = ohmatrix.matrices._nonzero_rows

        def counted(m):
            scanned.append(m)
            return derive(m)

        monkeypatch.setattr(ohmatrix.matrices, "_nonzero_rows", counted)
        g = random_instance(5, 6, 6, 3)
        a, h = adjacency_matrix(g), incidence_matrix(g)
        even = walk_matrix(g, "V", "V", 8)
        assert scanned == [a]
        scanned.clear()
        odd = walk_matrix(g, "V", "E", 9)
        assert scanned == [a, h]
        scanned.clear()
        a @ h
        assert scanned == [h]
        monkeypatch.undo()
        assert even == a.power(4) and odd == a.power(4) @ h

    def test_oracle_keeps_its_ceilings(self):
        with pytest.raises(ValueError, match="^incidence count must be at most 500, got 502$"):
            oracle_walk_matrix(two_vertex_edge(), "V", "V", 502)
        with pytest.raises(EnumerationLimitError, match="exceeded"):
            oracle_walk_matrix(uniform3_edge(), "V", "V", 2, max_walks=1)


class TestOracleWalkCounts:
    @pytest.mark.parametrize("simple", [True, False])
    @given(data=st.data())
    @settings(max_examples=20)
    def test_matches_per_pair_walk_counts(self, simple, data):
        # Both searches carry their own signs; each pair's walks are signed
        # here by walk_sign, independently of the search's running product.
        g = data.draw(instances(max_vertices=4, max_edges=3, simple=simple))
        weak = data.draw(st.booleans())
        for rows, cols, odd in FAMILY_PAIRS:
            for n in range(odd, 7, 2):
                positive, negative = oracle_walk_counts(g, rows, cols, n, weak=weak)
                for i, a in enumerate(positive.row_labels):
                    for j, b in enumerate(positive.col_labels):
                        signs = [walk_sign(g, w) for w in enumerate_walks(g, a, b, n, weak=weak)]
                        expected = (signs.count(1), signs.count(-1))
                        assert (positive.entries[i][j], negative.entries[i][j]) == expected
                        counts = walk_counts(g, a, b, n, weak=weak)
                        assert (counts.positive, counts.negative) == expected

    def test_searches_leave_no_reference_cycles(self):
        # Cyclic garbage waits for the collector, so its size would set the
        # process's peak memory; a finished or cut-short search leaves none.
        gc.collect()
        gc.disable()
        try:
            oracle_walk_counts(path3(), "V", "V", 6)
            enumerate_walks(path3(), "v1", "v2", 4)
            with pytest.raises(EnumerationLimitError):
                oracle_walk_counts(path3(), "V", "V", 6, max_walks=1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @given(instances(max_vertices=5, max_edges=4), st.booleans())
    @with_edge_cases(True)
    def test_signed_matrix_is_positive_minus_negative(self, g, weak):
        for rows, cols, odd in FAMILY_PAIRS:
            for n in (odd, odd + 2):
                positive, negative = oracle_walk_counts(g, rows, cols, n, weak=weak)
                assert oracle_walk_matrix(g, rows, cols, n, weak=weak) == positive - negative


class TestWeakWalkMatrix:
    def test_two_vertex_example(self):
        m = walk_matrix(two_vertex_edge(), "V", "V", 2, weak=True)
        assert m.entries == ((-1, -1), (-1, -1))

    @given(instances())
    @with_edge_cases()
    def test_one_step_weak_matrix_is_negative_laplacian(self, g):
        # Promised for simple instances; under the ordered-pair adjacency it
        # extends to repeated incidences, so assert it across the board.
        assert walk_matrix(g, "V", "V", 2, weak=True) == -laplacian(g)

    @given(instances())
    @with_edge_cases()
    def test_degree_entries_from_weak_minus_strict_totals(self, g):
        d = degree_matrix(g)
        for i, vi in enumerate(g.vertices):
            for j, vj in enumerate(g.vertices):
                weak = walk_counts(g, vi, vj, 2, weak=True).total
                strict = walk_counts(g, vi, vj, 2).total
                assert weak - strict == d.entries[i][j]

    @given(instances())
    @with_edge_cases()
    def test_laplacian_entries_from_weak_and_positive_counts(self, g):
        lap = laplacian(g)
        for i, vi in enumerate(g.vertices):
            for j, vj in enumerate(g.vertices):
                weak = walk_counts(g, vi, vj, 2, weak=True).total
                plus = walk_counts(g, vi, vj, 2).positive
                assert lap.entries[i][j] == weak - 2 * plus


class TestBacksteps:
    def test_examples(self):
        assert backstep_count(two_vertex_edge(), "v1") == 1
        assert backstep_count(double_incidence(), "v1") == 2
        isolated = OrientedHypergraph(("v1",), (), ())
        assert backstep_count(isolated, "v1") == 0

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            backstep_count(two_vertex_edge(), "e1")

    @given(instances())
    @with_edge_cases()
    def test_equals_degree(self, g):
        assert all(backstep_count(g, v) == g.degree(v) for v in g.vertices)

    @given(instances())
    @with_edge_cases()
    def test_every_backstep_is_negative(self, g):
        for v in g.vertices:
            for w in enumerate_walks(g, v, v, 2, weak=True):
                if w.is_backstep:
                    assert walk_sign(g, w) == -1


class TestDualityRelationships:
    @given(instances(max_vertices=4, max_edges=4), st.integers(0, 2))
    @with_edge_cases(1)
    @settings(max_examples=25)
    def test_same_kind_anchor_duality(self, g, k):
        gd = incidence_dual(g)
        assert walk_matrix(g, "V", "V", 2 * k) == walk_matrix(gd, "E", "E", 2 * k)
        assert walk_matrix(g, "E", "E", 2 * k) == walk_matrix(gd, "V", "V", 2 * k)

    @given(instances(max_vertices=4, max_edges=4), st.sampled_from([1, 3]))
    @with_edge_cases(3)
    @settings(max_examples=25)
    def test_cross_walks_match_the_dual(self, g, n):
        gd = incidence_dual(g)
        assert walk_matrix(g, "E", "V", n) == walk_matrix(gd, "V", "E", n)

    @given(instances())
    @with_edge_cases()
    def test_half_step_transpose(self, g):
        assert walk_matrix(g, "V", "E", 1).transpose() == walk_matrix(g, "E", "V", 1)

    @pytest.mark.parametrize("simple", [True, False])
    @given(data=st.data())
    def test_three_incidence_cross_walk_gap_in_closed_form(self, simple, data):
        # The direction sensitivity pinned below, as a matrix: entry (e, v)
        # of W(V,E,3)^T - W(E,V,3) is H(v, e) * (deg v - |e|).
        g = data.draw(instances(max_vertices=4, max_edges=4, simple=simple))
        ht = incidence_matrix(g).transpose()
        gap = ht @ degree_matrix(g) - degree_matrix(incidence_dual(g)) @ ht
        for build in (walk_matrix, oracle_walk_matrix):
            assert build(g, "V", "E", 3).transpose() - build(g, "E", "V", 3) == gap

    def test_three_incidence_cross_walks_are_direction_sensitive(self):
        # Leaving a vertex along the arrival incidence is allowed, but the
        # mirrored move at an edge is not, so vertex-to-edge counts can
        # differ from edge-to-vertex counts once three incidences are in
        # play.  This pins the observable behaviour of the positional pair
        # constraint.
        g = two_vertex_edge()
        assert walk_counts(g, "v1", "e1", 3).signed_net == -1
        assert walk_counts(g, "e1", "v1", 3).signed_net == 0
        assert walk_matrix(g, "V", "E", 3).transpose() != walk_matrix(g, "E", "V", 3)


def test_empty_hypergraph_walks():
    g = OrientedHypergraph((), (), ())
    assert walk_matrix(g, "V", "V", 0).shape == (0, 0)
    assert walk_matrix(g, "V", "E", 1).shape == (0, 0)


def _walks_by_brute_force(g, n, weak):
    """Every walk with n incidences, keyed by (start, end) and in canonical
    order: each incidence sequence is read from either kind of start and
    kept when walk_sign accepts it."""
    found = {}
    if n == 0:
        for a in (*g.vertices, *g.edges):
            found[(a, a)] = [Walk((a,), (), weak)]
        return found
    for incs in itertools.product(g.incidences, repeat=n):
        for is_vertex in (True, False):
            anchors = [incs[0].vertex if is_vertex else incs[0].edge]
            for inc in incs:
                anchors.append(inc.edge if is_vertex else inc.vertex)
                is_vertex = not is_vertex
            walk = Walk(tuple(anchors), incs, weak)
            try:
                walk_sign(g, walk)
            except ValueError:
                continue
            found.setdefault((anchors[0], anchors[-1]), []).append(walk)
    for walks in found.values():
        walks.sort(key=lambda w: [g.incidence_sort_key(inc) for inc in w.incidences])
    return found


# Two to seven incidences each: up to 7**5 sequences per search length.
TINY = [
    *(random_instance(seed, 3, 3, 3, simple=True) for seed in range(3)),
    *(random_instance(seed, 2, 3, 3, simple=False, non_simple_rate=0.5) for seed in range(3)),
    double_incidence(),
]


class TestSearch:
    @pytest.mark.parametrize("weak", [False, True])
    @pytest.mark.parametrize("g", TINY)
    def test_enumerates_every_walk_that_walk_sign_accepts(self, g, weak):
        anchors = (*g.vertices, *g.edges)
        for n in range(6):
            expected = _walks_by_brute_force(g, n, weak)
            for start, end in itertools.product(anchors, repeat=2):
                if ((start in g.vertices) != (end in g.vertices)) != n % 2:
                    continue
                assert enumerate_walks(g, start, end, n, weak=weak) == expected.get(
                    (start, end), []
                ), (start, end, n)

    @pytest.mark.parametrize("weak", [False, True])
    @pytest.mark.parametrize("simple", [True, False])
    @given(data=st.data())
    @settings(max_examples=15)
    def test_each_walk_carries_the_sign_walk_sign_gives(self, simple, weak, data):
        g = data.draw(instances(max_vertices=4, max_edges=3, simple=simple))
        for rows, cols, odd in FAMILY_PAIRS:
            starts, ends = (g.vertices if family == "V" else g.edges for family in (rows, cols))
            for start, end, n in itertools.product(starts, ends, range(odd, 7, 2)):
                for sign, walk in ohmatrix.walks._signed_walks(g, start, end, n, weak, 10**6):
                    assert sign == walk_sign(g, walk), (start, end, n, walk)

    def test_oracle_calls_no_closed_form_construction(self, monkeypatch):
        g = path3()
        calls = [
            (rows, cols, n, weak) for rows, cols, odd in FAMILY_PAIRS
            for n in range(odd, 6, 2) for weak in (False, True)
        ]
        counts = {call: oracle_walk_counts(g, *call[:3], weak=call[3]) for call in calls}
        walks = {n: enumerate_walks(g, "v2", "v2", n) for n in (0, 2, 4)}

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle used a closed-form construction")

        for module in (ohmatrix.matrices, ohmatrix.walks):
            for name in ("_pair_steps", "_one_steps"):
                monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(LabeledIntegerMatrix, "__matmul__", refuse)
        for call, expected in counts.items():
            assert oracle_walk_counts(g, *call[:3], weak=call[3]) == expected
        for n, expected in walks.items():
            assert enumerate_walks(g, "v2", "v2", n) == expected

    @pytest.mark.parametrize("weak", [False, True])
    @pytest.mark.parametrize("simple", [True, False])
    @given(data=st.data())
    def test_walk_total_is_the_number_of_walks_the_search_generates(self, simple, weak, data):
        g = data.draw(instances(max_vertices=5, max_edges=4, simple=simple))
        for n, start_is_vertex in itertools.product(range(9), (True, False)):
            plan = ohmatrix.walks._plan(g, start_is_vertex, n, weak)
            for start in range(len(g.vertices if start_is_vertex else g.edges)):
                generated = []
                ohmatrix.walks._search(plan, start, n, 10**9,
                                       lambda _, idx, *__: generated.append(len(plan[1][idx])),
                                       None)
                assert plan[2][start] == sum(generated)

    def test_a_search_above_the_ceiling_is_refused_before_its_first_walk(self):
        plan = ohmatrix.walks._plan(two_vertex_edge(), True, 500, True)
        visits = []
        with pytest.raises(EnumerationLimitError,
                           match="^walk enumeration exceeded the ceiling of 1000 walks$"):
            ohmatrix.walks._search(plan, 0, 500, 1000, lambda *args: visits.append(args), None)
        assert visits == []

    @pytest.mark.parametrize("weak", [False, True])
    @pytest.mark.parametrize("build", [uniform3_edge, double_incidence, path3])
    def test_refuses_exactly_the_searches_above_the_walk_ceiling(self, build, weak):
        g = build()
        for n in range(5):
            ends = g.vertices if n % 2 == 0 else g.edges
            for start in g.vertices:
                total = sum(len(enumerate_walks(g, start, end, n, weak)) for end in ends)
                if total < 2:
                    continue
                enumerate_walks(g, start, ends[0], n, weak, max_walks=total)
                with pytest.raises(EnumerationLimitError, match=f"ceiling of {total - 1} walks"):
                    enumerate_walks(g, start, ends[0], n, weak, max_walks=total - 1)
            cols = "V" if n % 2 == 0 else "E"
            positive, negative = oracle_walk_counts(g, "V", cols, n, weak)
            most = max(map(sum, (positive + negative).entries))
            oracle_walk_counts(g, "V", cols, n, weak, max_walks=most)
            if most > 1:
                with pytest.raises(EnumerationLimitError, match="exceeded"):
                    oracle_walk_counts(g, "V", cols, n, weak, max_walks=most - 1)

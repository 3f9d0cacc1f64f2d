import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ohmatrix.matrices
import ohmatrix.verify
import ohmatrix.walks
from ohmatrix import (
    Incidence,
    LabeledIntegerMatrix,
    OrientedHypergraph,
    SwitchingFunction,
    VerifyOptions,
    adjacency_matrix,
    format_report,
    incidence_matrix,
    laplacian,
    run_verify_suite,
    serialize_instance,
    switching_matrix,
)
from ohmatrix.matrices import _signed

from helpers import double_incidence, instances, path3, two_vertex_edge, uniform3_edge

FAST = VerifyOptions(trials=8, switching_trials=5)


@pytest.mark.parametrize(
    "build", [two_vertex_edge, uniform3_edge, double_incidence, path3]
)
def test_golden_instances_pass_every_check(build):
    report = run_verify_suite(build(), seed=3, options=FAST)
    assert report.passed(), format_report(report)


def test_path_instance_includes_line_graph_checks():
    report = run_verify_suite(path3(), seed=3, options=FAST)
    names = {r.check_name for r in report.results}
    assert "line_graph_dual_adjacency" in names
    assert "line_graph_incidence_identity" in names


def test_non_simple_oracle_check_is_reported_separately():
    report = run_verify_suite(double_incidence(), seed=3, options=FAST)
    names = {r.check_name for r in report.results}
    assert "walk_oracle_power_nonsimple" in names
    assert "walk_oracle_power" not in names


def test_family_mode_passes_and_is_deterministic():
    first = run_verify_suite(seed=17, options=FAST)
    second = run_verify_suite(seed=17, options=FAST)
    assert first == second
    assert first.passed(), format_report(first)


def test_family_runs_no_per_pair_or_per_vertex_enumeration(monkeypatch):
    # Every walk count comes from the per-source oracle searches; the
    # backstep identity is the weak-minus-strict degree check.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_walks was called")

    expected = run_verify_suite(seed=17, options=FAST)
    monkeypatch.setattr(ohmatrix.walks, "enumerate_walks", refuse)
    assert run_verify_suite(seed=17, options=FAST) == expected
    assert expected.passed() and len(expected.results) == 95


def test_results_are_canonically_ordered():
    report = run_verify_suite(seed=17, options=FAST)
    keys = [(r.check_name, -1 if r.trial is None else r.trial) for r in report.results]
    assert keys == sorted(keys)


def test_rejects_invalid_instance():
    bad = OrientedHypergraph(("v1", "v1"), (), ())
    with pytest.raises(ValueError, match="duplicate vertex"):
        run_verify_suite(bad, seed=0, options=FAST)


def test_self_test_detects_corruption():
    report = run_verify_suite(two_vertex_edge(), seed=0, options=VerifyOptions(self_test=True))
    self_tests = [r for r in report.results if r.check_name == "harness_self_test"]
    assert len(self_tests) == 1 and self_tests[0].status == "pass"
    assert report.passed()


def test_resource_ceiling_flags_incomplete_report():
    tiny = VerifyOptions(max_walks=2)
    report = run_verify_suite(uniform3_edge(), seed=0, options=tiny)
    assert not report.complete
    assert not report.passed()
    assert report.notes
    assert "INCOMPLETE" in format_report(report)


def test_format_report_lines():
    report = run_verify_suite(two_vertex_edge(), seed=0, options=FAST)
    text = format_report(report)
    assert "PASS laplacian_decomposition" in text
    assert text.rstrip().splitlines()[-1].endswith("0 failed")


def test_failing_check_carries_counterexample_and_seed(monkeypatch):
    real_laplacian = ohmatrix.verify.laplacian

    def off_by_one(g):
        lap = real_laplacian(g)
        rows = [list(row) for row in lap.entries]
        rows[0][0] += 1
        return LabeledIntegerMatrix(lap.row_labels, lap.col_labels, rows)

    monkeypatch.setattr(ohmatrix.verify, "laplacian", off_by_one)
    g = two_vertex_edge()
    report = run_verify_suite(g, seed=11, options=FAST)
    # Every check that reads L must notice; switching conjugation keeps (v1, v1).
    assert sorted(r.check_name for r in report.failures) == [
        "dual_laplacian_product",
        "half_walk_laplacian",
        "laplacian_decomposition",
        "laplacian_incidence_product",
        "laplacian_walk_entries",
        "weak_walk_laplacian",
    ]
    [result] =[r for r in report.results if r.check_name == "laplacian_decomposition"]
    assert (result.status, result.seed) == ("fail", 11)
    assert result.counterexample == (
        f"L differs from D - A at (v1, v1): 2 vs 1\ninstance:\n{serialize_instance(g)}"
    )
    text = format_report(report)
    assert "FAIL laplacian_decomposition [|V|=2 |E|=1 |I|=2 simple=True] seed=11" in text
    assert "  instance:\n" in text


def test_relabeled_matrix_reports_the_differing_labels(monkeypatch):
    real_laplacian = ohmatrix.verify.laplacian

    def relabeled(g):
        lap = real_laplacian(g)
        rows = tuple(f"{label}'" for label in lap.row_labels)
        return LabeledIntegerMatrix(rows, lap.col_labels, lap.entries)

    monkeypatch.setattr(ohmatrix.verify, "laplacian", relabeled)
    # Only the label mismatch is under test, so no switching.
    options = dataclasses.replace(FAST, switching_trials=0)
    report = run_verify_suite(two_vertex_edge(), seed=0, options=options)
    [result] = [r for r in report.failures if r.check_name == "laplacian_decomposition"]
    assert result.counterexample.startswith(
        "L and D - A have different labels: "
        "(\"v1'\", \"v2'\")x('v1', 'v2') vs ('v1', 'v2')x('v1', 'v2')\n"
    )


def test_corrupted_adjacency_fails_the_laplacian_decomposition(monkeypatch):
    # L is built without A, so D - A from a wrong A must differ from it.
    real = ohmatrix.matrices.adjacency_matrix

    def bumped(g):
        a = real(g)
        rows = [list(row) for row in a.entries]
        rows[0][1] += 1
        return LabeledIntegerMatrix(a.row_labels, a.col_labels, rows)

    for module in (ohmatrix.matrices, ohmatrix.verify):
        monkeypatch.setattr(module, "adjacency_matrix", bumped)
    report = run_verify_suite(path3(), seed=0, options=FAST)
    [result] = [r for r in report.failures if r.check_name == "laplacian_decomposition"]
    assert result.counterexample.startswith("L differs from D - A at (v1, v2): -1 vs -2\n")


def test_family_check_inventory():
    report = run_verify_suite(seed=17, options=FAST)
    assert len(report.results) == 95
    assert Counter(r.check_name for r in report.results) == {
        "degree_backsteps": 8,
        "dual_laplacian_product": 8,
        "duality_involution": 8,
        "half_walk_incidence": 8,
        "half_walk_laplacian": 8,
        "incidence_dual_transpose": 8,
        "laplacian_decomposition": 8,
        "laplacian_incidence_product": 8,
        "laplacian_walk_entries": 8,
        "switching_conjugation": 8,
        "uniform_dual_identity": 1,
        "walk_oracle_power": 6,
        "walk_oracle_power_nonsimple": 2,
        "weak_walk_laplacian": 6,
    }


@pytest.mark.parametrize(
    "name",
    ["trials", "max_vertices", "max_edges", "max_edge_size", "max_walk_incidences",
     "switching_trials", "max_walks"],
)
def test_negative_counts_are_rejected(name):
    with pytest.raises(ValueError, match=name):
        VerifyOptions(**{name: -1})


@pytest.mark.parametrize(
    "name",
    ["trials", "max_vertices", "max_edges", "max_edge_size", "max_walk_incidences",
     "switching_trials", "max_walks"],
)
@pytest.mark.parametrize("value, shown", [(True, "True"), (2.5, "2.5")])
def test_counts_that_are_not_integers_are_rejected(name, value, shown):
    # A bool would quietly count as 0 or 1, and a float fails later in range().
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {shown}$"):
        VerifyOptions(**{name: value})


@pytest.mark.parametrize("name", ["max_vertices", "max_edge_size", "max_walks"])
def test_size_caps_below_one_are_rejected(name):
    with pytest.raises(ValueError, match=f"{name} must be at least 1, got 0"):
        VerifyOptions(**{name: 0})


def test_walk_incidences_above_the_cap_are_rejected():
    with pytest.raises(ValueError, match="max_walk_incidences must be at most 500, got 501"):
        VerifyOptions(max_walk_incidences=501)
    VerifyOptions(max_walk_incidences=500)


@pytest.mark.parametrize(
    "name, calls, check, spared",
    [
        ("adjacency_matrix", "every", "walk_oracle_power", None),
        ("walk_matrix", "every", "walk_oracle_power", None),
        ("walk_matrix", "weak", "weak_walk_laplacian", "walk_oracle_power"),
        ("walk_matrix", "strict", "walk_oracle_power", "weak_walk_laplacian"),
    ],
)
def test_walk_oracle_catches_an_off_by_one(monkeypatch, name, calls, check, spared):
    # The oracle is an exhaustive search that calls neither the builders
    # nor the closed-form walk matrices, so corrupting either must show;
    # corrupting one walk rule only must not fail the other rule's check.
    real = getattr(ohmatrix.verify, name)

    def off_by_one(*args, **kwargs):
        m = real(*args, **kwargs)
        if calls != "every" and kwargs.get("weak", False) != (calls == "weak"):
            return m
        rows = [list(row) for row in m.entries]
        rows[0][0] += 1
        return LabeledIntegerMatrix(m.row_labels, m.col_labels, rows)

    monkeypatch.setattr(ohmatrix.verify, name, off_by_one)
    report = run_verify_suite(path3(), seed=0, options=FAST)
    failed = {r.check_name for r in report.failures}
    assert check in failed
    if spared is not None:
        assert spared in {r.check_name for r in report.results}
        assert spared not in failed


def test_zero_trials_is_an_empty_pass():
    report = run_verify_suite(seed=0, options=VerifyOptions(trials=0))
    assert report.results == ()
    assert report.passed()


def test_options_hold_one_field_per_verify_flag():
    assert [f.name for f in dataclasses.fields(VerifyOptions)] == [
        "trials", "max_vertices", "max_edges", "max_edge_size", "max_walk_incidences",
        "switching_trials", "max_walks", "self_test",
    ]


def test_deep_oracle_runs_are_not_cut_by_a_second_ceiling():
    # The oracle's depth is bounded by max_walk_incidences alone, and its
    # work by max_walks: 14 incidences still run every check.
    report = run_verify_suite(seed=0, options=VerifyOptions(trials=3, max_walk_incidences=14))
    assert report.complete, report.notes
    assert report.passed(), format_report(report)
    assert len(report.results) == 37


def test_no_switching_trials_reports_no_switching_check():
    report = run_verify_suite(seed=2, options=VerifyOptions(trials=2, switching_trials=0))
    names = {r.check_name for r in report.results}
    assert "switching_conjugation" not in names
    assert "laplacian_decomposition" in names
    assert report.passed()


@pytest.mark.parametrize("weak", [False, True])
def test_corrupted_walk_counts_fail_the_count_checks(monkeypatch, weak):
    # Both count checks read their walk totals from one search per source;
    # one extra positive walk at (v2, v3) must show in each, naming the cell.
    real = ohmatrix.verify.oracle_walk_counts

    def one_extra(*args, **kwargs):
        positive, negative = real(*args, **kwargs)
        if kwargs.get("weak", False) == weak:
            entries = [list(row) for row in positive.entries]
            entries[1][2] += 1
            positive = LabeledIntegerMatrix(positive.row_labels, positive.col_labels, entries)
        return positive, negative

    monkeypatch.setattr(ohmatrix.verify, "oracle_walk_counts", one_extra)
    report = run_verify_suite(path3(), seed=0, options=FAST)
    failures = {r.check_name: r.counterexample for r in report.failures}
    for name in ("degree_backsteps", "laplacian_walk_entries"):
        assert "(v2, v3)" in failures[name], failures


def _count_switchings(monkeypatch):
    calls = []
    real = ohmatrix.verify.switch

    def counted(g, theta):
        calls.append(tuple(theta.assignment.values()))
        return real(g, theta)

    monkeypatch.setattr(ohmatrix.verify, "switch", counted)
    return calls


def test_each_distinct_switching_is_checked_once(monkeypatch):
    calls = _count_switchings(monkeypatch)
    g = path3()
    report = run_verify_suite(g, seed=17, options=VerifyOptions(switching_trials=20))
    assert report.passed(), format_report(report)
    # A single instance takes one theta seed from the master seed, and each
    # switching trial draws one value per vertex from it.
    rng = random.Random(random.Random(17).getrandbits(64))
    draws = [tuple(rng.choice((1, -1)) for _ in g.vertices) for _ in range(20)]
    assert len(set(draws)) < len(draws)
    assert calls == list(dict.fromkeys(draws))


def test_one_vertex_has_at_most_two_switchings(monkeypatch):
    calls = _count_switchings(monkeypatch)
    g = OrientedHypergraph(("v1",), ("e1",), (Incidence("v1", "e1", 1, -1),))
    report = run_verify_suite(g, seed=0, options=VerifyOptions(switching_trials=20))
    assert report.passed(), format_report(report)
    assert 1 <= len(calls) <= 2


def test_corrupted_adjacency_fails_switching_at_the_first_differing_theta(monkeypatch):
    # With seed 17 the draws repeat two switchings before the first one that
    # separates v1 from v2; skipping the repeats reports that same one.
    real = ohmatrix.matrices.adjacency_matrix

    def bumped(g):
        a = real(g)
        rows = [list(row) for row in a.entries]
        rows[0][1] += 1
        return LabeledIntegerMatrix(a.row_labels, a.col_labels, rows)

    for module in (ohmatrix.matrices, ohmatrix.verify):
        monkeypatch.setattr(module, "adjacency_matrix", bumped)
    g = path3()
    report = run_verify_suite(g, seed=17, options=VerifyOptions(switching_trials=20))
    [result] = [r for r in report.failures if r.check_name == "switching_conjugation"]
    assert result.counterexample == (
        "A after switching differs from conjugated A at (v1, v2): 0 vs -2 "
        "[theta={'v1': -1, 'v2': 1, 'v3': 1}]\n"
        f"instance:\n{serialize_instance(g)}"
    )


@given(st.data(), instances())
def test_entrywise_conjugates_equal_the_matrix_products(data, g):
    values = tuple(data.draw(st.lists(st.sampled_from((1, -1)),
                                      min_size=len(g.vertices), max_size=len(g.vertices))))
    d = switching_matrix(SwitchingFunction(dict(zip(g.vertices, values))), g.vertices)
    for m in (adjacency_matrix(g), laplacian(g)):
        assert _signed(m, values, values) == d.transpose() @ m @ d
    h = incidence_matrix(g)
    assert _signed(h, values) == d @ h


def test_unswitched_graph_fails_switching_conjugation(monkeypatch):
    # The left side must come from the switched graph: the right side alone
    # cannot make the check pass.
    monkeypatch.setattr(ohmatrix.verify, "switch", lambda g, theta: g)
    report = run_verify_suite(seed=17, options=FAST)
    failed = {r.check_name for r in report.failures}
    assert failed == {"switching_conjugation"}, format_report(report)


def test_switching_check_forms_no_matrix_products(monkeypatch):
    products = []
    real = LabeledIntegerMatrix.__matmul__

    def counted(self, other):
        products.append(1)
        return real(self, other)

    monkeypatch.setattr(LabeledIntegerMatrix, "__matmul__", counted)
    counts = []
    for switching_trials in (20, 0):
        products.clear()
        run_verify_suite(seed=5, options=VerifyOptions(trials=10, switching_trials=switching_trials))
        counts.append(len(products))
    assert counts[0] == counts[1] > 0


def test_walk_oracle_check_forms_each_power_once(monkeypatch):
    # walk_matrix(g, "V", "V", 2k) is the one A^k chain; verify forms no
    # powers of A of its own.  On path3 the products are H^T H, H H^T, the
    # half-step product, and 1 + 2 + 3 in the walk matrices at n = 4, 6, 8.
    products = []
    real = LabeledIntegerMatrix.__matmul__

    def counted(self, other):
        products.append(1)
        return real(self, other)

    monkeypatch.setattr(LabeledIntegerMatrix, "__matmul__", counted)
    report = run_verify_suite(path3(), seed=0, options=VerifyOptions(switching_trials=0))
    assert report.passed()
    assert len(products) == 9

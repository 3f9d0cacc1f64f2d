import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ohmatrix.matrices
import ohmatrix.verify
import ohmatrix.walks
from ohmatrix import (
    CheckResult,
    Incidence,
    LabeledIntegerMatrix,
    OrientedHypergraph,
    SwitchingFunction,
    VerificationReport,
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


def test_fourteen_walk_incidences_pass_on_a_seeded_family():
    report = run_verify_suite(seed=0, options=VerifyOptions(trials=3, max_walk_incidences=14))
    assert (len(report.results), len(report.failures), report.complete) == (37, 0, True)


def _walk_table_fault(keep, flip):
    real = OrientedHypergraph._walk_tables.func

    def faulty(g):
        return tuple(
            tuple(
                tuple((other, -sign if flip(inc) else sign, inc)
                      for other, sign, inc in row if keep(inc))
                for row in side
            )
            for side in real(g)
        )

    return property(faulty)


@pytest.mark.parametrize("keep, flip, caught", [
    (lambda inc: inc.mult_index == 1, lambda inc: False,
     {"degree_backsteps", "half_walk_incidence", "half_walk_laplacian",
      "laplacian_walk_entries", "walk_oracle_power_nonsimple"}),
    (lambda inc: True, lambda inc: inc.mult_index > 1,
     {"half_walk_incidence", "half_walk_laplacian", "laplacian_walk_entries",
      "walk_oracle_power_nonsimple"}),
    (lambda inc: True, lambda inc: True, {"half_walk_incidence"}),
], ids=["drop_repeated_incidences", "negate_repeated_signs", "negate_every_sign"])
def test_a_fault_in_the_shared_walk_index_fails_verify(monkeypatch, keep, flip, caught):
    # The builders and degree read g._walk_tables; the oracle builds its own
    # index from g.incidences, so it sees the fault.
    monkeypatch.setattr(OrientedHypergraph, "_walk_tables", _walk_table_fault(keep, flip))
    report = run_verify_suite(seed=0)
    assert {r.check_name for r in report.failures} == caught


def test_results_are_canonically_ordered():
    report = run_verify_suite(seed=17, options=FAST)
    keys = [(r.check_name, -1 if r.trial is None else r.trial) for r in report.results]
    assert keys == sorted(keys)


def test_rejects_invalid_instance():
    bad = OrientedHypergraph(("v1", "v1"), (), ())
    with pytest.raises(ValueError, match="duplicate vertex"):
        run_verify_suite(bad, seed=0, options=FAST)


def test_resource_ceiling_flags_incomplete_report():
    tiny = VerifyOptions(max_walks=2)
    report = run_verify_suite(uniform3_edge(), seed=0, options=tiny)
    assert not report.complete
    assert not report.passed()
    assert report.notes
    assert "INCOMPLETE" in format_report(report)


def test_status_and_completeness_are_derived():
    # A check fails exactly when it has a counterexample, and a report is
    # complete exactly when no note says a trial was cut short.
    passing, failing = CheckResult("c", "s"), CheckResult("c", "s", "mismatch")
    assert (passing.status, failing.status) == ("pass", "fail")
    report = VerificationReport((passing,), ("trial 0: cut short",))
    assert not report.complete and not report.passed()
    assert VerificationReport((passing,)).passed()
    assert not VerificationReport((failing,)).passed()


_IDENTITY = LabeledIntegerMatrix.identity(("a", "b", "c"))


def _filled(value):
    return LabeledIntegerMatrix(_IDENTITY.row_labels, _IDENTITY.col_labels, [[value] * 3] * 3)


@pytest.mark.parametrize("right, message", [
    (_IDENTITY, None),
    (_IDENTITY + _IDENTITY, "I differs from M at (a, a): 1 vs 2; (b, b): 1 vs 2; (c, c): 1 vs 2"),
    (LabeledIntegerMatrix.identity(("a", "b", "d")),
     "I and M have different labels: "
     "('a', 'b', 'c')x('a', 'b', 'c') vs ('a', 'b', 'd')x('a', 'b', 'd')"),
    (_filled(1),
     "I differs from M at (a, b): 0 vs 1; (a, c): 0 vs 1; (b, a): 0 vs 1; "
     "(b, c): 0 vs 1; (c, a): 0 vs 1; (c, b): 0 vs 1"),
    (_filled(2),
     "I differs from M at (a, a): 1 vs 2; (a, b): 0 vs 2; (a, c): 0 vs 2; "
     "(b, a): 0 vs 2; (b, b): 1 vs 2; (b, c): 0 vs 2; ..."),
], ids=["equal", "diagonal", "labels", "six cells", "nine cells"])
def test_matrix_diff_names_the_differing_cells(right, message):
    # Cells in row-major order, at most six of them.
    assert ohmatrix.verify._matrix_diff("I", _IDENTITY, "M", right) == message


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
    options = VerifyOptions(trials=FAST.trials, switching_trials=0)
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


# SHA-256 of the report that ``verify --seed S --trials 100`` prints, and
# whether it passed, for S = 0..9.
FAMILY_REPORT_DIGESTS = {
    0: ("9bd04581c8761d709dfccc9c63b4b76ad3a0542502d6754990274da319b1ff1b", True),
    1: ("c4b0d0c666bd4bc68a553b3878386405dcebe196008221fc6a897c502b69f0c8", False),
    2: ("9c0bd7f53baa555524d460d9bd158c41542dfc6d4fd9396d94eeea04394d2415", True),
    3: ("bfb5eaa0232ebcc494d051fc8d0a30fc31a1d8a1d14ab116a878e94a6743606f", False),
    4: ("17810a5089173c11eb0c13f55bed0ace5e8f108cf0accd0e53559b806ceb8e15", True),
    5: ("5e77d237f00c594b1d4d91321493af718441f197e920bd8938a8c1844f88de27", True),
    6: ("46b4ac6bf7d9dabf5390eec0eca484058edb6a80ab13b13ee417334dfa4a469a", True),
    7: ("fc5274744ed8c2fd6b77bb5dd831ac3be4325bf9f46fdf6d19c44e17bbebf35c", True),
    8: ("e4dc728f1425db02807785670a5e1f9ef643e7f12be9129d40f04f56665928f2", True),
    9: ("be2295b7df767bc263ecf4ca15d4714e00c6d69257941ab0a1dc5de9451d261a", True),
}


def test_family_reports_of_seeds_0_to_9_are_pinned():
    changed = []
    for seed, pinned in FAMILY_REPORT_DIGESTS.items():
        report = run_verify_suite(seed=seed)
        digest = hashlib.sha256(format_report(report).encode("utf-8")).hexdigest()
        if (digest, report.passed()) != pinned:
            changed.append(seed)
    assert not changed, (
        f"verify --seed S --trials 100 prints a different report for S in {changed}; a "
        "deliberate report change updates these digests in a commit of its own and records "
        "that in CHANGES.md"
    )


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
    assert list(VerifyOptions.__match_args__) == [
        "trials", "max_vertices", "max_edges", "max_edge_size", "max_walk_incidences",
        "switching_trials", "max_walks",
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


def test_corrupted_laplacian_fails_switching_at_the_first_differing_theta(monkeypatch):
    # A and H stay intact, so the first switching that separates v1 from v2
    # fails on L, after A and H agree.
    real = ohmatrix.matrices.laplacian

    def bumped(g):
        lap = real(g)
        rows = [list(row) for row in lap.entries]
        rows[0][1] += 1
        return LabeledIntegerMatrix(lap.row_labels, lap.col_labels, rows)

    for module in (ohmatrix.matrices, ohmatrix.verify):
        monkeypatch.setattr(module, "laplacian", bumped)
    g = path3()
    report = run_verify_suite(g, seed=17, options=VerifyOptions(switching_trials=20))
    [result] = [r for r in report.failures if r.check_name == "switching_conjugation"]
    assert result.counterexample == (
        "L after switching differs from conjugated L at (v1, v2): 2 vs 0 "
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
    assert _signed(h, values, (1,) * len(g.edges)) == d @ h


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
    # walk_matrix(g, "V", "V", 2k) pushes rows through A without a product,
    # and verify forms no powers of A of its own.  On path3 the products are
    # H^T H, H H^T and the half-step product.
    products = []
    real = LabeledIntegerMatrix.__matmul__

    def counted(self, other):
        products.append(1)
        return real(self, other)

    monkeypatch.setattr(LabeledIntegerMatrix, "__matmul__", counted)
    report = run_verify_suite(path3(), seed=0, options=VerifyOptions(switching_trials=0))
    assert report.passed()
    assert len(products) == 3

"""Identity verification suite over single instances or seeded families.

Every matrix identity the library promises is checked against independent
reconstructions, most of them through the brute-force walk search
(:func:`oracle_walk_matrix` and :func:`oracle_walk_counts`, one search per
source anchor).  ``VerifyOptions.max_walks`` bounds the walks each of those
searches may generate; a trial whose search would exceed it is reported
INCOMPLETE.
A failing check always carries a reproducible counterexample: the canonical
serialization of the instance plus the first differing entries, and the
seeds that regenerate it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (
    Incidence,
    OrientedHypergraph,
    SwitchingFunction,
    incidence_dual,
    is_simple,
    switch,
    validate,
)
from .matrices import (
    LabeledIntegerMatrix,
    adjacency_matrix,
    degree_matrix,
    incidence_matrix,
    laplacian,
    switching_matrix,
)
from .signed import from_hypergraph, line_graph, to_hypergraph, underlying_is_simple
from .walks import (
    INCIDENCE_CAP,
    EnumerationLimits,
    EnumerationLimitError,
    oracle_walk_counts,
    oracle_walk_matrix,
    walk_matrix,
    weak_walk_matrix,
)
from .io import random_instance, serialize_instance


# Share of family trials drawn from the generator with repeated incidences.
NON_SIMPLE_RATE = 0.3


@dataclass(frozen=True)
class VerifyOptions:
    """Bounds and knobs for the verification suite, one per ``verify`` flag.

    Family mode generates ``trials`` random instances within the size caps.
    ``max_walk_incidences`` bounds the walk oracle (adjacency powers are
    checked up to half that many steps) and may not exceed
    ``INCIDENCE_CAP``.  ``max_walks`` bounds the walks generated by each
    oracle search, one per source anchor; a search that would generate
    more cuts its trial short, and the report is INCOMPLETE.  Negative
    counts raise ValueError, since they would pass checks that never ran,
    and so do size caps and walk ceilings below 1, which no random
    instance or search can meet.
    """

    trials: int = 100
    max_vertices: int = 8
    max_edges: int = 8
    max_edge_size: int = 4
    max_walk_incidences: int = 8
    switching_trials: int = 20
    max_walks: int = 1_000_000
    self_test: bool = False

    def __post_init__(self) -> None:
        for name, least in (("trials", 0), ("max_vertices", 1), ("max_edges", 0),
                            ("max_edge_size", 1), ("max_walk_incidences", 0),
                            ("switching_trials", 0), ("max_walks", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.max_walk_incidences > INCIDENCE_CAP:
            raise ValueError(
                f"max_walk_incidences must be at most {INCIDENCE_CAP}, "
                f"got {self.max_walk_incidences}"
            )


@dataclass(frozen=True)
class CheckResult:
    check_name: str
    instance_summary: str
    status: str  # "pass" or "fail"
    counterexample: str | None = None
    seed: int | None = None
    trial: int | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Canonically ordered check results plus a completeness flag.

    ``complete`` is False when a resource ceiling cut some checks short;
    ``notes`` then says where.
    """

    results: tuple[CheckResult, ...]
    complete: bool = True
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))
        object.__setattr__(self, "notes", tuple(self.notes))

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.status == "fail")

    def passed(self) -> bool:
        return not self.failures and self.complete


def _summary(g: OrientedHypergraph, trial: int | None = None) -> str:
    base = (
        f"|V|={len(g.vertices)} |E|={len(g.edges)} "
        f"|I|={len(g.incidences)} simple={is_simple(g)}"
    )
    return base if trial is None else f"trial={trial} {base}"


def _matrix_diff(
    left_name: str,
    left: LabeledIntegerMatrix,
    right_name: str,
    right: LabeledIntegerMatrix,
) -> str | None:
    if left == right:
        return None
    if left.row_labels != right.row_labels or left.col_labels != right.col_labels:
        return (
            f"{left_name} and {right_name} have different labels: "
            f"{left.row_labels}x{left.col_labels} vs {right.row_labels}x{right.col_labels}"
        )
    cells = [
        f"({r}, {c}): {left.entries[i][j]} vs {right.entries[i][j]}"
        for i, r in enumerate(left.row_labels)
        for j, c in enumerate(left.col_labels)
        if left.entries[i][j] != right.entries[i][j]
    ]
    shown = "; ".join(cells[:6]) + ("; ..." if len(cells) > 6 else "")
    return f"{left_name} differs from {right_name} at {shown}"


def _identity_diffs(g: OrientedHypergraph, options: VerifyOptions, theta_seed: int):
    """Yield ``(check_name, None or mismatch text)`` for each applicable check.

    This is the one list of per-instance checks, in run order.  A resource
    ceiling raises out of the generator, so a trial cut short reports none
    of its checks.
    """
    simple = is_simple(g)
    limits = EnumerationLimits(INCIDENCE_CAP, options.max_walks)

    h = incidence_matrix(g)
    ht = h.transpose()
    hth = ht @ h
    a = adjacency_matrix(g)
    d = degree_matrix(g)
    lap = laplacian(g)
    gd = incidence_dual(g)

    yield "duality_involution", None if incidence_dual(gd) == g else (
        "applying the incidence dual twice did not restore the instance"
    )
    yield "incidence_dual_transpose", _matrix_diff(
        "H of the dual", incidence_matrix(gd), "H transposed", ht
    )
    yield "laplacian_decomposition", _matrix_diff("L", lap, "D - A", d - a)
    yield "laplacian_incidence_product", _matrix_diff("L", lap, "H * H^T", h @ ht)
    yield "dual_laplacian_product", _matrix_diff("L of the dual", laplacian(gd), "H^T * H", hth)

    sizes = {g.edge_size(e) for e in g.edges}
    if simple and len(sizes) == 1:
        (k,) = sizes
        # Also reused by the line-graph checks, which need sizes == {2}.
        a_dual = adjacency_matrix(gd)
        ki = LabeledIntegerMatrix.diagonal(g.edges, [k] * len(g.edges))
        yield "uniform_dual_identity", _matrix_diff(
            "H^T * H", hth, f"{k}I - A of the dual", ki - a_dual
        )

    half = oracle_walk_matrix(g, "V", "E", 1, limits=limits)
    yield "half_walk_incidence", _matrix_diff("half-step walk matrix", half, "H", h)
    yield "half_walk_laplacian", _matrix_diff(
        "product of half-step walk matrices",
        half @ oracle_walk_matrix(g, "E", "V", 1, limits=limits),
        "L", lap,
    )

    # One strict and one weak search per source vertex serve every check
    # on one-step walks below.
    plus, minus = oracle_walk_counts(g, "V", "V", 2, limits=limits)
    weak_plus, weak_minus = oracle_walk_counts(g, "V", "V", 2, weak=True, limits=limits)
    weak_total = weak_plus + weak_minus

    oracle_diff = None
    ak = LabeledIntegerMatrix.identity(g.vertices)
    for k in range(options.max_walk_incidences // 2 + 1):
        if k:
            ak = ak @ a
        counts = plus - minus if k == 1 else oracle_walk_matrix(g, "V", "V", 2 * k, limits=limits)
        label = f"signed {k}-step walk counts"
        oracle_diff = _matrix_diff(f"A^{k}", ak, label, counts) or _matrix_diff(
            f"walk matrix at n={2 * k}", walk_matrix(g, "V", "V", 2 * k), label, counts
        )
        if oracle_diff is not None:
            break
    yield "walk_oracle_power" if simple else "walk_oracle_power_nonsimple", oracle_diff

    # Weak one-step walks that are not strict are exactly the backsteps.
    yield "degree_backsteps", _matrix_diff(
        "weak minus strict walk totals", weak_total - plus - minus, "D", d
    )
    yield "laplacian_walk_entries", _matrix_diff(
        "L", lap, "weak total minus twice the positive count", weak_total - plus - plus
    )

    if simple:
        weak_counts = weak_plus - weak_minus
        label = "signed weak one-step walk counts"
        yield "weak_walk_laplacian", _matrix_diff("-L", -lap, label, weak_counts) or _matrix_diff(
            "weak walk matrix at n=2", weak_walk_matrix(g, "V", "V", 2), label, weak_counts
        )

    def switching_diffs():
        theta_rng = random.Random(theta_seed)
        for _ in range(options.switching_trials):
            theta = SwitchingFunction({v: theta_rng.choice((1, -1)) for v in g.vertices})
            dt = switching_matrix(theta, g.vertices)
            gs = switch(g, theta)
            for name, left, right in (
                ("A", adjacency_matrix(gs), dt.transpose() @ a @ dt),
                ("H", incidence_matrix(gs), dt @ h),
                ("L", laplacian(gs), dt.transpose() @ lap @ dt),
            ):
                diff = _matrix_diff(f"{name} after switching", left, f"conjugated {name}", right)
                if diff is not None:
                    yield f"{diff} [theta={theta.assignment}]"

    if options.switching_trials:
        yield "switching_conjugation", next(switching_diffs(), None)

    if simple and sizes == {2} and underlying_is_simple(s := from_hypergraph(g)):
        a_line = adjacency_matrix(to_hypergraph(line_graph(s)))
        yield "line_graph_dual_adjacency", _matrix_diff(
            "A of the line graph", a_line, "A of the dual", a_dual
        )
        two_i = LabeledIntegerMatrix.diagonal(g.edges, [2] * len(g.edges))
        yield "line_graph_incidence_identity", _matrix_diff(
            "H^T * H", hth, "2I - A of the line graph", two_i - a_line
        )


def _instance_checks(
    g: OrientedHypergraph,
    seed: int | None,
    trial: int | None,
    options: VerifyOptions,
    theta_seed: int,
) -> list[CheckResult]:
    summary = _summary(g, trial)
    return [
        CheckResult(name, summary, "pass" if diff is None else "fail",
                    diff and f"{diff}\ninstance:\n{serialize_instance(g)}", seed, trial)
        for name, diff in _identity_diffs(g, options, theta_seed)
    ]


def _harness_self_test() -> CheckResult:
    g = OrientedHypergraph(
        ("v1", "v2"), ("e1",), (Incidence("v1", "e1", 1, 1), Incidence("v2", "e1", 1, 1))
    )
    lap = laplacian(g)
    bumped = [list(row) for row in lap.entries]
    bumped[0][0] += 1
    corrupted = LabeledIntegerMatrix(lap.row_labels, lap.col_labels, bumped)
    diff = _matrix_diff("corrupted L", corrupted, "D - A", degree_matrix(g) - adjacency_matrix(g))
    detected = diff is not None and "(v1, v1)" in diff
    return CheckResult(
        "harness_self_test",
        _summary(g),
        "pass" if detected else "fail",
        None if detected else "a corrupted Laplacian entry went undetected",
    )


def run_verify_suite(
    instance: OrientedHypergraph | None = None,
    *,
    seed: int = 0,
    options: VerifyOptions = VerifyOptions(),
) -> VerificationReport:
    """Run every identity check on one instance or on a seeded random family.

    With an ``instance`` the checks run once on it (the seed still feeds the
    random switching functions).  Without one, ``options.trials`` instances
    are generated from ``seed``.  Output ordering is canonical: results are
    sorted by check name, then trial.
    """
    results: list[CheckResult] = []
    notes: list[str] = []
    complete = True
    master = random.Random(seed)

    if instance is not None:
        problems = validate(instance)
        if problems:
            raise ValueError("instance is invalid: " + "; ".join(problems))
        targets = [(None, instance, master.getrandbits(64))]
    else:
        targets = []
        for trial in range(options.trials):
            trng = random.Random(master.getrandbits(64))
            nv = trng.randint(1, options.max_vertices)
            ne = trng.randint(0, options.max_edges)
            if trng.random() < NON_SIMPLE_RATE:
                mes = trng.randint(1, options.max_edge_size)
                g = random_instance(
                    trng.getrandbits(64), nv, ne, mes, simple=False, non_simple_rate=0.35
                )
            else:
                mes = trng.randint(1, min(options.max_edge_size, nv))
                g = random_instance(trng.getrandbits(64), nv, ne, mes, simple=True)
            targets.append((trial, g, trng.getrandbits(64)))

    for trial, g, theta_seed in targets:
        try:
            results.extend(_instance_checks(g, seed, trial, options, theta_seed))
        except EnumerationLimitError as exc:
            complete = False
            where = "single instance" if trial is None else f"trial {trial}"
            notes.append(f"{where}: {exc}")

    if options.self_test:
        results.append(_harness_self_test())

    results.sort(key=lambda r: (r.check_name, -1 if r.trial is None else r.trial))
    return VerificationReport(tuple(results), complete, tuple(notes))


def format_report(report: VerificationReport) -> str:
    """One line per check plus a summary, in canonical order."""
    lines = []
    for r in report.results:
        if r.status == "pass":
            lines.append(f"PASS {r.check_name} [{r.instance_summary}]")
        else:
            lines.append(f"FAIL {r.check_name} [{r.instance_summary}] seed={r.seed}")
            if r.counterexample:
                lines.extend("  " + ln for ln in r.counterexample.splitlines())
    failed = len(report.failures)
    lines.append(f"{len(report.results)} checks: {len(report.results) - failed} passed, {failed} failed")
    if not report.complete:
        lines.append("INCOMPLETE: a resource ceiling cut some checks short")
        lines.extend("  " + note for note in report.notes)
    return "\n".join(lines) + "\n"

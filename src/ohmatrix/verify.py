"""Identity verification suite over single instances or seeded families.

Every matrix identity the library promises is checked against independent
reconstructions, most of them through the brute-force walk search
(:func:`oracle_walk_matrix` and :func:`oracle_walk_counts`, one search per
source anchor, recursing once per pair step, about n/2 deep).
``VerifyOptions.max_walks`` bounds the walks each of those searches may
generate; a trial whose search would exceed it is reported INCOMPLETE.
Each distinct random switching drawn for an instance (one per instance by
default) is checked once: the matrices of the switched instance against
``D^T A D``, ``D H`` and ``D^T L D``, computed entrywise from the drawn
signs without products.
A failing check always carries a reproducible counterexample: the canonical
serialization of the instance plus the first differing entries, and the
seeds that regenerate it.

Family trials run in order in the calling process, so an in-process
tracer or profiler, and the process's peak memory, see every trial.
"""

from __future__ import annotations

import random

from .core import (
    OrientedHypergraph,
    SwitchingFunction,
    _Value,
    _require_int,
    incidence_dual,
    is_simple,
    switch,
    validate,
)
from .matrices import (
    LabeledIntegerMatrix,
    _signed,
    adjacency_matrix,
    degree_matrix,
    dual_laplacian,
    incidence_matrix,
    laplacian,
)
from .signed import from_hypergraph, line_graph, to_hypergraph, underlying_is_simple
from .walks import (
    DEFAULT_MAX_WALKS,
    INCIDENCE_CAP,
    EnumerationLimitError,
    oracle_walk_counts,
    oracle_walk_matrix,
    walk_matrix,
)
from .io import random_instance, serialize_instance


# Share of family trials drawn from the generator with repeated incidences.
NON_SIMPLE_RATE = 0.3


class VerifyOptions(_Value):
    """Bounds and knobs for the verification suite, one per ``verify`` flag.

    Family mode generates ``trials`` random instances within the size caps.
    ``max_walk_incidences`` bounds the walk oracle (adjacency powers are
    checked up to half that many steps) and may not exceed
    ``INCIDENCE_CAP``; the oracle's search recurses about n/2 deep.
    ``switching_trials`` random switchings are drawn per instance, and
    each distinct one is checked once.  The default, one per instance, is
    what the mutation sweep supports: twenty catch no more of its faults and
    change no passing report, but a fault that only a rare switching
    pattern exposes needs more draws.  ``max_walks`` is the one ceiling
    of each oracle search (one per source anchor), on the walks it
    generates; a search that would generate more cuts its trial short, and
    the report is INCOMPLETE.  Counts that are not ``int`` (bools and
    floats included) raise ValueError.  Negative counts do too, since they
    would pass checks that never ran, and so do size caps and walk ceilings
    below 1, which no random instance or search can meet.
    """

    __slots__ = ("trials", "max_vertices", "max_edges", "max_edge_size", "max_walk_incidences",
                 "switching_trials", "max_walks")

    def __init__(self, trials: int = 100, max_vertices: int = 8, max_edges: int = 8,
                 max_edge_size: int = 4, max_walk_incidences: int = 8,
                 switching_trials: int = 1, max_walks: int = DEFAULT_MAX_WALKS) -> None:
        values = (trials, max_vertices, max_edges, max_edge_size, max_walk_incidences,
                  switching_trials, max_walks)
        for name, value, least in zip(self.__match_args__, values, (0, 1, 0, 1, 0, 0, 1)):
            _require_int(value, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            object.__setattr__(self, name, value)
        if max_walk_incidences > INCIDENCE_CAP:
            raise ValueError(
                f"max_walk_incidences must be at most {INCIDENCE_CAP}, got {max_walk_incidences}"
            )


class CheckResult(_Value):
    """One check on one instance; it passed exactly when it has no counterexample."""

    __slots__ = ("check_name", "instance_summary", "counterexample", "seed", "trial")

    def __init__(self, check_name: str, instance_summary: str, counterexample: str | None = None,
                 seed: int | None = None, trial: int | None = None) -> None:
        object.__setattr__(self, "check_name", check_name)
        object.__setattr__(self, "instance_summary", instance_summary)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "trial", trial)

    @property
    def status(self) -> str:
        return "pass" if self.counterexample is None else "fail"


class VerificationReport(_Value):
    """Canonically ordered check results plus notes on what was cut short.

    Each note names a trial that a resource ceiling cut short; the report
    is ``complete`` when there are none.
    """

    __slots__ = ("results", "notes")

    def __init__(self, results: tuple[CheckResult, ...], notes: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "results", tuple(results))
        object.__setattr__(self, "notes", tuple(notes))

    @property
    def complete(self) -> bool:
        return not self.notes

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple([r for r in self.results if r.status == "fail"])

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
    max_walks = options.max_walks

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
    yield "dual_laplacian_product", _matrix_diff(
        "L of the dual", laplacian(gd), "H^T * H", hth
    ) or _matrix_diff("dual Laplacian", dual_laplacian(g), "H^T * H", hth)

    # A set, not is_k_uniform: that holds for every k on an edgeless instance, which has no k.
    sizes = {g.edge_size(e) for e in g.edges}
    if simple and len(sizes) == 1:
        (k,) = sizes
        # Both also serve the line-graph checks, which need sizes == {2}.
        a_dual = adjacency_matrix(gd)
        ki = LabeledIntegerMatrix.diagonal(g.edges, [k] * len(g.edges))
        yield "uniform_dual_identity", _matrix_diff(
            "H^T * H", hth, f"{k}I - A of the dual", ki - a_dual
        )

    half = oracle_walk_matrix(g, "V", "E", 1, max_walks=max_walks)
    yield "half_walk_incidence", _matrix_diff("half-step walk matrix", half, "H", h)
    yield "half_walk_laplacian", _matrix_diff(
        "product of half-step walk matrices",
        half @ oracle_walk_matrix(g, "E", "V", 1, max_walks=max_walks),
        "L", lap,
    )

    # One strict and one weak search per source vertex serve every check
    # on one-step walks below.
    plus, minus = oracle_walk_counts(g, "V", "V", 2, max_walks=max_walks)
    weak_plus, weak_minus = oracle_walk_counts(g, "V", "V", 2, weak=True, max_walks=max_walks)
    weak_total = weak_plus + weak_minus

    # walk_matrix at n = 2k is the power A^k, so it is the one power formed
    # here; A itself is compared with the one-step counts as well.
    oracle_diff = None
    for k in range(options.max_walk_incidences // 2 + 1):
        label = f"signed {k}-step walk counts"
        if k == 1:
            counts = plus - minus
            oracle_diff = _matrix_diff("A^1", a, label, counts)
        else:
            counts = oracle_walk_matrix(g, "V", "V", 2 * k, max_walks=max_walks)
        oracle_diff = oracle_diff or _matrix_diff(
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
            "weak walk matrix at n=2", walk_matrix(g, "V", "V", 2, weak=True), label, weak_counts
        )

    if options.switching_trials:
        # Every trial still draws its values, so the draws do not shift; a
        # repeat of a switching already checked would build the same matrices.
        theta_rng = random.Random(theta_seed)
        checked, diff, plus = set(), None, (1,) * len(g.edges)
        for _ in range(options.switching_trials):
            values = tuple([theta_rng.choice((1, -1)) for _ in g.vertices])
            if values in checked:
                continue
            checked.add(values)
            theta = SwitchingFunction(dict(zip(g.vertices, values)))
            gs = switch(g, theta)
            diff = _matrix_diff(
                "A after switching", adjacency_matrix(gs), "conjugated A", _signed(a, values, values)
            ) or _matrix_diff(
                "H after switching", incidence_matrix(gs), "conjugated H", _signed(h, values, plus)
            ) or _matrix_diff(
                "L after switching", laplacian(gs), "conjugated L", _signed(lap, values, values)
            )
            if diff:
                break
        yield "switching_conjugation", diff and f"{diff} [theta={theta.assignment}]"

    if simple and sizes == {2} and underlying_is_simple(s := from_hypergraph(g)):
        a_line = adjacency_matrix(to_hypergraph(line_graph(s)))
        yield "line_graph_dual_adjacency", _matrix_diff(
            "A of the line graph", a_line, "A of the dual", a_dual
        )
        yield "line_graph_incidence_identity", _matrix_diff(
            "H^T * H", hth, "2I - A of the line graph", ki - a_line
        )


def _instance_checks(
    g: OrientedHypergraph,
    seed: int | None,
    trial: int | None,
    options: VerifyOptions,
    theta_seed: int,
) -> tuple[list[CheckResult], list[str]]:
    """Each check's result on ``g``, or none and a note if a ceiling cut it short."""
    summary = _summary(g, trial)
    try:
        return [
            CheckResult(name, summary, diff and f"{diff}\ninstance:\n{serialize_instance(g)}",
                        seed, trial)
            for name, diff in _identity_diffs(g, options, theta_seed)
        ], []
    except EnumerationLimitError as exc:
        where = "single instance" if trial is None else f"trial {trial}"
        return [], [f"{where}: {exc}"]


def _family_instance(trial_seed: int, options: VerifyOptions) -> tuple[OrientedHypergraph, int]:
    """One family trial's instance and switching seed, from its master seed."""
    trng = random.Random(trial_seed)
    nv = trng.randint(1, options.max_vertices)
    ne = trng.randint(0, options.max_edges)
    if trng.random() < NON_SIMPLE_RATE:
        mes = trng.randint(1, options.max_edge_size)
        g = random_instance(trng.getrandbits(64), nv, ne, mes, simple=False, non_simple_rate=0.35)
    else:
        mes = trng.randint(1, min(options.max_edge_size, nv))
        g = random_instance(trng.getrandbits(64), nv, ne, mes, simple=True)
    return g, trng.getrandbits(64)


def run_verify_suite(
    instance: OrientedHypergraph | None = None,
    *,
    seed: int = 0,
    options: VerifyOptions = VerifyOptions(),
) -> VerificationReport:
    """Run every identity check on one instance or on a seeded random family.

    With an ``instance`` the checks run once on it (the seed still feeds the
    random switching functions).  Without one, ``options.trials`` instances
    are generated from ``seed``, one master seed per trial, and checked in
    order in the calling process.  Output ordering is canonical: results
    are sorted by check name, then trial, and notes come in trial order.
    """
    master = random.Random(seed)
    if instance is not None:
        problems = validate(instance)
        if problems:
            raise ValueError("instance is invalid: " + "; ".join(problems))
        results, notes = _instance_checks(instance, seed, None, options, master.getrandbits(64))
    else:
        results, notes = [], []
        for trial in range(options.trials):
            g, theta_seed = _family_instance(master.getrandbits(64), options)
            trial_results, trial_notes = _instance_checks(g, seed, trial, options, theta_seed)
            results += trial_results
            notes += trial_notes
    # The one place the report is ordered: a check runs once per trial, and
    # a single instance is the only trial, so (name, trial) is a total order.
    results.sort(key=lambda r: (r.check_name, r.trial))
    return VerificationReport(tuple(results), tuple(notes))


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

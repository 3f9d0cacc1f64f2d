"""In-process spans around the library's public functions.

:func:`installed` wraps every public function of the ``io``, ``core``,
``matrices``, ``walks``, ``signed`` and ``verify`` modules, plus
``LabeledIntegerMatrix.__matmul__``, ``power`` and ``__post_init__``, from
outside the package: ``cli.py`` and ``verify.py`` bind names such as
``walk_counts`` at import, so each binding is replaced in every
``ohmatrix`` module namespace (and in dicts there, such as the CLI's
builder table) and put back afterwards. Spans stay in memory as
``[id, parent, name, start, end]`` lists; ``id`` is the span's index.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("io", "core", "matrices", "walks", "signed", "verify")
BUILDERS = (
    "incidence_matrix",
    "adjacency_matrix",
    "degree_matrix",
    "laplacian",
    "dual_laplacian",
    "switching_matrix",
)
_METHODS = (
    ("__matmul__", "matrices.matmul"),
    ("power", "matrices.power"),
    ("__post_init__", "matrices.construct"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.errors: dict[int, BaseException] = {}

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(counters, args, result)``
        runs once the span has ended, so its cost is not in the span."""
        spans, stack, errors, counters = self.spans, self.stack, self.errors, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[id(exc)] = exc
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        return traced


def _count_walks(counters, args, result) -> None:
    counters["walks.walks_returned"] += len(result)


def _count_products(counters, args, result) -> None:
    a, b = args[0].entries, args[1].entries
    inner = len(b)
    counters["matrices.matmul.mults"] += len(a) * inner * len(result.col_labels)
    counters["matrices.matmul.nonzero_products"] += sum(
        sum(1 for row in a if row[k]) * sum(1 for x in b[k] if x) for k in range(inner)
    )


def _count_bytes(counters, args, result) -> None:
    counters["io.serialize_matrix.bytes"] += len(result.encode("utf-8"))


def _count_checks(counters, args, report) -> None:
    counters["verify.checks"] += len(report.results)
    counters["verify.failed_checks"] += len(report.failures)
    counters["verify.incomplete_trials"] += len(report.notes)


_HOOKS = {
    "walks.enumerate_walks": _count_walks,
    "matrices.matmul": _count_products,
    "io.serialize_matrix": _count_bytes,
    "verify.run_verify_suite": _count_checks,
}


@contextmanager
def installed(tracer: Tracer):
    """Route every call into the traced layers through ``tracer``."""
    from ohmatrix.matrices import LabeledIntegerMatrix

    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"ohmatrix.{layer}")
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrappers[fn] = tracer.wrap(name, fn, _HOOKS.get(name))
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "ohmatrix" and not modname.startswith("ohmatrix."):
            continue
        for namespace in (vars(mod), *(v for v in vars(mod).values() if isinstance(v, dict))):
            for key, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    undo.append((namespace, key, value))
                    namespace[key] = wrappers[value]
    methods = []
    for attr, name in _METHODS:
        original = vars(LabeledIntegerMatrix)[attr]
        methods.append((attr, original))
        setattr(LabeledIntegerMatrix, attr, tracer.wrap(name, original, _HOOKS.get(name)))
    try:
        yield tracer
    finally:
        for attr, original in methods:
            setattr(LabeledIntegerMatrix, attr, original)
        for namespace, key, value in reversed(undo):
            namespace[key] = value


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict[str, float]:
    """Per layer: each span's duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[1] >= 0:
            children[span[1]].append(span)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        start, end = span[3], span[4]
        covered = 0.0
        reach = start
        for child in sorted(children.get(span[0], ()), key=lambda c: c[3]):
            lo, hi = max(child[3], reach), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[layer_of(span[2])] += (end - start) - covered
    return out


def _under(spans, span, names) -> bool:
    parent = span[1]
    while parent >= 0:
        if spans[parent][2] in names:
            return True
        parent = spans[parent][1]
    return False


def group_time(spans, names) -> float:
    """Wall time inside spans named in ``names``, nested ones counted once."""
    return sum(s[4] - s[3] for s in spans if s[2] in names and not _under(spans, s, names))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Counts and times of one traced invocation, by per-layer metric name."""
    spans = tracer.spans
    calls = Counter(s[2] for s in spans)
    groups = {
        "walks.walk_counts": {"walks.walk_counts"},
        "walks.enumerate_walks": {"walks.enumerate_walks"},
        "walks.walk_matrix": {"walks.walk_matrix"},
        "walks.weak_walk_matrix": {"walks.weak_walk_matrix"},
        "matrices.matmul": {"matrices.matmul"},
        "matrices.power": {"matrices.power"},
        "matrices.builders": {f"matrices.{b}" for b in BUILDERS},
        "core.validate": {"core.validate"},
        "core.incidence_dual": {"core.incidence_dual"},
        "core.switch": {"core.switch"},
        "signed": {name for name in calls if layer_of(name) == "signed"},
        "io.random_instance": {"io.random_instance"},
    }
    out: dict[str, float] = {}
    for group, names in groups.items():
        out[f"{group}.calls"] = sum(calls[n] for n in names)
        out[f"{group}.s"] = group_time(spans, names)
    for name in ("io.parse_instance", "io.serialize_matrix", "verify.run_verify_suite"):
        out[f"{name}.s"] = group_time(spans, {name})
    out["matrices.constructions"] = calls["matrices.construct"]
    out["matrices.construct.s"] = group_time(spans, {"matrices.construct"})
    out["matrices.power.products"] = sum(
        1 for s in spans if s[2] == "matrices.matmul" and _under(spans, s, {"matrices.power"})
    )
    c = tracer.counters
    for name in (
        "walks.walks_returned",
        "matrices.matmul.mults",
        "io.serialize_matrix.bytes",
        "verify.checks",
        "verify.failed_checks",
        "verify.incomplete_trials",
    ):
        out[name] = c[name]
    mults = c["matrices.matmul.mults"]
    out["matrices.matmul.nonzero_share"] = c["matrices.matmul.nonzero_products"] / mults if mults else 0.0
    out["walks.limit_errors"] = sum(
        1 for e in tracer.errors.values() if type(e).__name__ == "EnumerationLimitError"
    )
    own = self_times(spans)
    for layer in (*LAYERS, "cli"):
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    return out

"""Instance files, matrix serialization, and seeded random generation.

Instance documents are JSON with an explicit format_version; the canonical
form sorts incidences by (vertex index, edge index, mult_index) so that
serialization round-trips byte for byte.  Switching functions are JSON
objects mapping vertex labels to +1 or -1.  Matrices serialize to CSV
(first row and column hold labels) or JSON.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from math import comb

from .core import Incidence, OrientedHypergraph, SwitchingFunction, _require_int, validate
from .matrices import LabeledIntegerMatrix

FORMAT_VERSION = 1

_INSTANCE_FIELDS = ("format_version", "vertices", "edges", "incidences")
_INCIDENCE_FIELDS = ("v", "e", "k", "sign")
_INCIDENCE_KEYS = frozenset(_INCIDENCE_FIELDS)


class InstanceFormatError(ValueError):
    """Raised for malformed instance or switching documents."""


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise InstanceFormatError("invalid JSON: nested too deeply to decode") from None


def _string_list(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise InstanceFormatError(f"{where} must be an array of strings")
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise InstanceFormatError(f"{where}[{i}] must be a string, got {item!r}")
    return tuple(value)


def parse_instance(text: str, *, require_valid: bool = True) -> OrientedHypergraph:
    """Parse an instance document.

    Errors carry positions (for JSON syntax) or field paths (for schema and
    value problems).  With ``require_valid`` (the default) any structural
    invariant violation is also rejected, with one message per violation.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level must be a JSON object")
    missing = [k for k in _INSTANCE_FIELDS if k not in doc]
    if missing:
        raise InstanceFormatError(f"missing required fields: {', '.join(missing)}")
    extra = sorted(set(doc) - set(_INSTANCE_FIELDS))
    if extra:
        raise InstanceFormatError(f"unknown fields: {', '.join(extra)}")
    version = doc["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise InstanceFormatError(
            f"unsupported format_version {version!r}, expected {FORMAT_VERSION}"
        )
    vertices = _string_list(doc["vertices"], "vertices")
    edges = _string_list(doc["edges"], "edges")
    raw = doc["incidences"]
    if not isinstance(raw, list):
        raise InstanceFormatError("incidences must be an array")
    incidences = []
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict) or rec.keys() != _INCIDENCE_KEYS:
            where = f"incidences[{i}]"
            if not isinstance(rec, dict):
                raise InstanceFormatError(f"{where} must be an object")
            missing = [k for k in _INCIDENCE_FIELDS if k not in rec]
            if missing:
                raise InstanceFormatError(f"{where} is missing fields: {', '.join(missing)}")
            extra = sorted(rec.keys() - _INCIDENCE_KEYS)
            raise InstanceFormatError(f"{where} has unknown fields: {', '.join(extra)}")
        if not isinstance(rec["v"], str):
            raise InstanceFormatError(f"incidences[{i}].v must be a string, got {rec['v']!r}")
        if not isinstance(rec["e"], str):
            raise InstanceFormatError(f"incidences[{i}].e must be a string, got {rec['e']!r}")
        k = rec["k"]
        if type(k) is not int:
            raise InstanceFormatError(f"incidences[{i}].k must be an integer, got {k!r}")
        if k < 1:
            raise InstanceFormatError(f"incidences[{i}].k must be at least 1, got {k}")
        sign = rec["sign"]
        if type(sign) is not int or sign not in (1, -1):
            raise InstanceFormatError(f"incidences[{i}].sign must be 1 or -1, got {sign!r}")
        incidences.append(Incidence(rec["v"], rec["e"], k, sign))
    g = OrientedHypergraph(vertices, edges, incidences)
    if require_valid:
        problems = validate(g)
        if problems:
            raise InstanceFormatError("invalid instance:\n  " + "\n  ".join(problems))
    return g


def _incidence_record(i: Incidence) -> dict:
    """One incidence as instance files and ``ohmatrix walks`` write it."""
    return {"v": i.vertex, "e": i.edge, "k": i.mult_index, "sign": i.sign}


def serialize_instance(g: OrientedHypergraph) -> str:
    """Canonical instance document: incidences sorted by declared-order key."""
    incidences = sorted(g.incidences, key=g.incidence_sort_key)
    doc = {
        "format_version": FORMAT_VERSION,
        "vertices": list(g.vertices),
        "edges": list(g.edges),
        "incidences": [_incidence_record(i) for i in incidences],
    }
    return json.dumps(doc, indent=2) + "\n"


def serialize_matrix(m: LabeledIntegerMatrix, fmt: str = "csv") -> str:
    """Render a matrix as CSV (labels in the first row and column) or JSON.

    CSV labels must be non-empty; one holding a line break is quoted.
    """
    if fmt == "json":
        doc = {
            "rows": list(m.row_labels),
            "cols": list(m.col_labels),
            "entries": [list(row) for row in m.entries],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown matrix format {fmt!r}")
    labels = (*m.row_labels, *m.col_labels)
    if "" in labels:
        raise ValueError("CSV serialization needs non-empty labels")
    # csv quotes a field holding the \n line terminator but not a lone \r,
    # which a CSV reader may take for a line end: quote every label then.
    quoting = csv.QUOTE_NONNUMERIC if any("\r" in label for label in labels) else csv.QUOTE_MINIMAL
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=quoting)
    writer.writerow(["", *m.col_labels])
    for label, row in zip(m.row_labels, m.entries):
        writer.writerow([label, *row])
    return buf.getvalue()


def parse_switching(text: str) -> SwitchingFunction:
    """Parse a JSON object mapping vertex labels to +1 or -1."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise InstanceFormatError("switching document must be a JSON object")
    assignment = {}
    for v, s in doc.items():
        if type(s) is not int or s not in (1, -1):
            raise InstanceFormatError(f"switching value for {v!r} must be 1 or -1, got {s!r}")
        assignment[v] = s
    return SwitchingFunction(assignment)


def random_instance(
    seed: int,
    n_vertices: int,
    n_edges: int,
    max_edge_size: int | None = None,
    simple: bool = True,
    non_simple_rate: float = 0.3,
    min_edge_size: int = 1,
) -> OrientedHypergraph:
    """Deterministic random instance; identical arguments give identical output.

    Vertices are named v1..vN and edges e1..eM.  Edge sizes are uniform on
    [min_edge_size, max_edge_size]; an absent maximum is 3 (at most
    n_vertices if ``simple``), raised to min_edge_size.  With ``simple`` every
    edge gets distinct member vertices, which requires max_edge_size <= n_vertices.
    Otherwise each member slot after the first duplicates one of the edge's
    current members with probability ``non_simple_rate`` (repeated members
    get consecutive mult_index values).  Signs are uniform on +1/-1.
    """
    _require_int(n_vertices, "n_vertices")
    _require_int(n_edges, "n_edges")
    _require_int(min_edge_size, "min_edge_size")
    if n_vertices < 0 or n_edges < 0:
        raise ValueError("vertex and edge counts must be nonnegative")
    if type(non_simple_rate) not in (int, float):
        raise ValueError(f"non_simple_rate must be a number, got {non_simple_rate!r}")
    if not 0.0 <= non_simple_rate <= 1.0:
        raise ValueError(f"non_simple_rate must lie in [0, 1], got {non_simple_rate!r}")
    if max_edge_size is None:
        max_edge_size = max(min_edge_size, min(3, n_vertices) if simple else 3)
    _require_int(max_edge_size, "max_edge_size")
    if n_edges:
        if min_edge_size < 1 or max_edge_size < min_edge_size:
            raise ValueError("need 1 <= min_edge_size <= max_edge_size")
        if n_vertices == 0:
            raise ValueError("cannot place edges on zero vertices")
        if simple and max_edge_size > n_vertices:
            raise ValueError(
                f"a simple instance cannot have edge size {max_edge_size} "
                f"with only {n_vertices} vertices"
            )
    rng = random.Random(seed)
    vertices = tuple([f"v{i}" for i in range(1, n_vertices + 1)])
    edges = tuple([f"e{j}" for j in range(1, n_edges + 1)])
    incidences: list[Incidence] = []
    for e in edges:
        size = rng.randint(min_edge_size, max_edge_size)
        if simple:
            members = rng.sample(vertices, size)
        else:
            # picks are member vertex indices; the j-th vertex outside the
            # edge is j shifted past each taken index at or below it.
            picks = [rng.randrange(n_vertices)]
            while len(picks) < size:
                taken = sorted(set(picks))
                if len(taken) < n_vertices and rng.random() >= non_simple_rate:
                    j = rng.randrange(n_vertices - len(taken))
                    for t in taken:
                        if t <= j:
                            j += 1
                    picks.append(j)
                else:
                    picks.append(rng.choice(picks))
            members = [vertices[i] for i in picks]
        mult: Counter[str] = Counter()
        for v in members:
            mult[v] += 1
            incidences.append(Incidence(v, e, mult[v], rng.choice((1, -1))))
    g = OrientedHypergraph(vertices, edges, incidences)
    problems = validate(g)
    if problems:
        raise RuntimeError("generator produced an invalid instance: " + "; ".join(problems))
    return g


def random_bidirected_instance(seed: int, n_vertices: int, n_edges: int) -> OrientedHypergraph:
    """Random two-incidence instance whose underlying graph is simple.

    Edges are drawn without replacement from the vertex pairs, so the
    result is always convertible to a signed graph and line-graphable.
    """
    _require_int(n_vertices, "n_vertices")
    _require_int(n_edges, "n_edges")
    if n_vertices < 0 or n_edges < 0:
        raise ValueError("vertex and edge counts must be nonnegative")
    n_pairs = comb(n_vertices, 2)
    if n_edges > n_pairs:
        raise ValueError(
            f"{n_edges} distinct edges do not fit on {n_vertices} vertices "
            f"(at most {n_pairs})"
        )
    rng = random.Random(seed)
    # Sampling pair ranks draws what sampling the listed pairs would, without
    # listing them.  Rank r is the r-th pair (a, b), a < b, in lexicographic
    # order; the pairs led by a hold ranks [start, start + n_vertices - a).
    ranks = sorted(rng.sample(range(n_pairs), n_edges))
    vertices = tuple([f"v{i}" for i in range(1, n_vertices + 1)])
    edges = tuple([f"e{j}" for j in range(1, n_edges + 1)])
    incidences = []
    a, start = 1, 0
    for e, r in zip(edges, ranks):
        while r >= start + n_vertices - a:
            start += n_vertices - a
            a += 1
        b = a + 1 + r - start
        incidences.append(Incidence(f"v{a}", e, 1, rng.choice((1, -1))))
        incidences.append(Incidence(f"v{b}", e, 1, rng.choice((1, -1))))
    return OrientedHypergraph(vertices, edges, incidences)

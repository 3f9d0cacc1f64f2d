import csv
import io
import json
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmatrix import (
    Incidence,
    InstanceFormatError,
    LabeledIntegerMatrix,
    OrientedHypergraph,
    SwitchingFunction,
    adjacency_matrix,
    is_k_uniform,
    is_simple,
    parse_instance,
    parse_switching,
    random_bidirected_instance,
    random_instance,
    serialize_instance,
    serialize_matrix,
    underlying_is_simple,
    from_hypergraph,
    validate,
)

from helpers import instances, two_vertex_edge, with_edge_cases

MINIMAL_DOC = """
{
  "format_version": 1,
  "vertices": ["v1", "v2"],
  "edges": ["e1"],
  "incidences": [
    {"v": "v1", "e": "e1", "k": 1, "sign": 1},
    {"v": "v2", "e": "e1", "k": 1, "sign": 1}
  ]
}
"""


class TestParseInstance:
    def test_minimal_document(self):
        assert parse_instance(MINIMAL_DOC) == two_vertex_edge()

    def test_json_syntax_error_carries_position(self):
        with pytest.raises(InstanceFormatError, match=r"line \d+, column \d+"):
            parse_instance("{ not json")

    def test_zero_sign_rejected_with_field_path(self):
        doc = json.loads(MINIMAL_DOC)
        doc["incidences"][1]["sign"] = 0
        with pytest.raises(InstanceFormatError, match=r"incidences\[1\].sign"):
            parse_instance(json.dumps(doc))

    def test_multiplicity_gap_rejected(self):
        doc = {
            "format_version": 1,
            "vertices": ["v1"],
            "edges": ["e1"],
            "incidences": [{"v": "v1", "e": "e1", "k": 2, "sign": 1}],
        }
        with pytest.raises(InstanceFormatError, match="mult_index"):
            parse_instance(json.dumps(doc))

    def test_duplicate_triple_rejected(self):
        doc = json.loads(MINIMAL_DOC)
        doc["incidences"].append(doc["incidences"][0])
        with pytest.raises(InstanceFormatError, match="appears 2"):
            parse_instance(json.dumps(doc))

    def test_unknown_label_rejected(self):
        doc = json.loads(MINIMAL_DOC)
        doc["incidences"][0]["v"] = "ghost"
        with pytest.raises(InstanceFormatError, match="undeclared vertex 'ghost'"):
            parse_instance(json.dumps(doc))

    def test_missing_and_unknown_fields(self):
        with pytest.raises(InstanceFormatError, match="missing required fields"):
            parse_instance("{}")
        doc = json.loads(MINIMAL_DOC)
        doc["color"] = "red"
        with pytest.raises(InstanceFormatError, match="unknown fields: color"):
            parse_instance(json.dumps(doc))

    def test_unsupported_version(self):
        # A bool or a float equal to 1 is no integer version either.
        doc = json.loads(MINIMAL_DOC)
        for version, shown in ((9, "9"), (True, "True"), (1.0, "1.0")):
            doc["format_version"] = version
            with pytest.raises(InstanceFormatError,
                               match=f"^unsupported format_version {shown}, expected 1$"):
                parse_instance(json.dumps(doc))

    def test_lenient_mode_returns_invalid_instance(self):
        doc = json.loads(MINIMAL_DOC)
        doc["incidences"][0]["v"] = "ghost"
        g = parse_instance(json.dumps(doc), require_valid=False)
        assert validate(g)


def _edited(edit):
    doc = json.loads(MINIMAL_DOC)
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "top level must be a JSON object"),
        (
            _edited(lambda d: d.update(incidences={})),
            "incidences must be an array",
        ),
        (
            _edited(lambda d: d["incidences"].__setitem__(0, 1)),
            "incidences[0] must be an object",
        ),
        (
            _edited(lambda d: d["incidences"][0].pop("k")),
            "incidences[0] is missing fields: k",
        ),
        (
            _edited(lambda d: d["incidences"][1].update(w="v2")),
            "incidences[1] has unknown fields: w",
        ),
        (
            _edited(lambda d: d["incidences"][0].update(v=1)),
            "incidences[0].v must be a string, got 1",
        ),
        (
            _edited(lambda d: d["incidences"][0].update(e=None)),
            "incidences[0].e must be a string, got None",
        ),
        (
            _edited(lambda d: d["incidences"][0].update(k=0)),
            "incidences[0].k must be at least 1, got 0",
        ),
        (
            _edited(lambda d: d["incidences"][0].update(k=1.5)),
            "incidences[0].k must be an integer, got 1.5",
        ),
        (
            _edited(lambda d: d["incidences"][0].update(k=True)),
            "incidences[0].k must be an integer, got True",
        ),
        (
            _edited(lambda d: d["incidences"][0].update(k="1")),
            "incidences[0].k must be an integer, got '1'",
        ),
        (
            _edited(lambda d: d["vertices"].append(2)),
            "vertices[2] must be a string, got 2",
        ),
        (
            _edited(lambda d: d.update(vertices="v1")),
            "vertices must be an array of strings",
        ),
    ],
    ids=["top-level", "incidences", "record", "missing", "unknown", "v", "e", "k", "k-float",
         "k-bool", "k-string", "vertices", "vertices-array"],
)
def test_parse_instance_messages(text, message):
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "parse", [parse_instance, parse_switching], ids=["instance", "switching"],
)
def test_deeply_nested_json_is_a_format_error(parse):
    with pytest.raises(InstanceFormatError, match="nested too deeply"):
        parse("[" * 200000)


class TestSerializeInstance:
    def test_canonical_incidence_order(self):
        g = random_instance(5, 4, 3, 2, simple=True)
        shuffled = type(g)(g.vertices, g.edges, tuple(reversed(g.incidences)))
        assert serialize_instance(shuffled) == serialize_instance(g)

    def test_canonical_text_round_trips_byte_for_byte(self):
        text = serialize_instance(two_vertex_edge())
        assert serialize_instance(parse_instance(text)) == text

    @given(instances())
    @with_edge_cases()
    def test_object_round_trip(self, g):
        assert parse_instance(serialize_instance(g)) == g


def _read_back(text: str, fmt: str = "csv") -> LabeledIntegerMatrix:
    # The matrix a serialized text holds, read with the standard library
    # alone; every cell must be an integer written the way str() writes it.
    if fmt == "json":
        doc = json.loads(text)
        assert set(doc) == {"rows", "cols", "entries"}
        return LabeledIntegerMatrix(doc["rows"], doc["cols"], doc["entries"])
    (corner, *cols), *rows = csv.reader(io.StringIO(text, newline=""), strict=True)
    entries = [[int(cell) for cell in row[1:]] for row in rows]
    assert corner == "" and [row[1:] for row in rows] == [list(map(str, r)) for r in entries]
    return LabeledIntegerMatrix([row[0] for row in rows], cols, entries)


class TestMatrixSerialization:
    def test_csv_golden(self):
        text = serialize_matrix(adjacency_matrix(two_vertex_edge()))
        assert text == ",v1,v2\nv1,0,-1\nv2,-1,0\n"

    def test_empty_matrix_is_header_only(self):
        for cols, text in ((("c1",), ",c1\n"), ((), '""\n')):
            m = LabeledIntegerMatrix((), cols, ())
            assert serialize_matrix(m) == text
            assert _read_back(text) == m

    @pytest.mark.parametrize(
        "row, col",
        [('ro"w', "co,l"), *((f"r{c}w", f"c{c}l") for c in "\v\f\x1c\x85\u2028\u2029")],
    )
    def test_csv_quotes_awkward_labels(self, row, col):
        m = LabeledIntegerMatrix((row,), (col,), ((3,),))
        assert _read_back(serialize_matrix(m)) == m

    def test_csv_rejects_unusable_labels(self):
        with pytest.raises(ValueError, match="labels"):
            serialize_matrix(LabeledIntegerMatrix(("",), (), ((),)))

    @given(st.data())
    def test_csv_round_trips_labels_with_line_breaks(self, data):
        around = st.text('a," ', max_size=2)
        label = st.tuples(around, st.sampled_from(["\n", "\r", "\r\n"]), around).map("".join)
        labels = st.lists(label, unique=True, max_size=3)
        rows, cols = data.draw(labels), data.draw(labels)
        entries = tuple(tuple(data.draw(st.integers(-9, 9)) for _ in cols) for _ in rows)
        m = LabeledIntegerMatrix(rows, cols, entries)
        assert _read_back(serialize_matrix(m)) == m

    @pytest.mark.parametrize("cell", [" 1_0", "1_0", " 1", "1 ", "+1", "١"])
    def test_csv_cells_are_what_the_serializer_writes(self, cell):
        # int() accepts each of these; serialize_matrix writes the integer
        # the way str() does, and the read-back refuses the other spelling.
        m = LabeledIntegerMatrix(("r",), ("c",), ((int(cell),),))
        assert serialize_matrix(m) == f",c\nr,{int(cell)}\n"
        with pytest.raises(AssertionError):
            _read_back(f",c\nr,{cell}\n")

    def test_json_golden(self):
        text = serialize_matrix(adjacency_matrix(two_vertex_edge()), "json")
        assert text == (
            '{\n  "rows": [\n    "v1",\n    "v2"\n  ],\n'
            '  "cols": [\n    "v1",\n    "v2"\n  ],\n'
            '  "entries": [\n    [\n      0,\n      -1\n    ],\n'
            '    [\n      -1,\n      0\n    ]\n  ]\n}\n'
        )

    def test_json_round_trip(self):
        m = adjacency_matrix(two_vertex_edge())
        assert _read_back(serialize_matrix(m, "json"), "json") == m

    @given(instances(), st.sampled_from(["csv", "json"]))
    @with_edge_cases("csv")
    @settings(max_examples=25)
    def test_round_trip_of_built_matrices(self, g, fmt):
        m = adjacency_matrix(g)
        assert _read_back(serialize_matrix(m, fmt), fmt) == m

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            serialize_matrix(LabeledIntegerMatrix((), (), ()), "xml")


class TestSwitchingSerialization:
    def test_parses_a_literal_document(self):
        theta = parse_switching('{"v1": 1, "v2": -1, "v3": -1}')
        assert theta == SwitchingFunction({"v1": 1, "v2": -1, "v3": -1})
        assert parse_switching("{}") == SwitchingFunction({})

    def test_rejects_bad_values(self):
        with pytest.raises(InstanceFormatError, match="'v1'"):
            parse_switching('{"v1": 0}')
        with pytest.raises(InstanceFormatError, match="'v1'"):
            parse_switching('{"v1": true}')
        with pytest.raises(InstanceFormatError, match="object"):
            parse_switching("[1]")


def _listed_random_instance(seed, n_vertices, n_edges, max_edge_size, non_simple_rate):
    # The non-simple generator as it was when it listed the vertices outside
    # the edge for every member slot: the reference for byte identity.
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(1, n_vertices + 1))
    edges = tuple(f"e{j}" for j in range(1, n_edges + 1))
    incidences = []
    for e in edges:
        size = rng.randint(1, max_edge_size)
        members = [rng.choice(vertices)]
        while len(members) < size:
            outside = [v for v in vertices if v not in members]
            if outside and rng.random() >= non_simple_rate:
                members.append(rng.choice(outside))
            else:
                members.append(rng.choice(members))
        mult = Counter()
        for v in members:
            mult[v] += 1
            incidences.append(Incidence(v, e, mult[v], rng.choice((1, -1))))
    return OrientedHypergraph(vertices, edges, incidences)


def _listed_bidirected_instance(seed, n_vertices, n_edges):
    # The bidirected generator as it was when it sampled from the list of
    # every vertex pair: the reference for byte identity.
    pairs = list(combinations(range(1, n_vertices + 1), 2))
    rng = random.Random(seed)
    chosen = sorted(rng.sample(pairs, n_edges))
    vertices = tuple(f"v{i}" for i in range(1, n_vertices + 1))
    edges = tuple(f"e{j}" for j in range(1, n_edges + 1))
    incidences = []
    for e, (a, b) in zip(edges, chosen):
        incidences.append(Incidence(f"v{a}", e, 1, rng.choice((1, -1))))
        incidences.append(Incidence(f"v{b}", e, 1, rng.choice((1, -1))))
    return OrientedHypergraph(vertices, edges, incidences)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(11, 5, 4, 3, simple=False, non_simple_rate=0.5)
        b = random_instance(11, 5, 4, 3, simple=False, non_simple_rate=0.5)
        assert a == b and serialize_instance(a) == serialize_instance(b)

    def test_simple_flag(self):
        for seed in range(10):
            assert is_simple(random_instance(seed, 5, 5, 3, simple=True))

    def test_edgeless(self):
        g = random_instance(0, 3, 0, 1)
        assert g.edges == () and len(g.vertices) == 3

    def test_generated_instances_validate(self):
        for seed in range(10):
            g = random_instance(seed, 6, 5, 4, simple=False, non_simple_rate=0.6)
            assert validate(g) == []

    def test_non_simple_rate_produces_repeats(self):
        hits = sum(
            not is_simple(random_instance(seed, 3, 4, 3, simple=False, non_simple_rate=0.9))
            for seed in range(20)
        )
        assert hits > 10

    @pytest.mark.parametrize("n_vertices", [1, 2, 5, 30])
    def test_non_simple_output_matches_the_listing_generator(self, n_vertices):
        for seed in range(30):
            for size in (1, 3, 6):
                for rate in (0.0, 0.3, 0.9):
                    g = random_instance(seed, n_vertices, 6, size, simple=False,
                                        non_simple_rate=rate)
                    reference = _listed_random_instance(seed, n_vertices, 6, size, rate)
                    assert serialize_instance(g) == serialize_instance(reference)

    def test_uniform_sizes_via_min_edge_size(self):
        g = random_instance(2, 6, 4, 3, simple=True, min_edge_size=3)
        assert is_k_uniform(g, 3)

    def test_absent_max_edge_size_is_the_rule(self):
        # 3, at most the vertex count if simple, and never below the minimum.
        def outcome(*args, **kwargs):
            try:
                return serialize_instance(random_instance(*args, **kwargs))
            except ValueError as exc:
                return str(exc)

        for n_vertices in range(6):
            for min_size in range(1, 6):
                for simple in (True, False):
                    rule = max(min_size, min(3, n_vertices) if simple else 3)
                    kwargs = {"simple": simple, "min_edge_size": min_size}
                    assert outcome(4, n_vertices, 3, **kwargs) == (
                        outcome(4, n_vertices, 3, rule, **kwargs)
                    )

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError, match="simple"):
            random_instance(0, 2, 1, 3, simple=True)
        with pytest.raises(ValueError, match="zero vertices"):
            random_instance(0, 0, 1, 1)
        with pytest.raises(ValueError, match="min_edge_size"):
            random_instance(0, 3, 1, 2, min_edge_size=3)
        with pytest.raises(ValueError, match="non_simple_rate"):
            random_instance(0, 3, 1, 2, non_simple_rate=1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            random_instance(0, -1, 0, 1)


class TestRandomBidirectedInstance:
    def test_shape(self):
        g = random_bidirected_instance(4, 6, 7)
        assert is_simple(g) and is_k_uniform(g, 2)
        assert underlying_is_simple(from_hypergraph(g))

    def test_deterministic(self):
        assert random_bidirected_instance(9, 5, 4) == random_bidirected_instance(9, 5, 4)

    @pytest.mark.parametrize("n_vertices, edge_counts", [
        *((v, range(v * (v - 1) // 2 + 1)) for v in (0, 1, 2, 3, 7, 9)),
        (40, (1, 10, 100)),
    ])
    def test_output_matches_the_listing_generator(self, n_vertices, edge_counts):
        # random.sample draws from a set of picks or from a pool by the
        # population size and k, so both ways are covered.
        for seed in range(20):
            for n_edges in edge_counts:
                g = random_bidirected_instance(seed, n_vertices, n_edges)
                reference = _listed_bidirected_instance(seed, n_vertices, n_edges)
                assert serialize_instance(g) == serialize_instance(reference)

    def test_memory_is_bounded_by_the_output(self):
        # Listing the 1,999,000 vertex pairs peaked above 100 MB.
        tracemalloc.start()
        try:
            random_bidirected_instance(0, 2000, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_rejects_too_many_edges(self):
        with pytest.raises(ValueError, match="at most 3"):
            random_bidirected_instance(0, 3, 4)

    @pytest.mark.parametrize("n_vertices, n_edges", [(-1, 0), (0, -1)])
    def test_rejects_negative_counts(self, n_vertices, n_edges):
        with pytest.raises(ValueError, match="^vertex and edge counts must be nonnegative$"):
            random_bidirected_instance(0, n_vertices, n_edges)


@pytest.mark.parametrize("generate, args, kwargs, name", [
    (random_instance, (0, True, 1), {}, "n_vertices"),
    (random_instance, (0, 3.0, 2), {}, "n_vertices"),
    (random_instance, (0, 3, True), {}, "n_edges"),
    (random_instance, (0, 3, 2, 2.0), {}, "max_edge_size"),
    (random_instance, (0, 3, 2), {"min_edge_size": 1.0}, "min_edge_size"),
    (random_instance, (0, 3, 2), {"simple": False, "min_edge_size": True}, "min_edge_size"),
    (random_bidirected_instance, (0, 3, True), {}, "n_edges"),
    (random_bidirected_instance, (0, 3.0, 1), {}, "n_vertices"),
])
def test_generators_refuse_counts_that_are_not_int(generate, args, kwargs, name):
    # As every other count in the library: a bool or a float is no count.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        generate(*args, **kwargs)


@pytest.mark.parametrize("rate", [True, False, "0.5", None, 1j])
def test_random_instance_refuses_a_rate_that_is_not_a_number(rate):
    # A bool is no rate either: True would otherwise be taken as 1.0.
    with pytest.raises(ValueError, match="^non_simple_rate must be a number, got "):
        random_instance(0, 3, 2, 2, simple=False, non_simple_rate=rate)

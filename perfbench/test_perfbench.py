"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from checks import check_walk_matrix, score_verify
from inputs import adjacency_power, balanced_instance, write_instance
from spans import Tracer, group_time, installed, layer_metrics, self_times

import run

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ohmatrix import cli  # noqa: E402

CAPTURED = HERE / "testdata" / "verify_seed3_trials100.txt"


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_balanced_instance_is_seeded_and_balanced():
    doc = balanced_instance(7, 40, 60, 4)
    assert doc == balanced_instance(7, 40, 60, 4)
    assert doc != balanced_instance(8, 40, 60, 4)
    degrees = {}
    for rec in doc["incidences"]:
        degrees[rec["v"]] = degrees.get(rec["v"], 0) + 1
    assert len(doc["incidences"]) == 150
    assert set(degrees.values()) <= {3, 4}
    for e in doc["edges"]:
        members = [r["v"] for r in doc["incidences"] if r["e"] == e]
        assert len(members) == len(set(members))


def test_walk_matrix_check_rejects_one_corrupted_entry(tmp_path):
    doc = balanced_instance(1, 12, 18, 4)
    path = tmp_path / "inst.json"
    write_instance(doc, path)
    code, out = _cli(["walk-matrix", str(path), "--rows", "V", "--cols", "V", "--n", "4"])
    assert code == 0
    expected = adjacency_power(doc, 2)
    assert check_walk_matrix(out, doc["vertices"], expected) == []

    lines = out.splitlines()
    cells = lines[3].split(",")
    cells[5] = str(int(cells[5]) + 1)
    lines[3] = ",".join(cells)
    corrupted = "\n".join(lines) + "\n"
    problems = check_walk_matrix(corrupted, doc["vertices"], expected)
    assert len(problems) == 1
    assert f"({doc['vertices'][2]}, {doc['vertices'][4]})" in problems[0]


def test_failure_counting_on_captured_incomplete_output():
    text = CAPTURED.read_text(encoding="utf-8")
    outcome = score_verify(text, 1, 100)
    assert (outcome.attempted, outcome.failed) == (100, 1)
    assert outcome.correct

    assert not score_verify(text, 0, 100).correct
    failing = text.replace("PASS degree_backsteps [trial=7 ", "FAIL degree_backsteps [trial=7 ", 1)
    failing = failing.replace("1217 passed, 0 failed", "1216 passed, 1 failed")
    outcome = score_verify(failing, 1, 100)
    assert outcome.failed == 2
    assert not outcome.correct


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        [0, -1, "cli.main", 0.0, 10.0],
        [1, 0, "verify.run_verify_suite", 1.0, 9.0],
        [2, 1, "walks.walk_counts", 2.0, 5.0],
        [3, 2, "walks.enumerate_walks", 2.5, 4.5],
        [4, 1, "matrices.matmul", 6.0, 8.5],
        [5, 4, "matrices.construct", 8.0, 8.5],
    ]
    own = self_times(spans)
    assert own["cli"] == 10.0 - 8.0
    assert own["verify"] == 8.0 - 3.0 - 2.5
    assert own["walks"] == (3.0 - 2.0) + 2.0
    assert own["matrices"] == (2.5 - 0.5) + 0.5
    assert sum(own.values()) == 10.0
    assert group_time(spans, {"walks.walk_counts", "walks.enumerate_walks"}) == 3.0


def test_tracing_patches_every_binding_and_restores_it(tmp_path):
    doc = balanced_instance(2, 6, 8, 3)
    path = tmp_path / "inst.json"
    write_instance(doc, path)
    originals = (cli.adjacency_matrix, dict(cli._MATRIX_BUILDERS), cli.walk_matrix)
    tracer = Tracer()
    with installed(tracer):
        assert _cli(["matrix", "adjacency", str(path)])[0] == 0
        assert _cli(["walk-matrix", str(path), "--rows", "V", "--cols", "V", "--n", "2"])[0] == 0
    metrics = layer_metrics(tracer)
    assert metrics["matrices.builders.calls"] == 1
    assert metrics["walks.walk_matrix.calls"] == 1
    assert metrics["io.parse_instance.s"] > 0
    assert metrics["matrices.constructions"] == 2
    assert (cli.adjacency_matrix, cli._MATRIX_BUILDERS, cli.walk_matrix) == originals


def test_traced_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in spec["per_layer"]}
    assert set(layer_metrics(Tracer())) | {"trace.overhead_s"} == names


def test_child_peak_rss_is_its_own_not_the_parents(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    ballast = bytearray(128 * 1024 * 1024)  # a page is resident once written
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])
    doc = balanced_instance(3, 6, 8, 3)
    path = tmp_path / "inst.json"
    write_instance(doc, path)
    _, code, rss_kib, out, _ = run.run_child(["validate", str(path)])
    del ballast
    assert (code, out) == (0, "OK\n")
    assert 0 < rss_kib < 64 * 1024

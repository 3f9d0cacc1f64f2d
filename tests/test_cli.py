import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ohmatrix
import ohmatrix.verify
from ohmatrix import (
    DEFAULT_MAX_WALKS,
    VerificationReport,
    VerifyOptions,
    is_simple,
    parse_instance,
    random_instance,
    serialize_instance,
)
from ohmatrix import cli
from ohmatrix.cli import build_parser, main

from helpers import double_incidence, path3, two_vertex_edge

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(serialize_instance(two_vertex_edge()))
    return str(path)


def test_validate_ok(instance_file, capsys):
    assert main(["validate", instance_file]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_reports_violations(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "vertices": ["v1"],
        "edges": ["e1"],
        "incidences": [{"v": "ghost", "e": "e1", "k": 1, "sign": 1}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "undeclared vertex 'ghost'" in capsys.readouterr().out


def test_unparseable_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{ nope")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


_NO_FILE = "[Errno 2] No such file or directory: ''"
_EMPTY_PATH_CASES = [
    (["validate", ""], _NO_FILE),
    (["matrix", "adjacency", ""], _NO_FILE),
    (["dual", ""], _NO_FILE),
    (["switch", "", "--theta", "G"], _NO_FILE),
    (["switch", "G", "--theta", ""], _NO_FILE),
    (["walks", "", "--from", "v1", "--to", "v2", "--n", "2"], _NO_FILE),
    (["walk-matrix", "", "--rows", "V", "--cols", "V", "--n", "2"], _NO_FILE),
    (["linegraph", ""], _NO_FILE),
    (["verify", ""], _NO_FILE),
    (["verify", "", "--trials", "7"], "argument --trials: not allowed with an instance"),
]


@pytest.mark.parametrize("argv, message", _EMPTY_PATH_CASES,
                         ids=["_".join(argv) for argv, _ in _EMPTY_PATH_CASES])
def test_an_empty_path_is_a_missing_file(instance_file, capsys, argv, message):
    # An empty path names neither the working directory nor, for verify, a
    # seeded family; G stands for a valid instance file.
    argv = [instance_file if arg == "G" else arg for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.endswith(f"error: {message}\n")


def test_deeply_nested_file_exits_2_without_traceback(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid JSON: nested too deeply to decode\n"


def test_matrix_csv_golden(instance_file, capsys):
    assert main(["matrix", "adjacency", instance_file]) == 0
    assert capsys.readouterr().out == ",v1,v2\nv1,0,-1\nv2,-1,0\n"


def test_matrix_json(instance_file, capsys):
    assert main(["matrix", "laplacian", instance_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == [[1, 1], [1, 1]]


def test_dual_round_trip(instance_file, tmp_path, capsys):
    assert main(["dual", instance_file]) == 0
    dual_text = capsys.readouterr().out
    dual_path = tmp_path / "dual.json"
    dual_path.write_text(dual_text)
    assert main(["dual", str(dual_path)]) == 0
    assert parse_instance(capsys.readouterr().out) == two_vertex_edge()


def test_switch(instance_file, tmp_path, capsys):
    theta_path = tmp_path / "theta.json"
    theta_path.write_text('{"v1": -1, "v2": 1}')
    assert main(["switch", instance_file, "--theta", str(theta_path)]) == 0
    g = parse_instance(capsys.readouterr().out)
    signs = {(i.vertex, i.sign) for i in g.incidences}
    assert signs == {("v1", -1), ("v2", 1)}


def test_switch_refuses_stdin_as_both_instance_and_theta(instance_file, monkeypatch, capsys):
    stdin = io.StringIO(serialize_instance(two_vertex_edge()))
    monkeypatch.setattr("sys.stdin", stdin)
    with pytest.raises(SystemExit) as exc:
        main(["switch", "-", "--theta", "-"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(
        "ohmatrix switch: error: argument --theta: standard input is already the instance"
    )
    assert stdin.tell() == 0  # refused before anything was read
    # The switching alone may come from stdin.
    monkeypatch.setattr("sys.stdin", io.StringIO('{"v1": -1, "v2": 1}'))
    assert main(["switch", instance_file, "--theta", "-"]) == 0
    g = parse_instance(capsys.readouterr().out)
    assert {(i.vertex, i.sign) for i in g.incidences} == {("v1", -1), ("v2", 1)}


def test_switch_with_incomplete_theta_is_input_error(instance_file, tmp_path, capsys):
    theta_path = tmp_path / "theta.json"
    theta_path.write_text('{"v1": -1}')
    assert main(["switch", instance_file, "--theta", str(theta_path)]) == 2
    assert "v2" in capsys.readouterr().err


def test_walks(instance_file, capsys):
    assert main(["walks", instance_file, "--from", "v1", "--to", "v2", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == {"total": 1, "positive": 0, "negative": 1, "signed_net": -1}
    assert doc["walks"][0]["anchors"] == ["v1", "e1", "v2"]
    assert doc["walks"][0]["sign"] == -1


def test_walks_weak(instance_file, capsys):
    assert main(["walks", instance_file, "--from", "v1", "--to", "v1", "--n", "2", "--weak"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["total"] == 1


def test_walks_prints_every_walk_with_its_incidences_and_sign(instance_file, capsys):
    assert main(["walks", instance_file, "--from", "v1", "--to", "e1", "--n", "3", "--weak"]) == 0
    v1, v2 = ({"v": v, "e": "e1", "k": 1, "sign": 1} for v in ("v1", "v2"))
    doc = {
        "from": "v1",
        "to": "e1",
        "half_length_numerator": 3,
        "weak": True,
        "counts": {"total": 2, "positive": 0, "negative": 2, "signed_net": -2},
        "walks": [
            {"anchors": ["v1", "e1", "v1", "e1"], "incidences": [v1, v1, v1], "sign": -1},
            {"anchors": ["v1", "e1", "v2", "e1"], "incidences": [v1, v2, v2], "sign": -1},
        ],
    }
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_walks_prints_walks_of_both_signs(tmp_path, capsys):
    # The two incidences at (v1, e1) have opposite signs, so the four weak
    # pair steps from v1 back to v1 have signs -1, +1, +1, -1.
    path = tmp_path / "double.json"
    path.write_text(serialize_instance(double_incidence()))
    assert main(["walks", str(path), "--from", "v1", "--to", "v1", "--n", "2", "--weak"]) == 0
    k1, k2 = ({"v": "v1", "e": "e1", "k": k, "sign": sign} for k, sign in ((1, 1), (2, -1)))
    doc = {
        "from": "v1",
        "to": "v1",
        "half_length_numerator": 2,
        "weak": True,
        "counts": {"total": 4, "positive": 2, "negative": 2, "signed_net": 0},
        "walks": [
            {"anchors": ["v1", "e1", "v1"], "incidences": [first, second], "sign": sign}
            for first, second, sign in ((k1, k1, -1), (k1, k2, 1), (k2, k1, 1), (k2, k2, -1))
        ],
    }
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


class _CountingSink:
    size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


def test_walks_holds_its_answer_once(instance_file):
    # Weak walks on the two-vertex edge: 2048 walks, 5.86 MB of JSON.  One
    # record per incidence of the instance, and the text written as it is
    # encoded, keep the peak below twice the output.
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["walks", instance_file, "--from", "v1", "--to", "v1", "--n", "24",
                         "--weak"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == 5_857_479
    assert peak < 2 * sink.size


def test_walks_parity_error(instance_file, capsys):
    assert main(["walks", instance_file, "--from", "v1", "--to", "v2", "--n", "3"]) == 2
    assert "even" in capsys.readouterr().err


def test_walk_matrix(instance_file, capsys):
    assert main(["walk-matrix", instance_file, "--rows", "V", "--cols", "V", "--n", "2"]) == 0
    assert capsys.readouterr().out == ",v1,v2\nv1,0,-1\nv2,-1,0\n"


def test_weak_walk_matrix(instance_file, capsys):
    args = ["walk-matrix", instance_file, "--rows", "V", "--cols", "V", "--n", "2", "--weak"]
    assert main(args) == 0
    assert capsys.readouterr().out == ",v1,v2\nv1,-1,-1\nv2,-1,-1\n"


def test_linegraph(tmp_path, capsys):
    path = tmp_path / "p3.json"
    path.write_text(serialize_instance(path3()))
    assert main(["linegraph", str(path)]) == 0
    lam = parse_instance(capsys.readouterr().out)
    assert lam.vertices == ("e1", "e2")
    assert len(lam.edges) == 1


def test_linegraph_rejects_non_two_incidence_input(tmp_path, capsys):
    from helpers import uniform3_edge

    path = tmp_path / "u3.json"
    path.write_text(serialize_instance(uniform3_edge()))
    assert main(["linegraph", str(path)]) == 2
    assert "size 3" in capsys.readouterr().err


def test_random_is_deterministic(capsys):
    args = ["random", "--seed", "5", "--vertices", "4", "--edges", "3", "--max-edge-size", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    parse_instance(first)


def test_random_bidirected(capsys):
    args = ["random", "--seed", "5", "--vertices", "4", "--edges", "3", "--bidirected"]
    assert main(args) == 0
    g = parse_instance(capsys.readouterr().out)
    assert all(g.edge_size(e) == 2 for e in g.edges)


def test_random_bidirected_refuses_non_simple(capsys):
    # Bidirected instances never repeat a pair, so the two flags conflict.
    with pytest.raises(SystemExit) as exc:
        main(["random", "--seed", "5", "--vertices", "4", "--edges", "3",
              "--bidirected", "--non-simple"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    (["--bidirected", "--max-edge-size", "2"],
     "argument --max-edge-size: not allowed with argument --bidirected"),
    (["--bidirected", "--min-edge-size", "2"],
     "argument --min-edge-size: not allowed with argument --bidirected"),
    (["--bidirected", "--non-simple-rate", "0.9"],
     "argument --non-simple-rate: not allowed with argument --bidirected"),
    (["--non-simple-rate", "0.9"], "argument --non-simple-rate: requires --non-simple"),
])
def test_random_refuses_options_that_do_not_apply(capsys, extra, message):
    with pytest.raises(SystemExit) as exc:
        main(["random", "--seed", "5", "--vertices", "4", "--edges", "3", *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(f"ohmatrix random: error: {message}")


def test_random_defaults_apply_where_options_are_absent(capsys):
    base = ["random", "--seed", "5", "--vertices", "6", "--edges", "4", "--non-simple"]
    assert main(base) == 0
    defaulted = capsys.readouterr().out
    assert main([*base, "--max-edge-size", "3", "--min-edge-size", "1",
                 "--non-simple-rate", "0.3"]) == 0
    assert capsys.readouterr().out == defaulted == serialize_instance(
        random_instance(5, 6, 4, 3, simple=False, non_simple_rate=0.3, min_edge_size=1)
    )


def test_random_infeasible_is_input_error(capsys):
    args = ["random", "--seed", "1", "--vertices", "2", "--edges", "1", "--max-edge-size", "5"]
    assert main(args) == 2
    assert "simple" in capsys.readouterr().err


@pytest.mark.parametrize("vertices", [1, 2])
def test_random_default_edge_size_fits_fewer_than_three_vertices(vertices, capsys):
    assert main(["random", "--seed", "1", "--vertices", str(vertices), "--edges", "1"]) == 0
    g = parse_instance(capsys.readouterr().out)
    assert len(g.vertices) == vertices and len(g.edges) == 1 and is_simple(g)


@pytest.mark.parametrize("extra", [[], ["--non-simple"]])
def test_random_default_max_edge_size_is_at_least_the_given_minimum(extra, capsys):
    args = ["random", "--seed", "1", "--vertices", "5", "--edges", "1", "--min-edge-size", "4"]
    assert main([*args, *extra]) == 0
    g = parse_instance(capsys.readouterr().out)
    assert [g.edge_size(e) for e in g.edges] == [4]


@pytest.mark.parametrize("extra", [[], ["--min-edge-size", "2"]])
def test_random_edges_on_zero_vertices_keep_their_error(extra, capsys):
    assert main(["random", "--seed", "1", "--vertices", "0", "--edges", "1", *extra]) == 2
    assert capsys.readouterr().err == "error: cannot place edges on zero vertices\n"


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


@pytest.mark.parametrize("simple", [True, False], ids=["simple", "non-simple"])
@pytest.mark.parametrize("min_size", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("vertices", range(6))
@pytest.mark.parametrize("edges", range(3))
def test_random_absent_max_edge_size_is_the_generator_rule(capsys, edges, vertices, min_size,
                                                           simple):
    # random forwards no maximum of its own; random_instance's rule sets it.
    argv = ["random", "--seed", "3", "--vertices", str(vertices), "--edges", str(edges)]
    argv += [] if simple else ["--non-simple"]
    argv += [] if min_size is None else ["--min-edge-size", str(min_size)]
    rule = max(min_size or 1, min(3, vertices) if simple else 3)
    assert _outcome(capsys, argv) == _outcome(capsys, [*argv, "--max-edge-size", str(rule)])


def test_verify_instance(instance_file, capsys):
    assert main(["verify", instance_file]) == 0
    assert "0 failed" in capsys.readouterr().out


_FAMILY_FLAGS = ["--trials", "--max-vertices", "--max-edges", "--max-edge-size"]


@pytest.mark.parametrize("flag", _FAMILY_FLAGS)
def test_verify_instance_refuses_family_only_flags(instance_file, capsys, flag):
    # Given after the family-only flags that follow it in field order, the
    # flag is still the one named.
    later = _FAMILY_FLAGS[_FAMILY_FLAGS.index(flag) + 1:]
    flags = [arg for name in (*reversed(later), flag) for arg in (name, "2")]
    with pytest.raises(SystemExit) as exc:
        main(["verify", instance_file, *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(
        f"ohmatrix verify: error: argument {flag}: not allowed with an instance"
    )
    # A seeded family reads them.
    assert main(["verify", *flags]) == 0


def test_verify_family(capsys):
    assert main(["verify", "--seed", "2", "--trials", "3"]) == 0
    assert "0 failed" in capsys.readouterr().out


def test_verify_resource_ceiling_exits_nonzero(tmp_path, capsys):
    from helpers import uniform3_edge

    path = tmp_path / "u3.json"
    path.write_text(serialize_instance(uniform3_edge()))
    assert main(["verify", str(path), "--max-walks", "2"]) == 1
    assert "INCOMPLETE" in capsys.readouterr().out


def test_verify_negative_counts_exit_2(instance_file, capsys):
    args = ["verify", instance_file, "--max-walk-incidences", "-4", "--switching-trials", "-3"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("error: max_walk_incidences")


@pytest.mark.parametrize("args, message", [
    (["walks", "--from", "v1", "--to", "v2", "--n", "2", "--max-walks", "-1"],
     "max_walks must be at least 1, got -1"),
    (["verify", "--max-walks", "0"], "max_walks must be at least 1, got 0"),
])
def test_ceilings_below_their_least_value_exit_2(instance_file, capsys, args, message):
    assert main([args[0], instance_file, *args[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_closed_stdout_ends_quietly(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(serialize_instance(random_instance(1, 6, 8, 3, simple=True)))
    argv = ["walks", str(path), "--from", "v1", "--to", "v2", "--n", "8"]
    assert main(argv) == 0
    # More than the 64 KiB pipe buffer, so the writer is still writing
    # when the reader goes away.
    assert len(capsys.readouterr().out) > 4 * 65536
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "ohmatrix.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_verify_seed3_matches_the_captured_run(capsys):
    # The same run the benchmark's failure counting is tested on: any change
    # to a check's result, or to the INCOMPLETE note of trial 5, shows here.
    captured = ROOT / "perfbench" / "testdata" / "verify_seed3_trials100.txt"
    assert main(["verify", "--seed", "3", "--trials", "100"]) == 1
    assert capsys.readouterr().out == captured.read_text(encoding="utf-8")


def test_verify_zero_trials_exits_0(capsys):
    assert main(["verify", "--seed", "0", "--trials", "0"]) == 0
    assert capsys.readouterr().out == "0 checks: 0 passed, 0 failed\n"


@pytest.mark.parametrize(
    "args",
    [
        ["walk-matrix", "--rows", "V", "--cols", "V", "--n", "2000"],
        ["walks", "--from", "v1", "--to", "v2", "--n", "2000"],
        ["verify", "--max-walk-incidences", "3000"],
    ],
)
def test_deep_requests_succeed_or_exit_2(instance_file, capsys, args):
    # walk-matrix has no search to bound; a search deeper than the cap is
    # refused up front, naming the incidence count or the option's field.
    field = {"walk-matrix": None, "walks": "incidence count", "verify": "max_walk_incidences"}
    code = main([args[0], instance_file, *args[1:]])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if field[args[0]] is None:
        # A^2 = I on the two-vertex edge, so every even power is the identity.
        assert (code, out, err) == (0, ",v1,v2\nv1,1,0\nv2,0,1\n", "")
    else:
        assert code == 2
        assert err.startswith(f"error: {field[args[0]]} must be at most 500, got ")


def test_walks_beyond_twelve_incidences(tmp_path, capsys):
    # The search is bounded by --max-walks alone: no incidence ceiling below
    # the cap of 500 refuses this request, which yields only 8 walks.
    path = tmp_path / "p3.json"
    path.write_text(serialize_instance(path3()))
    assert main(["walks", str(path), "--from", "v1", "--to", "v2", "--n", "14"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == {"total": 8, "positive": 8, "negative": 0, "signed_net": 8}


def test_walk_matrix_takes_no_ceiling_flags(instance_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["walk-matrix", instance_file, "--rows", "V", "--cols", "V", "--n", "2",
              "--max-walks", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-walks" in capsys.readouterr().err


@pytest.mark.parametrize("flag, field", [("--max-vertices", "max_vertices"),
                                         ("--max-edge-size", "max_edge_size")])
def test_verify_zero_size_caps_exit_2(capsys, flag, field):
    assert main(["verify", "--trials", "3", flag, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must be at least 1, got 0")


def test_flag_defaults_are_the_library_defaults(monkeypatch, capsys):
    # An absent flag is absent on the namespace too, so the library's own
    # defaults apply.
    args = build_parser().parse_args(["verify"])
    assert [f.name for f in fields(VerifyOptions) if hasattr(args, f.name)] == []
    calls = []
    monkeypatch.setattr(ohmatrix.verify, "run_verify_suite",
                        lambda *a, **kwargs: calls.append(kwargs) or VerificationReport(()))
    assert main(["verify"]) == 0
    assert calls == [{"seed": 0, "options": VerifyOptions()}]
    # verify's options are --seed and one flag per VerifyOptions field, in
    # field order.  The CLI names them itself, so that building the parser
    # does not load the verify suite; its help is the one the fields give.
    monkeypatch.setenv("COLUMNS", "80")
    reference = argparse.ArgumentParser(prog="ohmatrix verify")
    reference.add_argument("instance", nargs="?", default=None,
                           help="optional instance file; otherwise a seeded random family")
    reference.add_argument("--seed", type=int, default=0)
    for f in fields(VerifyOptions):
        reference.add_argument("--" + f.name.replace("_", "-"), type=int,
                               default=argparse.SUPPRESS,
                               help=cli._MAX_WALKS_HELP % {"default": f.default}
                               if f.name == "max_walks" else None)
    verify = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices["verify"]
    assert verify.format_help() == reference.format_help()
    args = build_parser().parse_args(["walks", "g.json", "--from", "v1", "--to", "v2", "--n", "2"])
    assert args.max_walks == DEFAULT_MAX_WALKS
    calls = []
    monkeypatch.setattr(cli, "random_instance",
                        lambda *a, **kwargs: calls.append(kwargs) or random_instance(*a, **kwargs))
    assert main(["random", "--seed", "1", "--vertices", "3", "--edges", "1"]) == 0
    assert calls == [{"simple": True}]


# Run in a fresh interpreter: prints the help texts, then which of the
# modules that only linegraph and verify need each command has loaded.
_IMPORT_SCOPE = """
import argparse, contextlib, io, json, sys
from ohmatrix.cli import build_parser, main
parser = build_parser()
helps = [parser.format_help()] + [
    sub.format_help() for action in parser._actions
    if isinstance(action, argparse._SubParsersAction) for sub in action.choices.values()
]
print(json.dumps(helps))
path = sys.argv[1]
for argv in (["walk-matrix", path, "--rows", "V", "--cols", "E", "--n", "3"],
             ["validate", path], ["matrix", "laplacian", path], ["linegraph", path],
             ["verify", path, "--switching-trials", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    print(argv[0], sorted(m for m in ("ohmatrix.signed", "ohmatrix.verify") if m in sys.modules))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path, monkeypatch):
    path = tmp_path / "g.json"
    path.write_text(serialize_instance(path3()))
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCOPE, str(path)], env=env,
                          capture_output=True, text=True, check=True)
    helps, *loaded = proc.stdout.splitlines()
    assert loaded == [
        "walk-matrix []", "validate []", "matrix []",
        "linegraph ['ohmatrix.signed']",
        "verify ['ohmatrix.signed', 'ohmatrix.verify']",
    ]
    # Help reads the same before the verify suite is loaded as after.
    parser = build_parser()
    assert json.loads(helps) == [parser.format_help()] + [
        sub.format_help()
        for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        for sub in action.choices.values()
    ]


def test_the_package_exports_each_name_once():
    assert len(ohmatrix.__all__) == len(set(ohmatrix.__all__)) == 45
    assert set(ohmatrix.__all__) == {
        "Incidence", "OrientedHypergraph", "SwitchingFunction", "incidence_dual",
        "is_k_uniform", "is_simple", "switch", "validate",
        "LabeledIntegerMatrix", "adjacency_matrix", "degree_matrix", "dual_laplacian",
        "incidence_matrix", "laplacian", "switching_matrix",
        "DEFAULT_MAX_WALKS", "EnumerationLimitError", "Walk", "WalkCounts", "backstep_count",
        "enumerate_walks", "oracle_walk_counts", "oracle_walk_matrix", "walk_counts",
        "walk_matrix", "walk_sign",
        "OrientedSignedGraph", "from_hypergraph", "line_graph", "to_hypergraph",
        "underlying_is_simple",
        "FORMAT_VERSION", "InstanceFormatError", "parse_instance", "parse_switching",
        "random_bidirected_instance", "random_instance", "serialize_instance",
        "serialize_matrix",
        "CheckResult", "VerificationReport", "VerifyOptions", "format_report",
        "run_verify_suite", "__version__",
    }
    for name in ohmatrix.__all__:
        assert getattr(ohmatrix, name) is not None
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        ohmatrix.nonexistent


def test_no_help_shows_a_suppressed_default():
    parser = build_parser()
    helps = [parser.format_help()] + [
        sub.format_help()
        for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        for sub in action.choices.values()
    ]
    assert len(helps) == 10
    assert not [h for h in helps if "==SUPPRESS==" in h]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "nonsense-kind", "-"])
    assert exc.value.code == 2


def test_a_second_double_dash_is_the_instance_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "--").write_text(serialize_instance(two_vertex_edge()))
    assert main(["matrix", "degree", "--", "--"]) == 0
    assert capsys.readouterr().out == ",v1,v2\nv1,1,0\nv2,0,1\n"


def test_stdin_instance(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_instance(two_vertex_edge())))
    assert main(["matrix", "degree", "-"]) == 0
    assert capsys.readouterr().out == ",v1,v2\nv1,1,0\nv2,0,1\n"


# FILE stands for the path of the mutated instance.
_MUTATED_COMMANDS = (
    ["validate", "FILE"],
    ["matrix", "adjacency", "FILE"],
    ["dual", "FILE"],
    ["walk-matrix", "FILE", "--rows", "V", "--cols", "V", "--n", "2"],
    ["walks", "FILE", "--from", "v1", "--to", "v1", "--n", "2"],
    ["linegraph", "FILE"],
    ["verify", "FILE", "--switching-trials", "2"],
)

# Each edit replaces, inserts or deletes a few bytes at some position; JSON
# tokens among the bytes keep some mutants parseable, so they reach the
# commands and not only the parser.
_byte_edits = st.lists(
    st.tuples(
        st.sampled_from(("replace", "insert", "delete")),
        st.integers(0, 10**6),
        st.binary(min_size=1, max_size=3) | st.sampled_from(
            (b"0", b"1", b"2", b"-", b"v", b"e", b"1.0", b"true", b"null", b'"', b"[]")
        ),
    ),
    min_size=1, max_size=2,
)


# A small valid instance file, compact so that fewer edits land on whitespace.
_MUTATED_BASE = json.dumps(json.loads(serialize_instance(path3())), separators=(",", ":"))


@settings(max_examples=60)
@given(_byte_edits)
def test_mutated_instance_files_keep_the_exit_code_contract(edits):
    # Every command exits 0, 1 or 2 on any bytes, and none lets an
    # exception escape: in process, an escaping exception fails this test.
    data = bytearray(_MUTATED_BASE.encode())
    for op, pos, chunk in edits:
        pos %= len(data) + 1
        if op == "insert":
            data[pos:pos] = chunk
        else:
            data[pos:pos + len(chunk)] = chunk if op == "replace" else b""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_bytes(bytes(data))
        for command in _MUTATED_COMMANDS:
            argv = [str(path) if arg == "FILE" else arg for arg in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, bytes(data))
            assert "Traceback" not in err.getvalue(), (argv, bytes(data))


@pytest.fixture(scope="module")
def path3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "p3.json"
    path.write_text(serialize_instance(path3()))
    return str(path)


def _values(action):
    # What the argument reads: one of its choices, a small int (which keeps
    # every request quick), a rate, or a label or the file of path3.
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(-2, 5).map(str)
    if action.type is float:
        return st.sampled_from(("0", "0.5", "1"))
    if action.option_strings:
        return st.sampled_from(("v1", "v3", "e2", "FILE"))
    return st.just("FILE")


# Per subcommand: its positional arguments and its options but help.
_SUBCOMMANDS = {
    name: (
        [action for action in parser._actions if not action.option_strings],
        [action for action in parser._actions
         if action.option_strings and not isinstance(action, argparse._HelpAction)],
    )
    for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
    for name, parser in action.choices.items()
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    positionals, options = _SUBCOMMANDS[command]
    argv = [command, *(draw(_values(action)) for action in positionals)]
    for action in options:
        if action.required or draw(st.booleans()):
            argv.append(action.option_strings[-1])
            if action.nargs != 0:
                argv.append(draw(_values(action)))
    # At most one odd float or stray word, in place of an argument or added.
    if draw(st.booleans()):
        i = draw(st.integers(1, len(argv)))
        argv[i:i + draw(st.integers(0, 1))] = [draw(st.sampled_from(
            ("0.5", "-0.0", "1e3", "nan", "inf", "1_0", "x", "--", "FILE")
        ))]
    return argv


@settings(max_examples=150)
@given(_argvs())
def test_option_values_keep_the_exit_code_contract(path3_file, argv):
    # Any mix of a subcommand's options and values exits 0, 1 or 2 (argparse
    # exits by SystemExit) with no traceback.
    argv = [path3_file if arg == "FILE" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv

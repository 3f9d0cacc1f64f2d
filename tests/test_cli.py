import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohmatrix import (
    DEFAULT_MAX_WALKS,
    VerifyOptions,
    parse_instance,
    random_instance,
    serialize_instance,
)
from ohmatrix.cli import build_parser, main

from helpers import path3, two_vertex_edge

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


def test_verify_instance(instance_file, capsys):
    assert main(["verify", instance_file, "--self-test"]) == 0
    out = capsys.readouterr().out
    assert "PASS harness_self_test" in out
    assert "0 failed" in out


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


def test_flag_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["verify"])
    assert VerifyOptions(**{f.name: getattr(args, f.name) for f in fields(VerifyOptions)}) == (
        VerifyOptions()
    )
    args = build_parser().parse_args(["walks", "g.json", "--from", "v1", "--to", "v2", "--n", "2"])
    assert args.max_walks == DEFAULT_MAX_WALKS


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "nonsense-kind", "-"])
    assert exc.value.code == 2


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

"""Family verification in the calling process: order, errors, interrupts, faults."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ohmatrix.core
import ohmatrix.matrices
import ohmatrix.signed
import ohmatrix.verify
import ohmatrix.walks
from ohmatrix import (
    Incidence,
    LabeledIntegerMatrix,
    OrientedHypergraph,
    VerifyOptions,
    format_report,
    run_verify_suite,
    serialize_instance,
)
from ohmatrix.cli import main
from ohmatrix.signed import OrientedSignedGraph

from helpers import path3, uniform3_edge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ohmatrix"


def _bump_first_entry(m):
    if not (m.row_labels and m.col_labels):
        return m
    rows = [list(row) for row in m.entries]
    rows[0][0] += 1
    return LabeledIntegerMatrix(m.row_labels, m.col_labels, rows)


def _corrupt_adjacency(monkeypatch):
    real = ohmatrix.matrices.adjacency_matrix

    def bumped(g):
        a = real(g)
        rows = [list(row) for row in a.entries]
        if len(rows) > 1:
            rows[0][1] += 1
        return LabeledIntegerMatrix(a.row_labels, a.col_labels, rows)

    for module in (ohmatrix.matrices, ohmatrix.verify):
        monkeypatch.setattr(module, "adjacency_matrix", bumped)


@pytest.mark.parametrize("max_walks, trials", [(None, [5]), (3000, [5, 10, 13, 66, 75])],
                         ids=["default", "max_walks_3000"])
def test_incomplete_notes_come_in_trial_order(max_walks, trials):
    options = VerifyOptions() if max_walks is None else VerifyOptions(max_walks=max_walks)
    report = run_verify_suite(seed=3, options=options)
    assert [int(note.split(":")[0].split()[1]) for note in report.notes] == trials


def test_a_corrupted_adjacency_fails_switching_conjugation(monkeypatch):
    _corrupt_adjacency(monkeypatch)
    text = format_report(run_verify_suite(seed=17))
    assert "FAIL switching_conjugation [trial=" in text
    assert "A after switching differs from conjugated A at" in text


def _fail_trial_8(monkeypatch, error):
    # Each trial builds one instance, so the ninth build is trial 8's.
    real = ohmatrix.verify.random_instance
    built = []

    def faulty(*args, **kwargs):
        built.append(1)
        if len(built) % 9 == 0:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(ohmatrix.verify, "random_instance", faulty)


def test_an_error_in_a_trial_keeps_its_type(monkeypatch):
    # The error itself leaves the run, not a subclass or a wrapper.
    _fail_trial_8(monkeypatch, LookupError("no instance for trial 8"))
    with pytest.raises(LookupError, match=r"^no instance for trial 8$") as raised:
        run_verify_suite(seed=0, options=VerifyOptions(trials=9))
    assert type(raised.value) is LookupError


def test_an_error_in_a_trial_is_raised_by_the_caller(monkeypatch, capsys):
    _fail_trial_8(monkeypatch, ValueError("no instance for trial 8"))
    with pytest.raises(ValueError, match=r"^no instance for trial 8$"):
        run_verify_suite(seed=0, options=VerifyOptions(trials=9))
    assert main(["verify", "--seed", "0", "--trials", "9"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no instance for trial 8\n")


def test_an_interrupt_ends_a_family_run_at_once():
    # The 20,000 trials would take far longer than the bound.
    script = textwrap.dedent("""
        import signal
        import time
        from ohmatrix import VerifyOptions, run_verify_suite

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        started = time.monotonic()
        try:
            run_verify_suite(seed=0, options=VerifyOptions(trials=20000))
        except KeyboardInterrupt:
            print("interrupted", time.monotonic() - started < 10)
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "interrupted True\n", "")


def _flip_last_sign(g):
    if not g.incidences:
        return g
    *rest, last = g.incidences
    flipped = Incidence(last.vertex, last.edge, last.mult_index, -last.sign)
    return OrientedHypergraph(g.vertices, g.edges, (*rest, flipped))


def _flip_first_orientation(s):
    if not s.orientation:
        return s
    key = next(iter(s.orientation))
    return OrientedSignedGraph(s.vertices, s.edges, s.endpoints,
                               {**s.orientation, key: -s.orientation[key]})


# Each fault patches every binding of one function that verify reaches.  A
# fault that no check catches would stay here as a known miss, with its
# reason; today there is none.
FAULTS = {
    "_pair_steps": ((ohmatrix.matrices, ohmatrix.walks), _bump_first_entry),
    "_one_steps": ((ohmatrix.matrices, ohmatrix.walks), _bump_first_entry),
    "_signed": ((ohmatrix.matrices, ohmatrix.verify), _bump_first_entry),
    "dual_laplacian": ((ohmatrix.matrices, ohmatrix.verify), _bump_first_entry),
    "transpose": ((LabeledIntegerMatrix,), _bump_first_entry),
    "__matmul__": ((LabeledIntegerMatrix,), _bump_first_entry),
    "incidence_dual": ((ohmatrix.core, ohmatrix.verify), _flip_last_sign),
    "switch": ((ohmatrix.core, ohmatrix.verify), _flip_last_sign),
    "line_graph": ((ohmatrix.signed, ohmatrix.verify), _flip_first_orientation),
}


@pytest.mark.parametrize("name", FAULTS)
def test_every_fault_fails_a_trial_of_seed_8(monkeypatch, name):
    owners, corrupt = FAULTS[name]
    real = getattr(owners[0], name)

    def faulty(*args, **kwargs):
        return corrupt(real(*args, **kwargs))

    for owner in owners:
        monkeypatch.setattr(owner, name, faulty)
    assert run_verify_suite(seed=8).failures


def test_importing_the_cli_loads_no_pickle():
    # No module imports pickle, signal or threading, so start-up pays
    # nothing for them.  -S: some installs' site hooks load threading
    # themselves.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys, ohmatrix.cli; "
            "print(sorted({'pickle', 'signal', 'threading'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"


def test_no_command_loads_dataclasses(tmp_path):
    # Every value class, the four in verify.py and signed.py included, is a
    # plain slotted class on core._Value, and annotation names come from
    # collections.abc, so no command loads dataclasses, or inspect and
    # typing with it.  Family verify runs in process, so no command loads
    # pickle or signal either.  -S: some installs' site hooks load typing
    # themselves.
    path, theta = tmp_path / "g.json", tmp_path / "theta.json"
    path.write_text(serialize_instance(path3()))
    theta.write_text('{"v1": 1, "v2": -1, "v3": 1}')
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = textwrap.dedent("""
        import sys
        from ohmatrix.cli import main
        g, theta = sys.argv[1:]
        for argv in (["verify", "--trials", "2"], ["verify", g], ["linegraph", g],
                     ["walks", g, "--from", "v1", "--to", "v3", "--n", "4"], ["dual", g],
                     ["switch", g, "--theta", theta], ["matrix", "laplacian", g],
                     ["random", "--seed", "1", "--vertices", "3", "--edges", "2"],
                     ["validate", g], ["walk-matrix", g, "--rows", "V", "--cols", "V", "--n", "4"]):
            assert main(argv) == 0, argv
        print(sorted({"dataclasses", "inspect", "typing", "pickle", "signal"}
                     & set(sys.modules)))
    """)
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(path), str(theta)], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_a_single_instance_cut_short_has_one_note(tmp_path, capsys):
    note = "single instance: walk enumeration exceeded the ceiling of 2 walks"
    report = run_verify_suite(uniform3_edge(), options=VerifyOptions(max_walks=2))
    assert report.notes == (note,)
    assert report.results == ()
    assert not report.passed()
    path = tmp_path / "uniform3.json"
    path.write_text(serialize_instance(uniform3_edge()), encoding="utf-8")
    assert main(["verify", str(path), "--max-walks", "2"]) == 1
    assert capsys.readouterr().out == (
        "0 checks: 0 passed, 0 failed\n"
        "INCOMPLETE: a resource ceiling cut some checks short\n"
        f"  {note}\n"
    )


def test_no_module_forks_kills_or_waits():
    # Family verify runs its trials in the calling process, so no module
    # starts, signals or reaps a child.
    names = {"fork", "forkpty", "kill", "killpg", "wait", "wait3", "wait4", "waitid",
             "waitpid"}
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                name = (getattr(node, "attr", None) or getattr(node, "id", None)
                        or getattr(node, "name", None))
                if name in names:
                    sites.append((path.name, getattr(top, "name", None), name))
    assert sites == []


def test_notes_are_made_and_the_report_sorted_in_one_place():
    # A trial cut short becomes a note at one except clause, and only
    # run_verify_suite sorts: notes stay in trial order, results are sorted.
    catches, sorts = [], []
    for top in ast.parse((SRC / "verify.py").read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {getattr(n, "attr", None) or getattr(n, "id", None)
                          for n in ast.walk(node.type)}
                if "EnumerationLimitError" in caught:
                    catches.append(getattr(top, "name", None))
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                if name in ("sort", "sorted"):
                    sorts.append(getattr(top, "name", None))
    assert len(catches) == 1
    assert set(sorts) == {"run_verify_suite"}

"""Family verification split into forked parts, one per usable CPU.

Every test here asks for at most 3 parts, whatever the machine has.
"""

import ast
import errno
import os
import signal
import subprocess
import sys
import textwrap
import threading
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


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _count_forks(monkeypatch):
    forks = []
    real = os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return forks


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


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed, max_walks, corrupt", [
    (0, None, False), (3, None, False), (3, 3000, False), (17, None, False), (17, None, True),
], ids=["seed0", "seed3", "seed3_notes_in_every_part", "seed17", "seed17_corrupted_adjacency"])
def test_the_report_does_not_depend_on_the_part_count(monkeypatch, seed, max_walks, corrupt):
    options = VerifyOptions() if max_walks is None else VerifyOptions(max_walks=max_walks)
    if corrupt:
        _corrupt_adjacency(monkeypatch)
    forks = _count_forks(monkeypatch)
    texts = []
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        forks.clear()
        report = run_verify_suite(seed=seed, options=options)
        assert len(forks) == cpus - 1
        texts.append(format_report(report))
    assert texts[0] == texts[1] == texts[2]
    if seed == 3:
        # The INCOMPLETE notes name their trials in order, from every part.
        trials = [int(note.split(":")[0].split()[1]) for note in report.notes]
        assert trials == ([5] if max_walks is None else [5, 10, 13, 66, 75])
    if corrupt:
        assert "FAIL switching_conjugation [trial=" in texts[0]
        assert "A after switching differs from conjugated A at" in texts[0]
    _no_child_left()


def _fault_on_trial(monkeypatch, seed, options, trial, fault):
    """Make the instance builder call ``fault`` on one family trial, in a child only."""
    real = ohmatrix.verify.random_instance
    built = []
    monkeypatch.setattr(ohmatrix.verify, "random_instance",
                        lambda *args, **kwargs: built.append(real(*args, **kwargs)) or built[-1])
    _use_cpus(monkeypatch, 1)
    run_verify_suite(seed=seed, options=options)
    target = built[trial]
    assert built.count(target) == 1
    caller = os.getpid()

    def faulty(*args, **kwargs):
        g = real(*args, **kwargs)
        if g == target and os.getpid() != caller:
            fault()
        return g

    monkeypatch.setattr(ohmatrix.verify, "random_instance", faulty)


NINE = VerifyOptions(trials=9, switching_trials=3)


def test_an_error_in_the_last_part_is_raised_by_the_caller(monkeypatch, capsys):
    def fault():
        raise ValueError("no instance for trial 8")

    _fault_on_trial(monkeypatch, 0, NINE, 8, fault)
    _use_cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match=r"^no instance for trial 8$"):
        run_verify_suite(seed=0, options=NINE)
    _no_child_left()
    assert main(["verify", "--seed", "0", "--trials", "9", "--switching-trials", "3"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no instance for trial 8\n")
    _no_child_left()


def test_an_error_in_a_part_keeps_its_type(monkeypatch):
    # A part sends back its exception itself, not a subclass or a wrapper.
    def fault():
        raise LookupError("no instance for trial 8")

    _fault_on_trial(monkeypatch, 0, NINE, 8, fault)
    _use_cpus(monkeypatch, 3)
    with pytest.raises(LookupError, match=r"^no instance for trial 8$") as raised:
        run_verify_suite(seed=0, options=NINE)
    assert type(raised.value) is LookupError
    _no_child_left()


def test_a_part_that_dies_without_its_results_is_an_error(monkeypatch, capsys):
    _fault_on_trial(monkeypatch, 0, NINE, 7, lambda: os._exit(3))
    _use_cpus(monkeypatch, 3)
    message = ("the verify part of trials from 1 in steps of 3 ended with exit status 3"
               " before sending its results")
    with pytest.raises(ChildProcessError, match=f"^{message}$"):
        run_verify_suite(seed=0, options=NINE)
    _no_child_left()
    assert main(["verify", "--seed", "0", "--trials", "9", "--switching-trials", "3"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    _no_child_left()


def _run_script(body: str) -> subprocess.CompletedProcess:
    script = textwrap.dedent("""
        import os
        import ohmatrix.verify as verify
        from ohmatrix import LabeledIntegerMatrix, VerifyOptions, run_verify_suite

        os.sched_getaffinity = lambda pid: {0, 1}
    """) + textwrap.dedent(body)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)


@pytest.mark.parametrize("child", ["blocked_on_a_full_pipe", "still_running"])
def test_the_caller_failing_kills_and_reaps_its_child(child):
    # A blocked child's FAIL texts carry 1 MiB each, far more than a pipe
    # buffer holds; a running child would go on for ten minutes.  Either
    # way the caller's own part raises, and the run must end at once.
    proc = _run_script(f"""
        import time

        caller = os.getpid()
        real = verify.laplacian

        def laplacian(g):
            if os.getpid() == caller:
                time.sleep(1)
                raise ValueError("the caller's part failed")
            if {child == "still_running"}:
                time.sleep(600)
            lap = real(g)
            rows = [list(row) for row in lap.entries]
            rows[0][0] += 1
            return LabeledIntegerMatrix(lap.row_labels, lap.col_labels, rows)

        verify.laplacian = laplacian
        verify.serialize_instance = lambda g: "x" * (1 << 20)
        started = time.monotonic()
        try:
            run_verify_suite(seed=0, options=VerifyOptions(trials=4, switching_trials=0))
        except ValueError as exc:
            print(exc, time.monotonic() - started < 30)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
    """)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "the caller's part failed True\nno child left\n", ""
    )


def test_an_interrupt_leaves_no_child():
    # The timer is the caller's own: a forked child inherits none.
    proc = _run_script("""
        import signal

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        try:
            run_verify_suite(seed=0, options=VerifyOptions(trials=2000))
        except KeyboardInterrupt:
            print("interrupted")
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
    """)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "interrupted\nno child left\n", "")


@pytest.mark.parametrize("side", ["caller", "child"])
def test_an_interrupt_as_a_child_is_forked_leaves_no_child(side):
    # The interrupt lands the moment fork returns, before the caller has
    # registered its child or the child is inside its guard; it must wait
    # until both are.
    proc = _run_script(f"""
        import signal

        signal.signal(signal.SIGINT, signal.default_int_handler)
        real = os.fork

        def fork():
            pid = real()
            if (pid == 0) == {side == "child"}:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        os.fork = fork
        try:
            run_verify_suite(seed=0, options=VerifyOptions(trials=6))
        except KeyboardInterrupt:
            print("interrupted")
        except ChildProcessError as exc:
            print(exc)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
    """)
    first = {
        "caller": "interrupted",
        "child": "the verify part of trials from 1 in steps of 2 ended with exit status 1"
                 " before sending its results",
    }[side]
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{first}\nno child left\n", "")


def test_a_child_never_returns_into_the_caller():
    # Text buffered before the run is written once, and the code after it
    # and a finally around it run once, as in the benchmark's runner.
    proc = _run_script("""
        print("before")
        try:
            report = run_verify_suite(seed=0, options=VerifyOptions(trials=6))
            print("after", len(report.results), report.passed())
        finally:
            print("finally")
    """)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "before\nafter 74 True\nfinally\n", ""
    )


@pytest.mark.parametrize(
    "case", ["instance", "one_trial", "one_cpu", "no_fork", "no_affinity", "threads"]
)
def test_one_part_runs_in_the_caller(monkeypatch, case):
    instance = path3() if case == "instance" else None
    options = VerifyOptions(trials=1 if case == "one_trial" else 6)
    expected = format_report(run_verify_suite(instance, seed=2, options=options))
    _use_cpus(monkeypatch, 1 if case == "one_cpu" else 3)
    forks = _count_forks(monkeypatch)
    if case == "no_fork":
        monkeypatch.delattr(os, "fork")
    if case == "no_affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "threads":
        thread.start()
    try:
        report = run_verify_suite(instance, seed=2, options=options)
    finally:
        stop.set()
        if case == "threads":
            thread.join()
    assert format_report(report) == expected
    assert forks == []


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
def test_a_fault_fails_trials_in_every_part(monkeypatch, name):
    # With seed 8 every fault above, line_graph's included, reaches both
    # even and odd trials, which two parts deal out between them: so the
    # forked part runs under the caller's patches.
    owners, corrupt = FAULTS[name]
    real = getattr(owners[0], name)

    def faulty(*args, **kwargs):
        return corrupt(real(*args, **kwargs))

    for owner in owners:
        monkeypatch.setattr(owner, name, faulty)
    _use_cpus(monkeypatch, 2)
    failed = {r.trial for r in run_verify_suite(seed=8).failures}
    assert {trial % 2 for trial in failed} == {0, 1}, failed


def test_importing_the_cli_loads_no_pickle():
    # Only a run that forks imports pickle and signal, and verify only looks
    # threading up, so start-up and every other command pay nothing for
    # them.  -S: some installs' site hooks load threading themselves.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys, ohmatrix.cli; "
            "print(sorted({'pickle', 'signal', 'threading'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"


def test_validate_and_walk_matrix_load_no_dataclasses(tmp_path):
    # The value classes are plain slotted classes and take their annotation
    # names from collections.abc, so only verify and linegraph, whose
    # dataclasses live in verify.py and signed.py, load dataclasses and
    # with it inspect.  -S: some installs' site hooks load typing themselves.
    path = tmp_path / "g.json"
    path.write_text(serialize_instance(path3()))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = textwrap.dedent("""
        import sys
        from ohmatrix.cli import main
        assert main(["validate", sys.argv[1]]) == 0
        assert main(["walk-matrix", sys.argv[1], "--rows", "V", "--cols", "V", "--n", "4"]) == 0
        print(sorted({"dataclasses", "inspect", "typing"} & set(sys.modules)))
    """)
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(path)], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_a_failed_fork_closes_its_pipe_and_reaps_the_forked_child(monkeypatch, capsys):
    # The second fork of every run fails, after the first child is running.
    refused = BlockingIOError(errno.EAGAIN, "fork refused")
    real = os.fork
    forks = []

    def fork():
        forks.append(1)
        if len(forks) % 2 == 0:
            raise refused
        return real()

    monkeypatch.setattr(os, "fork", fork)
    _use_cpus(monkeypatch, 3)
    # Where /proc/self/fd is absent every count reads 0.
    fds = Path("/proc/self/fd")
    counts = []
    for _ in range(5):
        with pytest.raises(BlockingIOError) as raised:
            run_verify_suite(seed=0, options=NINE)
        assert raised.value is refused
        _no_child_left()
        counts.append(len(list(fds.iterdir())) if fds.is_dir() else 0)
    assert counts == counts[:1] * 5
    assert main(["verify", "--seed", "0", "--trials", "9", "--switching-trials", "3"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {refused}\n")
    _no_child_left()


def test_the_callers_signal_mask_is_left_as_it_was_found(monkeypatch):
    def blocked():
        return signal.pthread_sigmask(signal.SIG_BLOCK, [])

    def part_fault():
        raise ValueError("no instance for trial 7")

    _fault_on_trial(monkeypatch, 0, NINE, 7, part_fault)
    _use_cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    found = signal.pthread_sigmask(signal.SIG_SETMASK, [signal.SIGUSR1])
    try:
        mask = blocked()
        assert mask == {signal.SIGUSR1}
        with pytest.raises(ValueError, match="^no instance for trial 7$"):
            run_verify_suite(seed=0, options=NINE)
        assert blocked() == mask
        caller = os.getpid()
        real = ohmatrix.verify.laplacian

        def laplacian(g):
            if os.getpid() == caller:
                raise ValueError("the caller's part failed")
            return real(g)

        with monkeypatch.context() as patch:
            patch.setattr(ohmatrix.verify, "laplacian", laplacian)
            with pytest.raises(ValueError, match="^the caller's part failed$"):
                run_verify_suite(seed=0, options=NINE)
        assert blocked() == mask
        assert run_verify_suite(seed=0, options=VerifyOptions(trials=6)).passed()
        assert blocked() == mask
        assert len(forks) == 6
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, found)
    _no_child_left()


def test_single_instance_incomplete_never_forks(monkeypatch, tmp_path, capsys):
    _use_cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
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
    assert forks == []


def test_children_are_forked_killed_and_reaped_in_one_place():
    # One fork site and one reap site, both in the parts driver, keep every
    # child owned from its fork until it is reaped.
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
    assert sorted(sites) == [("verify.py", "_check_parts", name)
                             for name in ("fork", "kill", "waitpid")]


def test_notes_are_made_and_the_report_sorted_in_one_place():
    # A trial cut short becomes a note at one except clause, and only
    # run_verify_suite sorts, so a part may return its rows in any order.
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


def test_an_interrupt_lands_while_the_parts_run():
    # Signals are held only while children are forked or reaped, so an
    # interrupt during the caller's own part ends the run at once: the
    # 20,000 trials would take far longer than the bound.
    proc = _run_script("""
        import signal
        import time

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
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "interrupted True\n", "")

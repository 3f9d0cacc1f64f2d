#!/usr/bin/env python3
"""Benchmark of the ohmatrix command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the CLI is run from the
checkout's ``src`` directory. With ``--trace 0`` one client runs the
workload's CLI command as a subprocess, one at a time (closed loop),
checks every output, and reports the end-to-end metrics. With
``--trace 1`` it calls ``ohmatrix.cli.main(argv)`` in this process
instead, alternating plain and traced calls, and reports the per-layer
metrics. A run makes a fixed number of calls, sized from ``--seconds`` and
the typical cost of one call, so the operations attempted and failed
depend only on the workload, the seed and ``--seconds``, never on how
fast the machine happens to be. Metric names and units come from
``BENCHMARK.json``. The last line of standard output is one JSON object
with the result; the lines before it say the same for a reader.
Generated instances, run records and spans go to ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import Outcome, check_walk_matrix, score_process, score_verify
from inputs import adjacency_power, balanced_instance, instance_properties, write_instance
from spans import Tracer, installed, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# The child writes its own peak RSS (VmHWM) to the file named by its first
# argument. ru_maxrss from wait4 would not do: Linux carries the parent's
# RSS at fork into the child's ru_maxrss across exec, so it would report
# the benchmark's own size whenever that is the larger.
RUNNER = """
import sys
from ohmatrix.cli import main
try:
    sys.exit(main(sys.argv[2:]))
finally:
    with open("/proc/self/status") as status, open(sys.argv[1], "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""

FAMILY_TRIALS = 100
# Invocation i of verify-family uses CLI seed `seed + i * stride`, so
# invocation 0 is exactly `ohmatrix verify --seed <seed>` and runs with
# nearby workload seeds share no family.
FAMILY_SEED_STRIDE = 100_003
# Set-up takes about 0.15 s and is noisy: one sample follows each workload
# call, and a run takes at least this many.
MIN_SETUP_SAMPLES = 15
SETUP_CALL_S = 0.16
WALK_N = 8


@dataclass
class Plan:
    """What one workload runs, and how each output is checked."""

    setup_argv: list[str]
    setup_stdout: str
    argv: Callable[[int], list[str]]
    check: Callable[[int, str], Outcome]
    properties: dict
    # Typical seconds of one workload call, and of one untraced plus one
    # traced in-process call, on a 2-vCPU Xeon VM: they size a run.
    call_s: float
    traced_pair_s: float

    def calls(self, seconds: float) -> int:
        """Workload calls in an untraced run, each followed by a set-up call."""
        return max(1, round(seconds / (self.call_s + SETUP_CALL_S)))

    def traced_pairs(self, seconds: float) -> int:
        return max(1, round(seconds / self.traced_pair_s))


def make_plan(workload: str, seed: int) -> Plan:
    if workload == "verify-family":
        return Plan(
            setup_argv=["verify", "--seed", str(seed), "--trials", "0"],
            setup_stdout="0 checks: 0 passed, 0 failed\n",
            argv=lambda i: [
                "verify", "--seed", str(seed + i * FAMILY_SEED_STRIDE), "--trials", str(FAMILY_TRIALS)
            ],
            check=lambda code, out: score_verify(out, code, FAMILY_TRIALS),
            properties={"trials_per_invocation": FAMILY_TRIALS},
            call_s=2.2,
            traced_pair_s=3.8,
        )
    if workload == "walk-matrix":
        doc = balanced_instance(seed, 200, 300, max_edge_size=4)
        path = WORK / f"{workload}-seed{seed}.instance.json"
        write_instance(doc, path)
        expected = adjacency_power(doc, WALK_N // 2)

        def check(code: int, out: str) -> Outcome:
            if code != 0:
                return Outcome(attempted=1, failed=1)
            problems = check_walk_matrix(out, doc["vertices"], expected)
            return Outcome(attempted=1, failed=int(bool(problems)), problems=problems)

        return Plan(
            setup_argv=["validate", str(path)],
            setup_stdout="OK\n",
            argv=lambda i: [
                "walk-matrix", str(path), "--rows", "V", "--cols", "V", "--n", str(WALK_N)
            ],
            check=check,
            properties=instance_properties(doc),
            call_s=0.8,
            traced_pair_s=1.2,
        )
    raise ValueError(f"unknown workload {workload!r}")


class Tally:
    """Operations attempted and failed, and the problems seen, over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.ok_instances = 0
        self.problems: list[str] = []
        self.sizes: list[tuple[int, int, int]] = []

    def add(self, plan: Plan, code: int, stdout: str, stderr: str) -> None:
        outcome = plan.check(code, stdout)
        process_problems = score_process(code, stderr)
        if process_problems:
            outcome.failed = outcome.attempted
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.ok_instances += outcome.attempted - outcome.failed
        self.problems += process_problems + outcome.problems
        self.sizes += outcome.sizes

    def check_setup(self, plan: Plan, code: int, stdout: str, stderr: str) -> None:
        if code != 0 or stdout != plan.setup_stdout:
            self.problems.append(f"set-up command printed {stdout[:80]!r} and exited {code}")
        self.problems += score_process(code, stderr)


def run_child(argv: list[str]) -> tuple[float, int, int, str, str]:
    """Run the CLI once; returns wall seconds, exit code, peak RSS in KiB
    (0 if the child reported none), standard output and standard error."""
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    peak_path = WORK / "peak_rss_kib.txt"
    peak_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", RUNNER, str(peak_path), *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env,
        )
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    peak = peak_path.read_text() if peak_path.is_file() else "0"
    return (
        wall,
        proc.returncode,
        int(peak or 0),
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def measure_cli(plan: Plan, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics over a closed loop of CLI subprocesses.

    Set-up calls are interleaved with the workload's calls, so that both
    sample the same stretches of machine time. ``wall_s`` is the median
    call: it is not moved by the few ``verify-family`` calls whose
    families cost twice the typical one, nor by short bursts of machine
    speed on a shared host.
    """

    def sample_setup() -> None:
        wall, code, _, out, err = run_child(plan.setup_argv)
        tally.check_setup(plan, code, out, err)
        setup.append(wall)

    run_child(plan.setup_argv)  # writes bytecode caches, so no timed call pays for it
    setup, walls, rss = [], [], []
    for i in range(plan.calls(seconds)):
        wall, code, rss_kib, out, err = run_child(plan.argv(i))
        walls.append(wall)
        rss.append(rss_kib / 1024)
        if not rss_kib:
            tally.problems.append("the CLI reported no peak RSS")
        tally.add(plan, code, out, err)
        sample_setup()
    while len(setup) < MIN_SETUP_SAMPLES:
        sample_setup()
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "instances_per_s": tally.ok_instances / len(walls) / wall,
    }
    samples = {"invocations": len(walls), "setup_samples": len(setup), "walls": walls}
    return metrics, samples


def _call_main(main, argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - started
    return wall, code, out.getvalue(), err.getvalue()


def measure_traced(
    plan: Plan, seconds: float, tally: Tally, time_units: set[str], spans_path: Path
) -> tuple[dict, dict]:
    """Per-layer metrics of ``cli.main`` on the workload's first invocation,
    alternating untraced and traced calls in this process."""
    from ohmatrix import cli

    argv = plan.argv(0)
    plain, traced, passes = [], [], []
    spans = None
    for _ in range(plan.traced_pairs(seconds)):
        wall, code, out, err = _call_main(cli.main, argv)
        plain.append(wall)
        tally.add(plan, code, out, err)
        tracer = Tracer()
        with installed(tracer):
            wall, code, out, err = _call_main(tracer.wrap("cli.main", cli.main), argv)
        traced.append(wall)
        tally.add(plan, code, out, err)
        passes.append(layer_metrics(tracer))
        if spans is None:
            spans = tracer.spans
    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name in time_units:
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                tally.problems.append(f"{name} differs between calls on one input: {values}")
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    _write_spans(spans, spans_path)
    return metrics, {"plain_calls": len(plain), "traced_calls": len(traced)}


def _write_spans(spans, path: Path) -> None:
    origin = spans[0][3] if spans else 0.0
    with open(path, "w", encoding="utf-8") as f:
        for sid, parent, name, start, end in spans:
            f.write(json.dumps({
                "id": sid, "parent": parent, "name": name,
                "start": start - origin, "end": end - origin,
            }) + "\n")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _family_properties(sizes: list[tuple[int, int, int]]) -> dict:
    if not sizes:
        return {}
    return {
        f"mean_{key}": statistics.fmean(s[i] for s in sizes)
        for i, key in enumerate(("vertices", "edges", "incidences"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the ohmatrix CLI.")
    parser.add_argument("--workload", required=True,
                        choices=("verify-family", "walk-matrix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Termination raises SystemExit, so run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ohmatrix" / "cli.py").is_file():
        print(f"error: no ohmatrix sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    plan = make_plan(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        time_units = {name for name, unit in units.items() if unit == "s"}
        spans_path = WORK / f"spans-{args.workload}.jsonl"
        values, samples = measure_traced(plan, args.seconds, tally, time_units, spans_path)
    else:
        values, samples = measure_cli(plan, args.seconds, tally)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: the benchmark computed no value for {missing}", file=sys.stderr)
        return 2

    properties = dict(plan.properties, **_family_properties(tally.sizes))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": properties,
        "environment": {
            "python": platform.python_version(),
            "commit": _git_commit(),
            "nproc": os.cpu_count(),
        },
        "samples": samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "problems": tally.problems[:20],
        "metrics": {name: values[name] for name in units},
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("inputs " + json.dumps(properties))
    counts = {k: v for k, v in samples.items() if not isinstance(v, list)}
    print("environment " + json.dumps(record["environment"]) + " samples " + json.dumps(counts))
    for name in units:
        print(f"{name:34} {values[name]:>14.6g} {units[name]}")
    print(f"{'error_rate':34} {record['error_rate']:>14.6g} failed/attempted "
          f"({tally.failed}/{tally.attempted})")
    for problem in tally.problems[:20]:
        print("problem: " + problem)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

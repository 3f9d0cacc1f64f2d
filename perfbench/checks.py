"""Output checks for each CLI invocation, run outside the timed region.

Each check returns an :class:`Outcome`: how many operations the
invocation attempted, how many failed, and the problems that make the
output wrong (as opposed to refused). A verify trial cut short by a
resource ceiling is a failed operation but not a wrong answer; a FAIL
line, a mismatching matrix or an unreadable report is a wrong answer.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field

_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+) \[([^\]]*)\]")
_TRIAL = re.compile(r"\btrial=(\d+)\b")
_SUMMARY = re.compile(r"^(\d+) checks: (\d+) passed, (\d+) failed$")
_NOTE = re.compile(r"^  trial (\d+): ")
_SIZES = re.compile(r"\|V\|=(\d+) \|E\|=(\d+) \|I\|=(\d+)")


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    sizes: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def check_walk_matrix(stdout: str, vertices: list[str], expected: list[list[int]]) -> list[str]:
    """Differences between a walk-matrix CSV and the expected V x V entries."""
    rows = list(csv.reader(stdout.splitlines()))
    if not rows or rows[0] != ["", *vertices]:
        return ["walk-matrix CSV header does not list the vertices in declared order"]
    if len(rows) != len(vertices) + 1:
        return [f"walk-matrix CSV has {len(rows) - 1} rows, expected {len(vertices)}"]
    problems = []
    for i, (label, row) in enumerate(zip(vertices, rows[1:])):
        if not row or row[0] != label or len(row) != len(vertices) + 1:
            problems.append(f"walk-matrix CSV row {i + 1} is malformed")
            continue
        for j, cell in enumerate(row[1:]):
            if cell != str(expected[i][j]):
                problems.append(
                    f"walk-matrix ({label}, {vertices[j]}) is {cell}, expected {expected[i][j]}"
                )
    return problems[:10]


def score_process(exit_code: int, stderr: str) -> list[str]:
    """Problems visible from how the process ended, whatever the command."""
    if "Traceback (most recent call last)" in stderr:
        return ["the CLI printed a traceback: " + stderr.strip().splitlines()[-1]]
    if exit_code not in (0, 1, 2):
        return [f"the CLI exited with code {exit_code}"]
    return []


def score_verify(stdout: str, exit_code: int, trials: int) -> Outcome:
    """Score a verify report of a family: one operation per trial.

    A trial fails when an INCOMPLETE note names it or a FAIL line carries
    it. Exit code 2 (a refused request) fails every operation. Otherwise
    the report must account for every trial, agree with its own summary
    line, and exit 1 exactly when something failed.
    """
    out = Outcome(attempted=trials)
    if exit_code == 2:
        out.failed = out.attempted
        return out
    checks = 0
    fail_lines = 0
    failed_trials: set[int] = set()
    seen_trials: set[int] = set()
    sizes: dict[int, tuple[int, int, int]] = {}
    summary = None
    incomplete = False
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line)
        if m and not incomplete:
            checks += 1
            t = _TRIAL.search(m.group(3))
            trial = int(t.group(1)) if t else -1
            seen_trials.add(trial)
            s = _SIZES.search(m.group(3))
            if s:
                sizes[trial] = tuple(int(x) for x in s.groups())
            if m.group(1) == "FAIL":
                fail_lines += 1
                failed_trials.add(trial)
                out.problems.append(f"identity check failed: {line}")
            continue
        m = _SUMMARY.match(line)
        if m:
            summary = tuple(int(x) for x in m.groups())
            continue
        if line.startswith("INCOMPLETE:"):
            incomplete = True
            continue
        m = _NOTE.match(line)
        if m and incomplete:
            trial = int(m.group(1))
            failed_trials.add(trial)
            seen_trials.add(trial)
    if summary != (checks, checks - fail_lines, fail_lines):
        out.problems.append(f"summary {summary} disagrees with {checks} check lines")
    missing = set(range(trials)) - seen_trials
    if missing:
        out.problems.append(f"the report does not account for trials {sorted(missing)[:5]}")
    out.failed = len(failed_trials & set(range(trials))) + len(missing)
    out.sizes = [sizes[t] for t in sorted(sizes)]
    if exit_code != (1 if failed_trials or incomplete else 0):
        out.problems.append(f"exit code {exit_code} does not match the report")
    return out

"""Per-check CPU ledger of family verify: where does a family's CPU go?

Usage: taskset -c 0 python tests/check_ledger.py

Runs the trials of the ten ``verify-family`` seeds ``i * 100003``
(i = 0..9, 100 trials each) in this process and one part, and reads
``time.process_time()`` at each yield of ``verify._identity_diffs``: the CPU
since the previous yield is charged to the check just yielded, so the first
check also carries the builders that every later check shares.  Building a
trial's instance is charged to ``(instance)``, and a trial that a walk
ceiling cuts short is charged to ``(cut short)``.  Each check's CPU is the
median over five passes, and the table gives its seconds and its share of
their sum; verify's default options apply.  Pin the run to one CPU
(``taskset -c 0``), since the machine's other load shows up in the CPU of
a shared core.  The package is imported from ``PYTHONPATH`` if it is
there, and otherwise from this checkout's ``src``, so one script can time
two checkouts.  It takes about half a minute, and the test suite does not
run it.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from ohmatrix.verify import VerifyOptions, _family_instance, _identity_diffs  # noqa: E402
from ohmatrix.walks import EnumerationLimitError  # noqa: E402

SEEDS = [i * 100_003 for i in range(10)]
PASSES = 5


def _ledger(options: VerifyOptions) -> dict[str, float]:
    """CPU seconds per check over the trials of every seed in ``SEEDS``."""
    spent: dict[str, float] = defaultdict(float)
    clock = time.process_time
    for seed in SEEDS:
        master = random.Random(seed)
        for trial_seed in [master.getrandbits(64) for _ in range(options.trials)]:
            began = clock()
            g, theta_seed = _family_instance(trial_seed, options)
            last = clock()
            spent["(instance)"] += last - began
            try:
                for name, _ in _identity_diffs(g, options, theta_seed):
                    now = clock()
                    spent[name] += now - last
                    last = now
            except EnumerationLimitError:
                spent["(cut short)"] += clock() - last
    return spent


def main() -> int:
    options = VerifyOptions()
    passes = [_ledger(options) for _ in range(PASSES)]
    cpu = {name: statistics.median(p.get(name, 0.0) for p in passes)
           for name in set().union(*passes)}
    total = sum(cpu.values())
    print(f"{len(SEEDS)} seeds x {options.trials} trials, switching_trials="
          f"{options.switching_trials}, median of {PASSES} passes: {total:.3f} s of CPU")
    print("\n| check | CPU, s | share |")
    print("|---|---|---|")
    for name in sorted(cpu, key=lambda n: (-cpu[n], n)):
        print(f"| {name} | {cpu[name]:.3f} | {100 * cpu[name] / total:.1f}% |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

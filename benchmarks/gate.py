"""Timing and ``--check`` regression-gate helpers shared by the benchmark
scripts that keep a recorded baseline (``bench_scale.py``, ``bench_serve.py``).

Each script computes its own ratios and adds its own extra checks; this
module holds only what they share: the tolerance, best-of timing, the
speedup floor against the baseline, and the pass/fail report.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: Regression tolerance for --check: a speedup may be up to 25% worse than
#: the recorded baseline before the gate fails.
TOLERANCE = 0.25


def best_of(repeats: int, run) -> float:
    """The fastest wall-clock time of ``repeats`` calls of ``run()``."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        timings.append(time.perf_counter() - start)
    return min(timings)


def baseline_ratios(baseline_path: str) -> dict:
    return json.loads(Path(baseline_path).read_text())["ratios"]


def speedup_failures(ratios: dict, base_ratios: dict, keys) -> list[str]:
    """One message per speedup in ``keys`` (higher is better) that fell
    below ``1 - TOLERANCE`` of its baseline."""
    failures = []
    for key in keys:
        floor = base_ratios[key] * (1 - TOLERANCE)
        if ratios[key] < floor:
            failures.append(
                f"{key}: {ratios[key]:.2f}x < {floor:.2f}x "
                f"(baseline {base_ratios[key]:.2f}x - {TOLERANCE:.0%})"
            )
    return failures


def report(failures: list[str], baseline_path: str) -> int:
    """Print the gate's verdict; the exit code for ``--check``."""
    if failures:
        print("REGRESSION vs", baseline_path)
        for failure in failures:
            print("  " + failure)
        return 1
    print(f"ok: within {TOLERANCE:.0%} of {baseline_path}")
    return 0

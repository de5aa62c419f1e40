"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Runs ``run.py --trace 0`` once for each of the seeds 1-10 on each workload,
then prints, per (workload, metric), the median, the quartiles and the
spread (interquartile distance over the median) next to the metric's bound
in ``BENCHMARK.json``.  With ``--against`` it also compares the medians with
an earlier set of runs saved by ``--output``: the way a change is checked
against its parent.

Usage (from the repository root)::

    python3 perfbench/spread.py --output parent.json
    python3 perfbench/spread.py --against parent.json

The exit code is non-zero when a spread exceeds its bound or a median is
worse than ``--against`` by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from suite import ROOT, stats  # noqa: E402

#: One run per seed on every workload.
SEEDS = range(1, 11)


def collect(workloads: list[str]) -> dict:
    """``{workload: [metrics of each run]}``; each run also carries its wall
    time under ``"wall_s"``."""
    runs: dict[str, list[dict]] = {}
    for workload in workloads:
        for seed in SEEDS:
            argv = [
                sys.executable,
                str(HERE / "run.py"),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--trace",
                "0",
            ]
            started = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True)
            wall = time.perf_counter() - started
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = {
                name: entry["value"] for name, entry in result["metrics"].items()
            }
            metrics["wall_s"] = wall
            runs.setdefault(workload, []).append(metrics)
            print(f"  {workload} seed {seed}: {wall:.1f}s", file=sys.stderr)
    return runs


def main(argv: list[str] | None = None) -> int:
    contract = stats.load_contract(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", help="save the runs here (JSON)")
    parser.add_argument("--against", help="runs saved earlier by --output")
    args = parser.parse_args(argv)

    runs = collect([w["name"] for w in contract["workloads"]])
    if args.output:
        Path(args.output).write_text(json.dumps(runs, indent=1) + "\n")

    bounds = stats.bounds(contract)
    print(f"{'workload':<16} {'metric':<12} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for workload, metric_runs in runs.items():
        for name in [*bounds, "wall_s"]:
            values = [run[name] for run in metric_runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            bound = bounds[name]["bound"] if name in bounds else float("nan")
            print(
                f"{workload:<16} {name:<12} {q2:>11.4f} {q1:>11.4f} "
                f"{q3:>11.4f} {stats.spread(values):>7.3f} {bound:>6}"
            )
    failures = stats.spread_failures(contract, runs)
    if args.against:
        base = json.loads(Path(args.against).read_text())
        failures += stats.regression_failures(contract, base, runs)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

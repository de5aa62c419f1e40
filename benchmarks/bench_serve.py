"""Latency benches for the resident daemon (PR: fault-isolated serve).

Prices what residency buys over one-shot CLI invocations on an
editor-shaped workload — open a file, edit one statement, re-lint:

* ``cold_process``  — ``python -m repro lint --format=json`` per request:
  interpreter start + imports + full analysis, the pre-daemon baseline;
* ``warm_edit``     — a resident daemon after a ``didChange`` touching one
  statement: re-parse plus fingerprint replay of untouched pairs, fresh
  evaluation of the edited ones (the honest incremental path — the
  rendered-response replay cache cannot fire);
* ``warm_repeat``   — the same request against an unchanged document: the
  daemon replays the rendered response outright;
* ``startup``       — daemon spawn to first ``health`` answer, reported so
  the break-even request count is visible.

Usage::

    python benchmarks/bench_serve.py                      # full workload
    python benchmarks/bench_serve.py --quick              # CI-sized
    python benchmarks/bench_serve.py --quick \
        --check benchmarks/baseline_serve.json            # regression gate
    python benchmarks/bench_serve.py --output results.json

The committed ``baseline_serve.json`` is the ``--quick --output`` run whose
``edit_speedup`` was the median of nine runs on a 2-CPU container
(CPython 3.11).  The gate compares one run against it, and a single run's
ratios spread by about 1.5x on a shared host (``warm_edit`` takes only
10-16 ms), so ``--check`` can fail on noise alone.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from benchmarks.gate import (  # noqa: E402
    baseline_ratios,
    best_of,
    report,
    speedup_failures,
)
from repro.server.client import ServeClient  # noqa: E402


def corpus_source(statements: int) -> str:
    """One nest with ``statements`` coupled writes/reads of two arrays."""
    lines = ["REAL F(0:999), G(0:999)", "DO 1 i = 0, 90"]
    for s in range(statements):
        prefix = "1 " if s == statements - 1 else ""
        lines.append(f"{prefix}F(i + {2 * s + 2}) = F(i + {s}) + G(i) + 1")
    return "\n".join(lines) + "\n"


def edited(source: str, step: int) -> str:
    """A one-statement edit: bump the first addend's constant."""
    return source.replace("+ G(i) + 1", f"+ G(i) + {step + 2}", 1)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def bench(quick: bool, repeats: int) -> dict:
    statements = 4 if quick else 10
    source = corpus_source(statements)
    env = cli_env()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.f"

        def cold_lint(step: int = 0) -> None:
            path.write_text(edited(source, step) if step else source)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "lint",
                    "--format=json",
                    str(path),
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.stdout, proc.stderr

        started = time.perf_counter()
        client = ServeClient.spawn_stdio(env=env)
        client.result("health")
        startup = time.perf_counter() - started
        try:
            client.result("open", {"uri": "bench.f", "text": source})
            client.result("lint", {"uri": "bench.f"})  # warm the fingerprints

            step = [0]

            def warm_edit() -> None:
                step[0] += 1
                client.result(
                    "didChange",
                    {"uri": "bench.f", "text": edited(source, step[0])},
                )
                client.result("lint", {"uri": "bench.f"})

            timings = {
                "startup": startup,
                "cold_process": best_of(repeats, cold_lint),
                "warm_edit": best_of(repeats, warm_edit),
                "warm_repeat": best_of(
                    repeats, lambda: client.result("lint", {"uri": "bench.f"})
                ),
            }
            counters = client.result("health")["counters"]
            client.shutdown()
        finally:
            client.close()

    ratios = {
        "edit_speedup": timings["cold_process"] / timings["warm_edit"],
        "repeat_speedup": timings["cold_process"] / timings["warm_repeat"],
    }
    return {
        "workload": {
            "quick": quick,
            "statements": statements,
            "repeats": repeats,
        },
        "cpu_count": os.cpu_count(),
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "timings": {k: round(v, 6) for k, v in timings.items()},
        "ratios": {k: round(v, 4) for k, v in ratios.items()},
        "counters": {
            k: counters[k]
            for k in ("replayed_pairs", "evaluated_pairs", "replayed_responses")
            if k in counters
        },
    }


def report_targets(result: dict) -> None:
    """Print the ISSUE targets with honest PASS/FAIL verdicts."""
    ratios = result["ratios"]

    def line(label, verdict):
        print(f"  {label:<58} {verdict}")

    print("targets:")
    edit = ratios["edit_speedup"]
    line(
        f"warm didChange+lint beats cold process (measured {edit:.1f}x)",
        "PASS" if edit > 1 else "FAIL",
    )
    repeat = ratios["repeat_speedup"]
    line(
        f"response replay beats cold process     (measured {repeat:.1f}x)",
        "PASS" if repeat > 1 else "FAIL",
    )
    replayed = result["counters"].get("replayed_pairs", 0)
    line(
        f"incremental replay actually fired      ({replayed} pairs)",
        "PASS" if replayed > 0 else "FAIL",
    )


def check_against(result: dict, baseline_path: str) -> int:
    """The CI regression gate: speedups may not be >25% worse than baseline."""
    failures = speedup_failures(
        result["ratios"],
        baseline_ratios(baseline_path),
        ("edit_speedup", "repeat_speedup"),
    )
    if result["counters"].get("replayed_pairs", 0) == 0:
        failures.append("replayed_pairs: incremental replay never fired")
    return report(failures, baseline_path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workload"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="best-of repeats per leg"
    )
    parser.add_argument("--output", help="write the result JSON here")
    parser.add_argument(
        "--check", metavar="BASELINE", help="gate ratios against a baseline"
    )
    args = parser.parse_args(argv)

    repeats = args.repeats or (2 if args.quick else 5)
    result = bench(args.quick, repeats)
    print(json.dumps(result, indent=2))
    report_targets(result)
    if args.output:
        Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    if args.check:
        return check_against(result, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

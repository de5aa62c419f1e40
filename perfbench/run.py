"""One benchmark for every speed claim: seeded workloads through the public
entry points, end-to-end metrics, correctness checks and a traced layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --seed 1                 # all workloads, timed + traced
    python3 perfbench/run.py --workload lint_audit --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke                  # one input each, short window
    python3 perfbench/run.py --output run.json        # also keep results and spans

Workloads, metrics, units and regression bounds are read from
``BENCHMARK.json``.  Each workload runs in its own fresh interpreter.
``--trace 0`` runs the untraced window and reports the end-to-end metrics;
``--trace 1`` runs the traced pass and reports the per-layer metrics;
without ``--trace`` both run.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when any output was wrong or any metric is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from suite import ROOT, WORKDIR, child_env  # noqa: E402

#: A child that runs longer than this is stopped and the run fails.
CHILD_TIMEOUT = 175


def run_child(workload: str, args, mode: str) -> dict:
    argv = [
        sys.executable,
        "-m",
        "suite.child",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--mode",
        mode,
    ]
    if args.smoke:
        argv.append("--smoke")
    spans = WORKDIR / f"spans-{workload}.json"
    if args.output:
        argv += ["--spans", str(spans)]
    # Its own session, so a timeout can stop the daemon and pool workers the
    # child started along with the child itself.
    proc = subprocess.Popen(
        argv,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}:\n{stderr.strip()}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if args.output:
        result["spans"] = json.loads(spans.read_text())
        spans.unlink()
    return result


def expected_metrics(contract: dict, mode: str) -> dict[str, str]:
    """Metric name -> unit that a run in ``mode`` must report."""
    groups = {"timed": ["end_to_end"], "traced": ["per_layer"]}.get(
        mode, ["end_to_end", "per_layer"]
    )
    return {
        entry["name"]: entry["unit"]
        for group in groups
        for entry in contract[group]
    }


def report(result: dict, expected: dict[str, str]) -> list[str]:
    """Print one workload's metrics; returns its problems."""
    metrics = result["metrics"]
    wrong = result["wrong"]
    attempted = result["attempted"]
    print(
        f"== {result['workload']}  seed={result['seed']}  "
        f"inputs={result['inputs']}  digest={result['digest']}"
    )
    for name, unit in expected.items():
        if name in metrics:
            value, got = metrics[name]
            print(f"  {name:<32} {value:>16.6f} {got}")
    layer_ms = result["layer_ms"]
    total = sum(layer_ms.values())
    split = ", ".join(
        f"{layer} {ms:.2f} ms ({ms / total:.1%})"
        for layer, ms in sorted(layer_ms.items(), key=lambda kv: -kv[1])
        if ms >= 0.001 * total
    )
    if split:
        print(f"  layer split (self time per traced op): {split}")
    error_rate = result["failed"] / attempted if attempted else 0.0
    print(
        f"  error_rate {error_rate:.4f} ({result['failed']} of {attempted} "
        f"ops failed); wrong_results {len(wrong)}"
    )
    for note in result["notes"]:
        print(f"  note: {note}")
    for line in wrong:
        print(f"  WRONG: {line}")
    problems = [f"{result['workload']}: {line}" for line in wrong]
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"{result['workload']}: metric {name} missing")
        elif metrics[name][1] != unit:
            problems.append(
                f"{result['workload']}: {name} in {metrics[name][1]}, "
                f"expected {unit}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in contract["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        help="window per workload (default: run_seconds, or 0.2 with --smoke)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end metrics only; 1: per-layer metrics only",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="one input per workload"
    )
    parser.add_argument("--output", help="write results and spans here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else contract["run_seconds"]
    mode = {None: "both", 0: "timed", 1: "traced"}[args.trace]
    workloads = names if args.workload == "all" else [args.workload]
    WORKDIR.mkdir(exist_ok=True)

    expected = expected_metrics(contract, mode)
    results, problems = [], []
    for workload in workloads:
        try:
            result = run_child(workload, args, mode)
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        results.append(result)
        problems += report(result, expected)

    if args.output:
        Path(args.output).write_text(json.dumps(results, indent=1) + "\n")
    single = len(results) == 1
    summary = {
        "correct": not any(result["wrong"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {
            (name if single else f"{result['workload']}:{name}"): {
                "value": result["metrics"][name][0],
                "unit": unit,
            }
            for result in results
            for name, unit in expected.items()
            if name in result["metrics"]
        },
    }
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

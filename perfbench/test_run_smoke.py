"""Smoke test of the benchmark harness; not part of the tier-1 suite.

Runs ``run.py --smoke`` (one input per workload, a short window) twice with
the same seed.  Run it from the repository root::

    python -m pytest perfbench/test_run_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from suite import inputs  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
METRICS = {
    entry["name"]: entry["unit"]
    for group in ("end_to_end", "per_layer")
    for entry in CONTRACT[group]
}
#: Counts that must repeat exactly for a seed: dependence edges, verdicts
#: and the audit's classification of every problem.
COUNTS = [
    name
    for name, unit in METRICS.items()
    if unit == "count"
    and (
        name == "depgraph.edges"
        or name.startswith(("core.verdict_", "lint.audit_"))
    )
]

HEADER = re.compile(r"^== (\S+)  seed=(\d+)  inputs=(\d+)  digest=(\w+)$")
METRIC = re.compile(r"^  (\S+) +(-?[\d.]+) (\S+)$")


def smoke(seed: int) -> tuple[dict, dict, dict]:
    """``(digests, printed metrics, final JSON)`` of one smoke run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digests, printed, workload = {}, {}, None
    for line in lines[:-1]:
        if match := HEADER.match(line):
            workload = match.group(1)
            digests[workload] = match.group(4)
        elif (match := METRIC.match(line)) and workload:
            printed[(workload, match.group(1))] = match.group(3)
    return digests, printed, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return smoke(1), smoke(1)


def test_every_metric_is_printed_with_its_unit(runs):
    (_, printed, summary), _ = runs
    assert summary["correct"] and summary["failed"] == 0
    for workload in WORKLOADS:
        for name, unit in METRICS.items():
            assert printed.get((workload, name)) == unit, (workload, name)
            assert summary["metrics"][f"{workload}:{name}"]["unit"] == unit


def test_same_seed_same_inputs_and_counts(runs):
    (digests, _, first), (again, _, second) = runs
    assert digests == again
    for workload in WORKLOADS:
        assert digests[workload] == inputs.digest(
            inputs.build(workload, 1, smoke=True)
        )
        for name in COUNTS:
            key = f"{workload}:{name}"
            assert first["metrics"][key] == second["metrics"][key], key


def test_another_seed_gives_other_inputs():
    for workload in WORKLOADS:
        assert inputs.digest(inputs.build(workload, 2)) != inputs.digest(
            inputs.build(workload, 1)
        )

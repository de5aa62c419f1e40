"""The benchmark's workloads, tracing and measurement helpers."""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Scratch space for the run: spans, one-shot oracle files.
WORKDIR = ROOT / "perfbench" / ".work"


def child_env() -> dict:
    """The environment of every process the benchmark starts: the program
    is imported from ``src/`` and the harness from ``perfbench/``."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env

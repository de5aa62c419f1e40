"""Run one workload in this (fresh) interpreter and print its result.

``run.py`` starts one of these per workload, which isolates process-wide
caches and peak RSS.  The last line of stdout is one JSON object.

Usage::

    python -m suite.child WORKLOAD --seed N --seconds S --mode timed|traced|both
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from . import inputs as seeded
from .workloads import WORKLOADS, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("timed", "traced", "both"), required=True
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here (JSON)")
    args = parser.parse_args(argv)

    result, items = run(
        args.workload,
        args.seed,
        args.seconds,
        timed_run=args.mode != "traced",
        traced_run=args.mode != "timed",
        smoke=args.smoke,
    )
    if args.spans:
        Path(args.spans).write_text(json.dumps(result.spans) + "\n")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "inputs": len(items),
                "digest": seeded.digest(items),
                "attempted": result.attempted,
                "failed": result.failed,
                "wrong": result.wrong,
                "metrics": result.metrics,
                "notes": result.notes,
                "layer_ms": result.layer_ms,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

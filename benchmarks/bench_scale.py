"""Scaling benches for the dependence engine's problem cache.

Measures the cache on a solve-bound workload of 3-D linearized subscript
pairs (the paper's target population — each pair costs ~10ms of solver time,
so caching is visible over the fixed per-pair bookkeeping):

* ``serial_nocache`` — ``analyze_dependences(use_cache=False)``, the PR-4
  baseline path;
* ``serial_cold``    — a fresh :class:`ProblemCache`; the delta against
  ``serial_nocache`` prices the key (the "<3% cold overhead" target —
  usually *negative*, because the pairs of one nest produce identical
  equations that already hit intra-run);
* ``serial_warm``    — the same cache again, every pair a hit (the ">=5x
  warm" target);
* ``solver_*``       — the cache layer alone: :func:`cached_delinearize`
  cold vs warm over renamed/scaled twins, no graph machinery at all.  The
  cache keys a problem as written, so twins no longer share an entry:
  ``solver_cold`` misses on every problem and ``solver_warm`` hits on all.

The interval range analysis (``derive_bounds``) is disabled throughout: it
runs once per program in the parent, is untouched by this PR, and would
otherwise drown the pair loop it feeds (see docs/PERFORMANCE.md).

Usage::

    python benchmarks/bench_scale.py                      # full workload
    python benchmarks/bench_scale.py --quick              # CI-sized
    python benchmarks/bench_scale.py --quick \
        --check benchmarks/baseline_scale.json            # 25% regression gate
    python benchmarks/bench_scale.py --output results.json

The committed ``baseline_scale.json`` is the unedited ``--quick --output``
file of the run whose ``warm_speedup`` was the median of nine runs on a
2-CPU x86-64 container (CPython 3.11).  Since the delinearization scan
splits these equations into exact cases instead of refining them, a pair
costs about 1 ms instead of about 10 ms: ``serial_nocache`` fell about 7x
while ``serial_warm`` (graph bookkeeping) did not, so ``warm_speedup`` is
about 2-4x and the "warm cache >= 5x" target reports FAIL.  The nine runs
spread from 1.9x to 4.5x, so the single-run ``--check`` can fail on noise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from benchmarks.gate import (  # noqa: E402
    TOLERANCE,
    baseline_ratios,
    best_of,
    report,
    speedup_failures,
)

from repro.analysis import normalize_program  # noqa: E402
from repro.core import delinearize  # noqa: E402
from repro.core.cache import ProblemCache, cached_delinearize  # noqa: E402
from repro.depgraph import analyze_dependences, reference_pairs  # noqa: E402
from repro.deptests import BoundedVar, DependenceProblem  # noqa: E402
from repro.frontend import parse_fortran  # noqa: E402
from repro.symbolic import LinExpr  # noqa: E402


def corpus_source(statements: int) -> str:
    """``statements`` writes/reads of one linearized 3-D array in one nest.

    Every pair of references yields a 3-level dependence equation
    ``(i1-i2) + 8*(j1-j2) + 64*(k1-k2) + c = 0`` — exactly the delinearizable
    population, and expensive enough (~10ms/pair) that the solver dominates
    the per-pair bookkeeping.
    """
    lines = [
        "REAL B(0:2000)",
        "DO 1 i = 0, 7",
        "DO 1 j = 0, 7",
        "DO 1 k = 0, 7",
    ]
    for s in range(statements):
        c, d = 11 * s, 11 * s + 5
        prefix = "1 " if s == statements - 1 else ""
        lines.append(
            f"{prefix}B(i + 8*j + 64*k + {c}) = B(i + 8*j + 64*k + {d}) + 1"
        )
    return "\n".join(lines) + "\n"


def solver_problems(shapes: int, copies: int) -> list[DependenceProblem]:
    """``shapes`` distinct 3-D problems, each repeated as ``copies`` renamed
    and integer-scaled twins.  The cache keys a problem as written, so
    twins no longer share an entry."""
    problems = []
    for shape in range(shapes):
        const = 7 * shape + 3
        for copy in range(copies):
            scale = 1 + (copy % 3)
            v = [f"u{copy}", f"v{copy}", f"w{copy}"]
            eq = LinExpr(
                {
                    f"{v[0]}1": scale,
                    f"{v[0]}2": -scale,
                    f"{v[1]}1": 8 * scale,
                    f"{v[1]}2": -8 * scale,
                    f"{v[2]}1": 64 * scale,
                    f"{v[2]}2": -64 * scale,
                },
                const * scale,
            )
            variables = [
                BoundedVar.make(f"{name}{side + 1}", 7, level, side)
                for level, name in enumerate(v, start=1)
                for side in (0, 1)
            ]
            problems.append(
                DependenceProblem([eq], variables, common_levels=3)
            )
    return problems


def bench(quick: bool, repeats: int, cache_dir: str | None) -> dict:
    statements = 6 if quick else 20
    program = normalize_program(parse_fortran(corpus_source(statements)))
    pairs = len(reference_pairs(program))
    kwargs = dict(normalized=True, derive_bounds=False)

    timings: dict[str, float] = {}
    timings["serial_nocache"] = best_of(
        repeats,
        lambda: analyze_dependences(program, use_cache=False, **kwargs),
    )
    timings["serial_cold"] = best_of(
        repeats,
        lambda: analyze_dependences(program, cache=ProblemCache(), **kwargs),
    )
    warm = ProblemCache()
    analyze_dependences(program, cache=warm, **kwargs)
    timings["serial_warm"] = best_of(
        repeats, lambda: analyze_dependences(program, cache=warm, **kwargs)
    )
    if cache_dir:
        # Persistent warm-up: a fresh in-memory cache loaded from disk.
        analyze_dependences(
            program, cache=ProblemCache(), cache_dir=cache_dir, **kwargs
        )
        timings["persistent_warm"] = best_of(
            repeats,
            lambda: analyze_dependences(
                program, cache=ProblemCache(), cache_dir=cache_dir, **kwargs
            ),
        )

    problems = solver_problems(4 if quick else 12, 8)
    timings["solver_nocache"] = best_of(
        repeats, lambda: [delinearize(p) for p in problems]
    )

    def solver_cold():
        cache = ProblemCache()
        for p in problems:
            cached_delinearize(p, cache=cache)

    timings["solver_cold"] = best_of(repeats, solver_cold)
    solver_cache = ProblemCache()
    for p in problems:
        cached_delinearize(p, cache=solver_cache)
    timings["solver_warm"] = best_of(
        repeats,
        lambda: [cached_delinearize(p, cache=solver_cache) for p in problems],
    )

    ratios = {
        "cold_overhead": timings["serial_cold"] / timings["serial_nocache"] - 1,
        "warm_speedup": timings["serial_nocache"] / timings["serial_warm"],
        "solver_warm_speedup": timings["solver_nocache"] / timings["solver_warm"],
    }
    return {
        "workload": {
            "quick": quick,
            "statements": statements,
            "pairs": pairs,
            "solver_problems": len(problems),
            "repeats": repeats,
        },
        "cpu_count": os.cpu_count(),
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "timings": {k: round(v, 6) for k, v in timings.items()},
        "ratios": {k: round(v, 4) for k, v in ratios.items()},
    }


def report_targets(result: dict) -> None:
    """Print the ISSUE targets with honest PASS/FAIL/SKIP verdicts."""
    ratios = result["ratios"]

    def line(label, verdict):
        print(f"  {label:<58} {verdict}")

    print("targets:")
    overhead = ratios["cold_overhead"]
    line(
        f"cold overhead < 3%                   (measured {overhead:+.1%})",
        "PASS" if overhead < 0.03 else "FAIL",
    )
    warm = ratios["warm_speedup"]
    line(
        f"warm cache >= 5x                     (measured {warm:.1f}x)",
        "PASS" if warm >= 5 else "FAIL",
    )
    solver = ratios["solver_warm_speedup"]
    line(
        f"solver-level warm >= 5x              (measured {solver:.1f}x)",
        "PASS" if solver >= 5 else "FAIL",
    )


def check_against(result: dict, baseline_path: str) -> int:
    """The CI regression gate: ratios may not be >25% worse than baseline."""
    base_ratios = baseline_ratios(baseline_path)
    ratios = result["ratios"]
    failures = speedup_failures(
        ratios, base_ratios, ("warm_speedup", "solver_warm_speedup")
    )
    # Lower is better; regression = 25 points of extra overhead.
    ceiling = base_ratios["cold_overhead"] + TOLERANCE
    if ratios["cold_overhead"] > ceiling:
        failures.append(
            f"cold_overhead: {ratios['cold_overhead']:+.1%} > {ceiling:+.1%}"
        )
    return report(failures, baseline_path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workload (~60 pairs)"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="best-of repeats per leg"
    )
    parser.add_argument(
        "--cache-dir", help="also bench persistent warm-up through this dir"
    )
    parser.add_argument("--output", help="write the result JSON here")
    parser.add_argument(
        "--check", metavar="BASELINE", help="gate ratios against a baseline"
    )
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.quick else 3)
    result = bench(args.quick, repeats, args.cache_dir)
    print(json.dumps(result, indent=2))
    report_targets(result)
    if args.output:
        Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    if args.check:
        return check_against(result, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

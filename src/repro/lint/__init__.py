"""Static analysis and self-auditing for the delinearization pipeline.

Five pillars:

* :mod:`repro.lint.diagnostics` — structured, coded, span-carrying
  diagnostics with text and JSON renderers;
* :mod:`repro.lint.dataflow` — the CFG of the loop-nest IR and the one
  forward worklist fixed-point solver, with reaching definitions, use-def
  chains, uninitialized-read detection and loop-invariance classification;
* :mod:`repro.lint.ranges` — interval abstract interpretation on the same
  solver and the same CFG (built once per lint): per-point value ranges,
  auto-derived :class:`repro.symbolic.Assumptions` (declared extents, loop
  ranges, interval facts) and the ``DB`` family of array-bounds diagnostics;
* :mod:`repro.lint.audit` — the delinearization soundness auditor, which
  independently re-verifies every dimension barrier, verdict and
  direction-vector set the analyzer produces;
* :mod:`repro.lint.schedule` — the schedule verifier, which statically
  re-derives the legality of every vectorizer output (the ``VR`` family:
  races, ordering violations, illegal interchanges) without reusing
  codegen's own edge classification.

:mod:`repro.lint.engine` ties them together behind ``lint_source`` (the
``repro lint`` CLI subcommand).  It is loaded lazily because it imports
:mod:`repro.analysis`, which itself emits :class:`Diagnostic` values.
"""

from . import codes
from .audit import audit_problem, audit_result
from .dataflow import (
    build_cfg,
    invariant_symbols,
    reaching_definitions,
    run_dataflow_checks,
)
from .diagnostics import (
    SCHEMA_VERSION,
    Diagnostic,
    max_severity,
    render_json,
    render_json_many,
    render_text,
    sort_diagnostics,
)
from .ranges import (
    Interval,
    analyze_ranges,
    check_bounds,
    derive_assumptions,
    nonempty_loop_assumptions,
)
from .schedule import verify_interchange, verify_schedule

__all__ = [
    "Diagnostic",
    "Interval",
    "LintReport",
    "SCHEMA_VERSION",
    "analyze_ranges",
    "audit_problem",
    "audit_result",
    "build_cfg",
    "check_bounds",
    "codes",
    "derive_assumptions",
    "invariant_symbols",
    "lint_source",
    "max_severity",
    "nonempty_loop_assumptions",
    "reaching_definitions",
    "render_json",
    "render_json_many",
    "render_text",
    "run_dataflow_checks",
    "sort_diagnostics",
    "verify_interchange",
    "verify_schedule",
]

_LAZY = {"lint_source", "LintReport"}


def __getattr__(name: str):
    # engine imports repro.analysis (which imports this package to build its
    # diagnostics), so it must load on first use, not at import time.
    if name in _LAZY:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

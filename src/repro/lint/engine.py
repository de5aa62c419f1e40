"""The lint driver: run every analysis over one source file.

``lint_source`` calls the compilation pipeline's front half
(:func:`repro.driver.front_end`: parse, pointer conversion, loop
normalization, induction-variable substitution), then runs, in order:

1. the semantic checker (:mod:`repro.analysis.check`, ``DL`` codes);
2. the dataflow passes (:mod:`repro.lint.dataflow`, ``DF`` codes);
3. the interval range analysis and its bounds checks
   (:mod:`repro.lint.ranges`, ``DB`` codes) over the CFG step 2 used, run
   under assumptions enriched with declaration-derived and interval-derived
   facts; the dependence graph below reuses the same analysis and the facts
   derived from it (stored on the analysis, so they are derived once);
4. optionally the delinearization soundness auditor
   (:mod:`repro.lint.audit`, ``DS`` codes) over every dependence problem the
   program gives rise to;
5. optionally the schedule verifier (:mod:`repro.lint.schedule`, ``VR``
   codes): the program is vectorized and the resulting schedule statically
   re-verified against the dependence graph.

Parse and normalization failures become ``DL001`` diagnostics instead of
exceptions, so the CLI can report them uniformly with spans.  Internal
errors degrade to ``RS`` diagnostics under one barrier shared by every
phase (``strict=True`` re-raises).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import depgraph, vectorizer

# Not called here (lint runs them through ``front_end`` and
# ``seeded_ranges``); bound because perfbench/suite/trace.py::SITES wraps
# these module attributes.
from ..analysis import normalize_program, substitute_induction_variables  # noqa: F401
from ..analysis.check import check_program
from ..analysis.normalize import NormalizationError
from ..driver import TimedBarrier, dependence_graph, front_end, verify_plan
from ..frontend import parse_fortran  # noqa: F401 — see SITES above
from ..frontend.errors import ParseError, ParseErrorGroup
from ..ir import Program
from ..symbolic import Assumptions
from . import codes
from .dataflow import build_cfg, run_dataflow_checks
from .diagnostics import Diagnostic, max_severity, sort_diagnostics
from .ranges import analyze_ranges, declared_bound_assumptions  # noqa: F401
from .ranges import check_bounds, derive_assumptions, seeded_ranges


@dataclass
class LintReport:
    """The outcome of linting one source file."""

    language: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    program: Program | None = None  # None when parsing failed
    #: Parsing succeeded.  Distinct from ``program is not None``: the CLI's
    #: multi-file fan-out strips ``program`` from worker reports (the parent
    #: only renders diagnostics), and this flag keeps the summary line
    #: identical either way.
    parsed: bool = False
    audited_pairs: int = 0

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == codes.ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == codes.WARNING)

    def fails(self, werror: bool = False) -> bool:
        """True when the report should fail a ``--werror``-aware build."""
        worst = max_severity(self.diagnostics)
        if worst == codes.ERROR:
            return True
        return werror and worst == codes.WARNING


def lint_source(
    source: str,
    language: str = "fortran",
    assumptions: Assumptions | None = None,
    audit: bool = True,
    ranges: bool = True,
    schedule: bool = False,
    strict: bool = False,
    jobs: int = 1,
    use_cache: bool = True,
    outcome_cache=None,
    deadline: float | None = None,
) -> LintReport:
    """Lint FORTRAN or C source text end to end.

    ``ranges=False`` disables the interval pass: the ``DB`` checks are
    skipped and the soundness audit runs on user assumptions only (the
    ablation measured by ``benchmarks/bench_ranges.py``).  ``schedule=True``
    additionally vectorizes the program and statically verifies the
    resulting schedule against the audited graph (``VR`` codes).
    ``strict=True`` re-raises internal errors instead of degrading them to
    the conservative graph / serial plan with an ``RS`` diagnostic.
    ``use_cache`` tunes the dependence-analysis pass (see
    :func:`repro.depgraph.analyze_dependences`) without changing its result.
    ``outcome_cache``/``deadline`` are the resident-server knobs
    (pair-outcome replay and per-request wall-clock deadline; same
    reference).  ``jobs`` is accepted and ignored: pairs are always
    evaluated in-process, and the keyword stays only because the committed
    benchmark (``perfbench/suite/workloads.py``) still passes it.

    Parsing runs in recovery mode: every syntax error in the file becomes
    its own span-carrying ``DL001``, with an ``RS004`` note that the parser
    synchronized at statement boundaries to keep going.
    """
    report = LintReport(language)
    barrier = TimedBarrier(strict=strict)
    try:
        program = front_end(source, language, barrier, [], recover=True)
    except ParseErrorGroup as group:
        report.diagnostics = _parse_failure(group.errors)
        return report
    except ParseError as error:
        report.diagnostics = _parse_failure([error])
        return report
    except NormalizationError as error:
        # The parsed program still supports the structural checks (rank,
        # shadowing — the usual cause of normalization failure); make sure
        # at least one error-severity diagnostic explains the failure.
        diags = check_program(error.program, assumptions)
        if max_severity(diags) != codes.ERROR:
            diags.append(Diagnostic.make(codes.DL001, str(error)))
        report.parsed = True
        report.program = error.program
        report.diagnostics = sort_diagnostics(diags)
        return report
    report.parsed = True
    report.program = program
    diags = check_program(program, assumptions)
    # Only user-supplied symbols are subject to the DF004 invariance check:
    # derived interval facts legitimately describe assigned scalars.
    symbols = assumptions.symbols() if assumptions else set()
    cfg = build_cfg(program)
    diags += run_dataflow_checks(program, symbols, cfg)
    analysis = None
    if ranges:
        analysis = seeded_ranges(program, assumptions, cfg)
        derived = derive_assumptions(program, assumptions, analysis)
        diags += check_bounds(program, derived, analysis)
    # A program with semantic errors (shadowed loop variables, rank
    # mismatches) cannot be turned into well-formed dependence problems.
    if (audit or schedule) and max_severity(diags) != codes.ERROR:
        graph = dependence_graph(
            program,
            barrier,
            lambda: depgraph.analyze_dependences(
                program,
                assumptions=assumptions,
                normalized=True,
                audit=audit,
                derive_bounds=ranges,
                strict=strict,
                use_cache=use_cache,
                outcome_cache=outcome_cache,
                deadline=deadline,
                analysis=analysis,
            ),
        )
        diags += graph.degradations
        diags += graph.alias_diagnostics
        diags += depgraph.control_diagnostics(graph)
        if audit:
            report.audited_pairs = len(graph.edges)
            diags += graph.audit_diagnostics
        if schedule:
            plan = barrier.run(
                "vectorize",
                lambda: vectorizer.vectorize(graph),
                lambda: vectorizer.serial_plan(program),
            )
            diags += verify_plan(plan, graph, barrier)
    report.diagnostics = sort_diagnostics(diags + barrier.degradations)
    return report


def _parse_failure(errors: list[ParseError]) -> list[Diagnostic]:
    """DL001 per recovered syntax error, plus an RS004 recovery note."""
    diags = [
        Diagnostic.make(codes.DL001, str(error), span=error.span)
        for error in errors
    ]
    diags.append(
        Diagnostic.make(
            codes.RS004,
            "parse: recovered at statement boundaries; "
            f"{len(errors)} syntax error(s) reported",
        )
    )
    return sort_diagnostics(diags)

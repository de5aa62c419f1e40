"""The end-to-end translator pipeline (the role VIC plays in the paper).

``compile_fortran`` / ``compile_c`` run the whole pipeline of a
parallelizing compiler: the front half (:func:`front_end`: parse, normalize
loops, recognize multi-loop induction variables, the same for both
languages and shared with ``repro lint``, ``repro check`` and the census),
then linearize EQUIVALENCE and COMMON storage, build the dependence graph
with delinearization, run Allen-Kennedy vectorization, statically verify
the resulting schedule against the graph, and emit the transformed program
— collecting a per-phase report along the way.

Every phase after parsing runs inside an exception barrier
(:class:`repro.core.resilience.Barrier`): an internal error degrades the
phase to its sound conservative fallback — the untransformed program, the
all-assumed :func:`repro.depgraph.conservative_graph`, the fully serial
:func:`repro.vectorizer.serial_plan` — and records an ``RS`` diagnostic on
:attr:`CompilationReport.degradations` instead of aborting the compile.
With ``strict=True`` (the mode CI runs in) internal errors re-raise.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from .analysis import (
    linearize_common,
    linearize_program,
    normalize_program,
    substitute_induction_variables,
)
from .analysis.linearize import alias_groups
from .analysis.normalize import NormalizationError
from .analysis.pointers import convert_pointers
from .core.resilience import Barrier
from .depgraph import (
    DependenceGraph,
    GraphPerf,
    analyze_dependences,
    conservative_graph,
)
from .frontend import parse_c, parse_fortran
from .ir import CallStmt, Program, format_program
from .lint import codes
from .lint.diagnostics import Diagnostic, sort_diagnostics
from .symbolic import Assumptions
from .vectorizer import (
    VectorizationResult,
    emit_program,
    serial_plan,
    vectorize,
    verify_schedule,
)


@dataclass
class PerfReport:
    """How the compile spent its time: wall seconds per phase plus the
    dependence-analysis counters (pairs, cache hits, cascade verdicts).

    Reporting only — none of this may influence, or appear inside, the
    outputs the determinism tests compare across cache settings.
    """

    phase_seconds: dict[str, float] = field(default_factory=dict)
    graph: GraphPerf | None = None

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def format(self) -> str:
        lines = ["phase timings:"]
        for phase, seconds in self.phase_seconds.items():
            lines.append(f"  {phase}: {seconds * 1000:.1f}ms")
        lines.append(f"  total: {self.total_seconds * 1000:.1f}ms")
        if self.graph is not None:
            lines.append(f"dependence analysis: {self.graph.format()}")
        return "\n".join(lines)


class TimedBarrier(Barrier):
    """A barrier that also meters wall time per phase name."""

    def __init__(self, strict: bool = False):
        super().__init__(strict)
        self.phase_seconds: dict[str, float] = {}

    def run(self, phase, fn, fallback=None, **kwargs):
        started = time.perf_counter()
        try:
            return super().run(phase, fn, fallback, **kwargs)
        finally:
            self.phase_seconds[phase] = (
                self.phase_seconds.get(phase, 0.0)
                + time.perf_counter()
                - started
            )


@dataclass
class CompilationReport:
    """Everything the pipeline produced, phase by phase."""

    source: str
    language: str
    program: Program
    graph: DependenceGraph
    plan: VectorizationResult
    output: str
    phases: list[str] = field(default_factory=list)
    #: Schedule-verifier findings (``VR`` codes); populated when compiled
    #: with ``verify=True`` (the default) and empty for a clean schedule
    #: (advisory VR005 warnings aside).
    schedule_diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Resilience findings (``RS`` codes): phases or dependence pairs that
    #: degraded to their conservative fallback instead of crashing.  Empty
    #: on a fault-free compile.
    degradations: list[Diagnostic] = field(default_factory=list)
    #: Per-phase wall time and dependence-analysis counters.
    perf: PerfReport = field(default_factory=PerfReport)

    @property
    def dependence_count(self) -> int:
        return len(self.graph.edges)

    @property
    def schedule_ok(self) -> bool:
        """True when verification found no error-severity violation."""
        return not any(
            d.severity == "error" for d in self.schedule_diagnostics
        )

    @property
    def degraded(self) -> bool:
        """Did any phase or dependence pair fall back conservatively?"""
        return bool(self.degradations)

    @property
    def audit_diagnostics(self) -> list[Diagnostic]:
        """Soundness-auditor findings (empty unless compiled with audit=True
        — and, with it, empty again unless the analyzer has a bug)."""
        return self.graph.audit_diagnostics

    @property
    def alias_diagnostics(self) -> list[Diagnostic]:
        """Interprocedural findings (``AL``/``RS`` codes) from resolving
        CALL sites; empty for call-free programs and exact translations."""
        return self.graph.alias_diagnostics

    @property
    def control_diagnostics(self) -> list[Diagnostic]:
        """``CD001`` notes for dependences that hold only on guarded paths."""
        from .depgraph import control_diagnostics

        return control_diagnostics(self.graph)

    @property
    def vectorized_statements(self) -> list[str]:
        return self.plan.vectorized_statements()

    @property
    def serial_statements(self) -> list[str]:
        return self.plan.fully_serial_statements()

    def summary(self) -> str:
        lines = [
            f"language: {self.language}",
            f"phases: {', '.join(self.phases)}",
            f"dependences: {self.dependence_count}",
            f"vectorized statements: {', '.join(self.vectorized_statements) or '-'}",
            f"serial statements: {', '.join(self.serial_statements) or '-'}",
        ]
        if "verify-schedule" in self.phases:
            if self.schedule_diagnostics:
                errors = sum(
                    1
                    for d in self.schedule_diagnostics
                    if d.severity == "error"
                )
                warnings = len(self.schedule_diagnostics) - errors
                lines.append(
                    f"schedule verification: {errors} error(s), "
                    f"{warnings} warning(s)"
                )
            else:
                lines.append("schedule verification: clean")
        guarded = sum(1 for edge in self.graph.edges if edge.guarded)
        if guarded:
            lines.append(f"guarded dependences: {guarded}")
        if self.alias_diagnostics:
            lines.append(
                f"interprocedural findings: {len(self.alias_diagnostics)} "
                "(see report.alias_diagnostics)"
            )
        if self.degradations:
            lines.append(
                f"degradations: {len(self.degradations)} "
                "(conservative fallbacks taken; see report.degradations)"
            )
        return "\n".join(lines)


def front_end(
    source: str,
    language: str,
    barrier: TimedBarrier,
    phases: list[str],
    *,
    recover: bool = False,
) -> Program:
    """The front half every entry point shares: parse, convert C pointers,
    normalize loops, substitute multi-loop induction variables.

    Each phase after parsing runs under ``barrier`` and degrades to the
    program it was given; substitution runs only if nothing degraded.
    ``phases`` gains each phase that ran (that changed the program, for
    pointers and substitution).  A syntax error raises ``ParseError``.
    ``recover=True`` (lint) reports input errors instead: every syntax
    error in one ``ParseErrorGroup``, and a :class:`NormalizationError`
    raised with the parsed program as its ``program``.
    """
    started = time.perf_counter()
    if language == "c":
        program, info = parse_c(source, recover=recover)
    else:
        program, info = parse_fortran(source, recover=recover), None
    barrier.phase_seconds["parse"] = time.perf_counter() - started
    phases.append("parse")
    if info is not None and info.pointers:
        base = program
        program = barrier.run(
            "pointer-conversion",
            lambda: convert_pointers(base, info),
            lambda: base,
        )
        if program is not base:
            phases.append("pointer-conversion")
    parsed = program
    if recover:
        try:
            program = normalize_program(parsed)
        except NormalizationError as error:
            error.program = parsed
            raise
    else:
        program = barrier.run(
            "normalize", lambda: normalize_program(parsed), lambda: parsed
        )
    phases.append("normalize")
    if not barrier.failed_phases:
        base = program
        program = barrier.run(
            "induction-variables",
            lambda: substitute_induction_variables(base),
            lambda: base,
        )
        if program is not base:
            phases.append("induction-variables")
    return program


def linearize_storage(program: Program, phases: list[str]) -> Program:
    """Rewrite EQUIVALENCE alias groups, then COMMON blocks, onto 1-D
    storage arrays (ANSI storage association); ``phases`` gains each
    rewrite that ran.  Raises ``LinearizationError`` on unusable storage."""
    if alias_groups(program):
        program = linearize_program(program)
        program = normalize_program(program)  # renumber statements
        phases.append("linearize-aliases")
    if program.commons:
        program = linearize_common(program)
        phases.append("linearize-common")
    return program


def compile_fortran(
    source: str,
    assumptions: Assumptions | None = None,
    audit: bool = False,
    derive_bounds: bool = True,
    verify: bool = True,
    strict: bool = False,
    jobs: int = 1,
    use_cache: bool = True,
    deadline: float | None = None,
) -> CompilationReport:
    """Run the whole pipeline on FORTRAN source text.

    ``audit=True`` re-verifies every delinearization outcome through the
    soundness auditor; findings appear in ``report.audit_diagnostics``.
    ``derive_bounds=False`` turns off assumption inference from declared
    array extents, loop ranges and interval analysis (user assumptions only).
    ``verify`` (on by default) runs the static schedule verifier over the
    vectorizer's output; findings appear in ``report.schedule_diagnostics``.
    ``strict=True`` re-raises internal errors instead of degrading phases
    conservatively (budget exhaustion still degrades — giving up on an
    oversized dependence system is a designed outcome, not a bug).
    ``use_cache`` is the dependence-analysis performance knob (see
    :func:`repro.depgraph.analyze_dependences`); the report is
    byte-identical for every setting, only ``report.perf`` varies.
    ``jobs`` is accepted and ignored: pairs are always evaluated in-process,
    and the keyword stays only because the committed benchmark
    (``perfbench/suite/workloads.py``) still passes it.
    """
    return _compile(
        source, "fortran", assumptions, audit, derive_bounds, verify, strict,
        use_cache, deadline,
    )


def compile_c(
    source: str,
    assumptions: Assumptions | None = None,
    audit: bool = False,
    derive_bounds: bool = True,
    verify: bool = True,
    strict: bool = False,
    use_cache: bool = True,
    deadline: float | None = None,
) -> CompilationReport:
    """Run the whole pipeline on C source text (see :func:`compile_fortran`
    for the ``audit``, ``derive_bounds``, ``verify``, ``strict`` and
    ``use_cache`` flags)."""
    return _compile(
        source, "c", assumptions, audit, derive_bounds, verify, strict,
        use_cache, deadline,
    )


def _compile(
    source: str,
    language: str,
    assumptions: Assumptions | None,
    audit: bool,
    derive_bounds: bool,
    verify: bool,
    strict: bool,
    use_cache: bool,
    deadline: float | None,
) -> CompilationReport:
    """The front half, storage linearization, then dependence analysis
    through emission, each phase barriered."""
    barrier = TimedBarrier(strict=strict)
    phases: list[str] = []
    program = front_end(source, language, barrier, phases)
    if not barrier.failed_phases:
        base = program
        program = barrier.run(
            "linearize-aliases",
            lambda: linearize_storage(base, phases),
            lambda: base,
        )

    graph = dependence_graph(
        program,
        barrier,
        lambda: analyze_dependences(
            program,
            assumptions=assumptions,
            normalized=True,
            audit=audit,
            derive_bounds=derive_bounds,
            strict=strict,
            use_cache=use_cache,
            deadline=deadline,
        ),
    )
    phases.append("dependence-analysis")
    if any(
        isinstance(stmt, CallStmt)
        for stmt, _loops in graph.program.walk_statements()
    ):
        phases.append("interproc")
    if audit and not barrier.failed("dependence-analysis"):
        phases.append("soundness-audit")

    if barrier.failed_phases:
        # Aliasing or normalization may be mismodelled: even the assumed
        # edges cannot be trusted to cover cross-array conflicts, so the
        # only legal schedule is the original serial one.
        plan = serial_plan(program)
    else:
        plan = barrier.run(
            "vectorize", lambda: vectorize(graph), lambda: serial_plan(program)
        )
    phases.append("vectorize")

    schedule_diags: list[Diagnostic] = []
    if verify:
        schedule_diags = verify_plan(plan, graph, barrier)
        phases.append("verify-schedule")

    output = barrier.run(
        "emit",
        lambda: emit_program(plan),
        lambda: _fallback_output(program, source),
    )
    phases.append("emit")

    return CompilationReport(
        source,
        language,
        program,
        graph,
        plan,
        output,
        phases,
        schedule_diags,
        sort_diagnostics([*graph.degradations, *barrier.degradations]),
        PerfReport(phase_seconds=barrier.phase_seconds, graph=graph.perf),
    )


def dependence_graph(
    program: Program, barrier: Barrier, analyze: Callable[[], DependenceGraph]
) -> DependenceGraph:
    """``analyze()`` under ``barrier``, the conservative graph if it fails
    (lint and compile pass different analysis options).

    After a front-end phase degraded, the analysis is skipped (``RS003``):
    the program may carry loops, induction variables or aliases it would
    silently mismodel.  The conservative graph is sound regardless.
    """
    if barrier.failed_phases:
        barrier.note(
            codes.RS003,
            "dependence-analysis",
            "front-end degraded; conservative dependence graph assumed",
        )
        return barrier.run(
            "dependence-analysis",
            lambda: conservative_graph(program),
            lambda: DependenceGraph(program),
        )
    return barrier.run(
        "dependence-analysis", analyze, lambda: conservative_graph(program)
    )


def verify_plan(
    plan: VectorizationResult, graph: DependenceGraph, barrier: Barrier
) -> list[Diagnostic]:
    """Verify ``plan`` against ``graph`` under ``barrier``; a verifier
    failure leaves the schedule unverified, an ``RS003`` error."""
    return barrier.run(
        "verify-schedule",
        lambda: verify_schedule(plan, graph),
        lambda: [
            Diagnostic.make(
                codes.RS003,
                "verify-schedule: verifier failed; schedule is unverified",
                severity="error",
            )
        ],
    )


def _fallback_output(program: Program, source: str) -> str:
    """Emit-phase fallback: the untransformed program, or the raw source."""
    try:
        return format_program(program)
    except Exception:  # noqa: BLE001 — last resort under a failing emitter
        return source


def analyzed_source(report: CompilationReport) -> str:
    """The program text after the front-end transformations."""
    return format_program(report.program)

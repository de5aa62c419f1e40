"""The delinearization soundness auditor (``DS`` diagnostics).

The delinearization algorithm is intricate: it reorders coefficients,
maintains running extremes, picks remainder representatives and draws
dimension barriers.  A bug in any of those steps would silently produce a
wrong verdict — the worst failure mode for a dependence analyzer, because an
incorrect INDEPENDENT licenses an illegal loop transformation.

This module re-verifies every :class:`DelinearizationResult` through
*independent* machinery:

* **DS001** — every dimension barrier recorded in the Figure-5 trace is
  re-checked against theorem condition (8) via :mod:`repro.core.theorem`'s
  direct checker (:func:`make_candidate` / :func:`condition_holds`), replaying
  the running constant ``c0`` from the trace itself;
* **DS005** — for concrete equations that were fully separated, the product
  of the groups' solution counts must equal the equation's own solution
  count (the theorem's Cartesian-product claim), checked by exact counting;
* **DS002** — the verdict is compared against the exact solution count of
  concrete problems (ground truth);
* **DS003** — a DEPENDENT/MAYBE verdict is cross-checked against the GCD and
  Banerjee baselines: a baseline proving INDEPENDENT where delinearization
  claims DEPENDENT is an internal inconsistency;
* **DS004** — every direction vector realized by an actual solution must be
  covered by the reported direction-vector set.

DS002, DS004 and DS005 count solutions exactly with
:func:`repro.deptests.counting.solution_census` (a DP over partial sums, not
an enumeration), on boxes of at most :data:`DEFAULT_EXHAUSTIVE_LIMIT`
(2,000,000) points; a count that runs out of its budget skips its check.

Any DS diagnostic indicates a bug in the analyzer, never in the input
program.  The auditor never imports :mod:`repro.depgraph` (which imports it),
only :mod:`repro.core`, :mod:`repro.deptests` and :mod:`repro.symbolic`.
"""

from __future__ import annotations

from math import prod

from ..core.delinearize import DelinearizationResult, TraceRow, delinearize
from ..core.resilience import Budget
from ..core.theorem import condition_holds, head_extremes, make_candidate
from ..deptests import banerjee_test, gcd_test
from ..deptests.counting import solution_census
from ..deptests.problem import DependenceProblem, Verdict
from ..dirvec.vectors import DirVec
from ..ir.span import Span
from ..symbolic import LinExpr
from . import codes
from .diagnostics import Diagnostic

#: The counting checks (DS002, DS004, DS005) run on boxes of at most this
#: many points, and each check's counts together may take at most this many
#: DP transitions.
DEFAULT_EXHAUSTIVE_LIMIT = 2_000_000


def audit_problem(
    problem: DependenceProblem,
    *,
    statement: str | None = None,
    span: Span | None = None,
) -> tuple[DelinearizationResult, list[Diagnostic]]:
    """Run delinearization with a trace and audit the outcome."""
    result = delinearize(problem, keep_trace=True)
    diags = audit_result(problem, result, statement=statement, span=span)
    return result, diags


def audit_result(
    problem: DependenceProblem,
    result: DelinearizationResult,
    *,
    statement: str | None = None,
    span: Span | None = None,
) -> list[Diagnostic]:
    """All soundness checks over one delinearization outcome.

    The result must have been produced with ``keep_trace=True`` for the
    barrier re-verification (DS001) and group-conservation (DS005) checks;
    without a trace only the verdict-level checks run.
    """
    diags: list[Diagnostic] = []
    segments = _split_trace(result.trace)
    for index, rows in enumerate(segments):
        if index >= len(problem.equations):
            diags.append(
                _make(
                    codes.DS001,
                    f"trace has {len(segments)} equation segments, problem "
                    f"has {len(problem.equations)} equations",
                    statement,
                    span,
                )
            )
            break
        equation = problem.equations[index]
        diags.extend(
            _audit_equation_trace(
                equation, problem, rows, index, statement, span
            )
        )
        diags.extend(
            _audit_group_conservation(
                equation, problem, rows, index, statement, span
            )
        )
    diags.extend(_audit_verdict(problem, result, statement, span))
    return diags


# -- DS001: barrier replay ----------------------------------------------------


def _split_trace(trace: list[TraceRow]) -> list[list[TraceRow]]:
    """Per-equation segments: ``k`` restarts at 1 for each equation."""
    segments: list[list[TraceRow]] = []
    for row in trace:
        if row.k == 1 or not segments:
            segments.append([])
        segments[-1].append(row)
    return segments


def _is_barrier(row: TraceRow) -> bool:
    return (
        row.separated is not None
        or row.note.startswith("empty group")
        or row.note.startswith("independent")
    )


def _audit_equation_trace(
    equation: LinExpr,
    problem: DependenceProblem,
    rows: list[TraceRow],
    index: int,
    statement: str | None,
    span: Span | None,
) -> list[Diagnostic]:
    """Replay the trace of one equation, re-verifying every barrier."""
    assumptions = problem.assumptions
    bounds = {name: var.upper for name, var in problem.variables.items()}
    diags: list[Diagnostic] = []

    # Reconstruct the coefficient order the scan used and cross-check it
    # against the equation: a trace that talks about other coefficients is
    # not a trace of this equation.
    order: list[str] = []
    for row in rows:
        if row.var is None:
            continue
        order.append(row.var)
        actual = equation.coeff(row.var)
        if row.coeff is not None and actual != row.coeff:
            diags.append(
                _make(
                    codes.DS001,
                    f"equation {index}: trace coefficient {row.coeff} for "
                    f"{row.var} does not match the equation's {actual}",
                    statement,
                    span,
                )
            )

    c0 = equation.const
    group_start = 0
    for row in rows:
        if not _is_barrier(row):
            continue
        k_idx = row.k - 1  # 0-based scan position of this check
        r = row.separated.const if row.separated is not None else row.r
        if r is None:
            continue  # defensive: malformed row, nothing to replay
        if row.separated is not None:
            for name, coeff in row.separated.coeffs.items():
                if equation.coeff(name) != coeff:
                    diags.append(
                        _make(
                            codes.DS001,
                            f"equation {index}: separated group coefficient "
                            f"{coeff}*{name} does not match the equation's "
                            f"{equation.coeff(name)}*{name}",
                            statement,
                            span,
                        )
                    )
        head_vars = order[group_start:k_idx]
        residual_vars = order[group_start:]
        known = set(bounds)
        if any(v not in known for v in residual_vars):
            continue  # coefficient-order mismatch already reported above
        residual = LinExpr(
            {v: equation.coeff(v) for v in residual_vars}, c0
        )
        candidate = make_candidate(residual, bounds, head_vars, r)
        if not condition_holds(candidate, assumptions):
            diags.append(
                _make(
                    codes.DS001,
                    f"equation {index}: barrier at k={row.k} "
                    f"(d0={r}, head={head_vars or '[]'}) fails re-verified "
                    f"theorem condition (8)",
                    statement,
                    span,
                )
            )
        if row.note.startswith("independent: 0 not in"):
            extremes = head_extremes(candidate.head, candidate.d0, assumptions)
            proven = extremes is not None and bool(
                assumptions.is_pos(extremes[0])
                or assumptions.is_neg(extremes[1])
            )
            if not proven:
                diags.append(
                    _make(
                        codes.DS001,
                        f"equation {index}: independence claim at k={row.k} "
                        f"(0 outside [cmin, cmax]) is not reproducible",
                        statement,
                        span,
                    )
                )
        group_start = k_idx
        c0 = c0 - r
    return diags


# -- DS005: group conservation ------------------------------------------------


def _audit_group_conservation(
    equation: LinExpr,
    problem: DependenceProblem,
    rows: list[TraceRow],
    index: int,
    statement: str | None,
    span: Span | None,
) -> list[Diagnostic]:
    """Check the Cartesian-product claim by counting solutions.

    Only applies when the scan fully separated a concrete equation: the
    number of box points solving the equation must equal the product of the
    per-group solution counts (groups partition the equation's variables).
    """
    groups = [row.separated for row in rows if row.separated is not None]
    if not groups:
        return []
    group_vars: set[str] = set()
    for group in groups:
        if group_vars & group.variables():
            return []  # overlapping groups: replay already flagged DS001
        group_vars |= group.variables()
    if group_vars != equation.variables():
        return []  # partial separation: the theorem claims nothing
    bounds = {name: var.upper for name, var in problem.variables.items()}
    if not equation.is_integer_concrete():
        return []
    if not all(
        bounds[v].is_constant() for v in equation.variables()
    ) or not all(g.is_integer_concrete() for g in groups):
        return []
    box = 1
    for v in equation.variables():
        upper = bounds[v].as_int()
        box *= max(upper + 1, 0)
    if box > DEFAULT_EXHAUSTIVE_LIMIT:
        return []
    # The residual constant after all separations must be zero for a full
    # separation; a non-zero leftover means some r was dropped.
    leftover = equation.const
    for group in groups:
        leftover = leftover - group.const
    if not leftover.is_zero():
        return [
            _make(
                codes.DS005,
                f"equation {index}: group constants sum to "
                f"{equation.const - leftover}, equation has {equation.const}",
                statement,
                span,
            )
        ]
    if groups == [equation]:
        return []  # one group, the equation itself: the counts agree
    budget = Budget(steps=DEFAULT_EXHAUSTIVE_LIMIT, label="solution census")
    counts = [
        _count_zeros(expr, problem, budget) for expr in [equation, *groups]
    ]
    if None in counts:
        return []  # out of budget: the check is skipped
    equation_count, product = counts[0], prod(counts[1:])
    if equation_count != product:
        return [
            _make(
                codes.DS005,
                f"equation {index}: separated groups admit {product} "
                f"solutions, the equation has {equation_count} "
                f"(solution set not conserved)",
                statement,
                span,
            )
        ]
    return []


def _count_zeros(
    expr: LinExpr, problem: DependenceProblem, budget: Budget
) -> int | None:
    """Number of integer points of ``expr``'s own box at which it is zero.

    Counted over ``expr``'s variables only, keeping the problem's level
    pairs so a cancelling pair is one distance table; None when ``budget``
    runs out.
    """
    names = expr.variables()
    sub = DependenceProblem(
        [expr],
        [var for name, var in problem.variables.items() if name in names],
        problem.common_levels,
    )
    census = solution_census(sub, budget)
    return None if census is None else sum(census.values())


# -- DS002/DS003/DS004: verdict-level cross-checks ----------------------------


def _audit_verdict(
    problem: DependenceProblem,
    result: DelinearizationResult,
    statement: str | None,
    span: Span | None,
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    # DS003: the GCD test and Banerjee inequalities are sound independence
    # proofs; delinearization claiming a *proven* dependence where a baseline
    # proves independence is a contradiction regardless of problem size.
    if result.verdict is Verdict.DEPENDENT:
        for name, test in (("GCD", gcd_test), ("Banerjee", banerjee_test)):
            try:
                baseline = test(problem)
            except Exception:  # pragma: no cover - defensive
                continue
            if baseline is Verdict.INDEPENDENT:
                diags.append(
                    _make(
                        codes.DS003,
                        f"verdict DEPENDENT contradicts the {name} test's "
                        f"INDEPENDENT",
                        statement,
                        span,
                    )
                )

    small = (
        problem.is_concrete()
        and problem.iteration_count() <= DEFAULT_EXHAUSTIVE_LIMIT
    )
    if not small:
        return diags

    census = solution_census(
        problem,
        Budget(steps=DEFAULT_EXHAUSTIVE_LIMIT, label="solution census"),
    )
    if census is None:
        return diags  # out of budget: DS002 and DS004 are skipped
    if result.verdict is Verdict.INDEPENDENT and census:
        diags.append(
            _make(
                codes.DS002,
                "verdict INDEPENDENT but exhaustive enumeration finds a "
                "solution",
                statement,
                span,
            )
        )
    elif result.verdict is Verdict.DEPENDENT and not census:
        diags.append(
            _make(
                codes.DS002,
                "verdict DEPENDENT but exhaustive enumeration finds no "
                "solution",
                statement,
                span,
            )
        )

    # DS004: realized directions must be covered by the reported set.  The
    # census keys are directions over the complete level pairs, so the
    # check needs every common level to have one.
    if (
        result.verdict is not Verdict.INDEPENDENT
        and problem.common_levels > 0
        and all(
            problem.level_pair(level) is not None
            for level in range(1, problem.common_levels + 1)
        )
    ):
        reported = result.direction_vectors or {
            DirVec.star(problem.common_levels)
        }
        for vec in sorted(census, key=str):
            if not any(dv.contains(vec) for dv in reported):
                diags.append(
                    _make(
                        codes.DS004,
                        f"realized direction vector {vec} is not covered by "
                        f"the reported set "
                        f"{{{', '.join(sorted(map(str, reported)))}}}",
                        statement,
                        span,
                    )
                )
    return diags


def _make(
    code: str,
    message: str,
    statement: str | None,
    span: Span | None,
) -> Diagnostic:
    return Diagnostic.make(code, message, statement=statement, span=span)

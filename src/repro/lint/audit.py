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
  the running constant ``c0`` from the trace itself.  Every case split is
  re-derived: its cases must be exactly the head-sum values
  ``v ≡ -c0 (mod g)`` in the head's range, each case's head must be
  ``S - v``, and each case's barriers replay with constant ``c0 + v``;
* **DS005** — for concrete equations that were fully separated, the product
  of the groups' solution counts must equal the equation's own solution
  count (the theorem's Cartesian-product claim), checked by exact counting;
  a split sums that product over its cases;
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

from dataclasses import dataclass, field, replace
from math import gcd, prod
from typing import Callable

from ..core.delinearize import DelinearizationResult, TraceRow, delinearize
from ..core.resilience import Budget
from ..core.theorem import condition_holds, head_extremes, make_candidate
from ..deptests import banerjee_test, gcd_test
from ..deptests.counting import solution_census
from ..deptests.problem import DependenceProblem, Verdict
from ..dirvec.vectors import DirVec
from ..ir.span import Span
from ..symbolic import Assumptions, LinExpr, Poly
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

    A result rebuilt from an audited problem-cache entry carries that
    audit's findings without labels (``result.findings``); they are this
    problem's findings, so they are only relabelled, not re-derived.
    """
    if result.findings is not None:
        return [
            replace(finding, statement=statement, span=span)
            for finding in result.findings
        ]
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


@dataclass
class _Path:
    """One scan path of an equation's trace: its step rows, then at most
    one split, whose cases each pair a case row with the path continuing
    after it (empty when the case's head group is independent)."""

    rows: list[TraceRow] = field(default_factory=list)
    split: TraceRow | None = None
    cases: list[tuple[TraceRow, _Path]] = field(default_factory=list)


def _parse_path(
    rows: list[TraceRow], pos: int = 0, depth: int = 0
) -> tuple[_Path, int]:
    """The path at ``depth`` from ``rows[pos]``, and the position after it.

    A path ends at a row of another depth, at a case row (the next case of
    the enclosing split) or after its own split.
    """
    path = _Path()
    while pos < len(rows) and rows[pos].depth == depth:
        row = rows[pos]
        if row.note.startswith("case"):
            break
        pos += 1
        if not row.cases:
            path.rows.append(row)
            continue
        path.split = row
        while (
            pos < len(rows)
            and rows[pos].depth == depth + 1
            and rows[pos].note.startswith("case")
        ):
            case_row = rows[pos]
            case, pos = _parse_path(rows, pos + 1, depth + 1)
            path.cases.append((case_row, case))
        break
    return path, pos


def _audit_equation_trace(
    equation: LinExpr,
    problem: DependenceProblem,
    rows: list[TraceRow],
    index: int,
    statement: str | None,
    span: Span | None,
) -> list[Diagnostic]:
    """Replay the trace of one equation, re-verifying every barrier and
    every split along every case."""
    assumptions = problem.assumptions
    bounds = {name: var.upper for name, var in problem.variables.items()}
    diags: list[Diagnostic] = []

    def report(message: str) -> None:
        diags.append(
            _make(codes.DS001, f"equation {index}: {message}", statement, span)
        )

    # Reconstruct the coefficient order the scan used and cross-check it
    # against the equation: a trace that talks about other coefficients is
    # not a trace of this equation.  Split cases revisit steps, and every
    # visit must name the same variable.
    by_step: dict[int, str] = {}
    for row in rows:
        if row.var is None:
            continue
        actual = equation.coeff(row.var)
        if row.coeff is not None and actual != row.coeff:
            report(
                f"trace coefficient {row.coeff} for {row.var} does not "
                f"match the equation's {actual}"
            )
        named = by_step.setdefault(row.k - 1, row.var)
        if named != row.var:
            report(f"trace names {named} and {row.var} at step k={row.k}")
    order: list[str] = []
    while len(order) in by_step:
        order.append(by_step[len(order)])

    path, end = _parse_path(rows)
    if end < len(rows):
        report(f"trace row at k={rows[end].k} is outside the scan's paths")

    def check_group(group: LinExpr) -> None:
        for name, coeff in group.coeffs.items():
            if equation.coeff(name) != coeff:
                report(
                    f"separated group coefficient {coeff}*{name} does not "
                    f"match the equation's {equation.coeff(name)}*{name}"
                )

    # Depth first through the cases, without recursion: a recursive
    # closure would make every call leave a reference cycle behind.
    work = [(path, equation.const, 0)]
    while work:
        path, c0, group_start = work.pop()
        for row in path.rows:
            if not _is_barrier(row):
                continue
            k_idx = row.k - 1  # 0-based scan position of this check
            r = row.separated.const if row.separated is not None else row.r
            if r is None:
                continue  # defensive: malformed row, nothing to replay
            if row.separated is not None:
                check_group(row.separated)
            head_vars = order[group_start:k_idx]
            residual_vars = order[group_start:]
            if any(v not in bounds for v in residual_vars):
                continue  # coefficient-order mismatch already reported above
            residual = LinExpr(
                {v: equation.coeff(v) for v in residual_vars}, c0
            )
            candidate = make_candidate(residual, bounds, head_vars, r)
            if not condition_holds(candidate, assumptions) or (
                not candidate.tail and not candidate.big_d0.is_zero()
            ):
                report(
                    f"barrier at k={row.k} (d0={r}, head={head_vars or '[]'}) "
                    f"fails re-verified theorem condition (8)"
                )
            if row.note.startswith("independent: 0 not in"):
                extremes = head_extremes(
                    candidate.head, candidate.d0, assumptions
                )
                proven = extremes is not None and bool(
                    assumptions.is_pos(extremes[0])
                    or assumptions.is_neg(extremes[1])
                )
                if not proven:
                    report(
                        f"independence claim at k={row.k} (0 outside "
                        f"[cmin, cmax]) is not reproducible"
                    )
            group_start = k_idx
            c0 = c0 - r
        if path.split is None:
            continue
        row = path.split
        k_idx = row.k - 1
        head_vars = order[group_start:k_idx]
        values = _split_values(
            equation, bounds, order, group_start, k_idx, c0, assumptions
        )
        if values is None:
            report(f"split at k={row.k} cannot be re-verified")
            continue
        if list(row.cases) != values:
            report(
                f"split at k={row.k} has cases v in {_set(row.cases)}, the "
                f"head sum takes v in {_set(values)}"
            )
        if len(path.cases) != len(row.cases):
            report(
                f"split at k={row.k} lists {len(row.cases)} cases, the trace "
                f"has {len(path.cases)}"
            )
        cases = []
        for (case_row, case), v in zip(path.cases, row.cases):
            head = LinExpr(
                {name: equation.coeff(name) for name in head_vars}, -v
            )
            if case_row.separated != head:
                report(
                    f"case v={v} at k={row.k} solves "
                    f"{case_row.separated} = 0, not {head} = 0"
                )
            cases.append((case, c0 + v, k_idx))
        work.extend(reversed(cases))
    return diags


def _split_values(
    equation: LinExpr,
    bounds: dict[str, Poly],
    order: list[str],
    group_start: int,
    k_idx: int,
    c0: Poly,
    assumptions: Assumptions,
) -> list[Poly] | None:
    """Every value ``v ≡ -c0 (mod g)`` of the head sum over
    ``order[group_start:k_idx]``, where ``g`` is the gcd of every coefficient
    from step ``k_idx`` on; None unless all of it is concrete."""
    if any(v not in bounds for v in equation.coeffs):
        return None
    head = tuple(
        (v, equation.coeff(v), bounds[v]) for v in order[group_start:k_idx]
    )
    extremes = head_extremes(head, Poly(), assumptions)
    earlier = set(order[:k_idx])
    rest = [c for v, c in equation.coeffs.items() if v not in earlier]
    if extremes is None or not all(
        p.is_constant() for p in (*extremes, c0, *rest)
    ):
        return None
    g = gcd(*(c.as_int() for c in rest))
    if g == 0:
        return None
    lo, hi = (e.as_int() for e in extremes)
    start = lo + (-c0.as_int() - lo) % g
    return [Poly.const(v) for v in range(start, hi + 1, g)]


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
    A split sums that product over its cases, each case's head group
    included; a case that ends in an independence claim counts zero.
    """
    split = any(row.cases for row in rows)
    groups = [row.separated for row in rows if row.separated is not None]
    if not groups:
        return []
    if not split:
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
        box *= max(bounds[v].as_int() + 1, 0)
    if box > DEFAULT_EXHAUSTIVE_LIMIT:
        return []
    if split:
        return _audit_split_conservation(
            equation, problem, _parse_path(rows)[0], index, statement, span
        )
    # The residual constant after all separations must be zero for a full
    # separation; a non-zero leftover means some r was dropped.
    leftover = equation.const
    for group in groups:
        leftover = leftover - group.const
    if not leftover.is_zero():
        total = equation.const - leftover
        return [_leftover(equation, total, index, statement, span)]
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


class _Uncountable(Exception):
    """A split's claim cannot be counted: a partial or overlapping
    separation (the replay reports what is malformed) or a spent budget."""


def _audit_split_conservation(
    equation: LinExpr,
    problem: DependenceProblem,
    path: _Path,
    index: int,
    statement: str | None,
    span: Span | None,
) -> list[Diagnostic]:
    """DS005 for a split equation: ``sum over cases of prod over groups``
    must equal the equation's own count, and the group constants along each
    fully separated case must add up to the equation's constant."""
    budget = Budget(steps=DEFAULT_EXHAUSTIVE_LIMIT, label="solution census")
    counts: dict[LinExpr, int] = {}
    sums: list[Poly] = []

    def count(group: LinExpr | None, covered: frozenset[str]) -> int:
        if (
            group is None
            or covered & group.variables()
            or not group.is_integer_concrete()
        ):
            raise _Uncountable
        if group not in counts:
            found = _count_zeros(group, problem, budget)
            if found is None:
                raise _Uncountable
            counts[group] = found
        return counts[group]

    try:
        total = _claimed(path, frozenset(), Poly(), count, equation, sums)
        equation_count = count(equation, frozenset())
    except _Uncountable:
        return []
    wrong = [const for const in sums if const != equation.const]
    if wrong:
        return [_leftover(equation, wrong[0], index, statement, span)]
    if total != equation_count:
        return [
            _make(
                codes.DS005,
                f"equation {index}: split cases admit {total} solutions, "
                f"the equation has {equation_count} (solution set not "
                f"conserved)",
                statement,
                span,
            )
        ]
    return []


def _claimed(
    path: _Path,
    covered: frozenset[str],
    const: Poly,
    count: Callable[[LinExpr | None, frozenset[str]], int],
    equation: LinExpr,
    sums: list[Poly],
) -> int:
    """The solutions ``path`` claims: the product of its groups' counts,
    times the sum over its split's cases; appends each fully separated
    case's constant sum to ``sums``."""
    product = 1
    for row in path.rows:
        if row.note.startswith("independent"):
            return 0
        if row.separated is not None:
            product *= count(row.separated, covered)
            covered |= row.separated.variables()
            const = const + row.separated.const
    if path.split is None:
        if covered != equation.variables():
            raise _Uncountable  # partial separation
        sums.append(const)
        return product
    total = 0
    for case_row, case in path.cases:
        if not case.rows and case.split is None:
            continue  # an independent head: the case claims no solution
        head = case_row.separated
        total += count(head, covered) * _claimed(
            case,
            covered | head.variables(),
            const + head.const,
            count,
            equation,
            sums,
        )
    return product * total


def _leftover(
    equation: LinExpr,
    total: Poly,
    index: int,
    statement: str | None,
    span: Span | None,
) -> Diagnostic:
    return _make(
        codes.DS005,
        f"equation {index}: group constants sum to {total}, equation has "
        f"{equation.const}",
        statement,
        span,
    )


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


def _set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _make(
    code: str,
    message: str,
    statement: str | None,
    span: Span | None,
) -> Diagnostic:
    return Diagnostic.make(code, message, statement=statement, span=span)

"""The delinearization algorithm (paper, Figure 4).

Given a dependence equation ``c0 + sum(ck * zk) = 0`` with ``zk in [0, Zk]``,
the algorithm:

1. orders the coefficients by absolute value (symbolically: by provable
   magnitude, e.g. ``1 < N < N**2`` under ``N >= 1``);
2. scans them from smallest to largest, maintaining the running extremes
   ``smin``/``smax`` of the processed partial sum;
3. computes suffix gcds ``gk = gcd(c_Ik, ..., c_In)`` and the remainder
   ``r = c0 mod gk``; whenever ``max(|smin + r|, |smax + r|) < gk`` the
   theorem's condition (8) holds and a *dimension barrier* is drawn:
   the processed group becomes an independently solvable equation
   ``r + sum(group) = 0``;
4. on the fly, a barrier with ``cmin > 0`` or ``cmax < 0`` proves
   independence — with exactly the sharpness of the GCD test plus Banerjee
   inequalities applied per separated dimension (paper, Section 3);
5. each separated group is handed to the group solver
   (:mod:`repro.core.groups`) and the resulting direction-vector sets are
   merged as ``DirVecs = {dv ∩ nv != ∅}``.

Deviations from the paper's literal pseudo-code, all discussed in DESIGN.md:

* ``r`` is tried both as the canonical remainder and as ``r - gk`` (the
  least-absolute representative); the theorem allows any decomposition
  ``c0 = d0 + D0`` with ``gk | D0``, and the paper's own Figure-5 trace
  requires the negative representative at its fifth step (``-110 mod 100``
  must be taken as ``-10``, not ``90``).
* symbolic coefficients are ordered by a provable-magnitude comparison and
  any barrier is re-verified through the theorem condition, so an imperfect
  order can only lose precision, never soundness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key

from ..dirvec.vectors import DirVec, DistanceElem, DistanceVec, merge_direction_sets
from ..symbolic import Assumptions, LinExpr, Poly, poly_gcd_many
from ..deptests.problem import DependenceProblem, Verdict
from .chaos import chaos_point
from .groups import GroupSolution, solve_group
from .resilience import Budget


@dataclass(frozen=True)
class TraceRow:
    """One iteration of the scan, for the Figure-5 style trace table."""

    k: int
    coeff: Poly | None  # the coefficient admitted *after* this check
    var: str | None
    smin: Poly | None
    smax: Poly | None
    gk: Poly | None  # None encodes the final "infinite" gcd
    r: Poly | None
    separated: LinExpr | None
    note: str = ""

    def __str__(self) -> str:
        gk = "inf" if self.gk is None else str(self.gk)
        sep = f"  separated: {self.separated} = 0" if self.separated else ""
        note = f"  [{self.note}]" if self.note else ""
        coeff = "-" if self.coeff is None else str(self.coeff)
        return (
            f"k={self.k}: c={coeff} smin={self.smin} smax={self.smax} "
            f"g={gk} r={self.r}{sep}{note}"
        )


@dataclass
class DelinearizationResult:
    """Everything the algorithm learned about one dependence equation."""

    verdict: Verdict
    groups: list[GroupSolution] = field(default_factory=list)
    direction_vectors: set[DirVec] = field(default_factory=set)
    distances: dict[int, Poly] = field(default_factory=dict)
    trace: list[TraceRow] = field(default_factory=list)
    dimensions_found: int = 0

    @property
    def independent(self) -> bool:
        return self.verdict is Verdict.INDEPENDENT

    def distance_direction_vector(
        self, common_levels: int
    ) -> DistanceVec | None:
        """Assemble the distance-direction vector (None when independent)."""
        if self.independent:
            return None
        elements = []
        directions = self.direction_vectors or {DirVec.star(common_levels)}
        for level in range(1, common_levels + 1):
            distance = self.distances.get(level)
            if distance is not None and distance.is_constant():
                elements.append(DistanceElem.exact(distance.as_int()))
            else:
                merged = None
                for vec in directions:
                    elem = vec[level - 1]
                    merged = elem if merged is None else (merged | elem)
                elements.append(DistanceElem.unknown(merged))
        return DistanceVec(elements)

    def format_trace(self) -> str:
        return "\n".join(str(row) for row in self.trace)


def delinearize(
    problem: DependenceProblem,
    sort_coefficients: bool = True,
    keep_trace: bool = False,
    use_fast_path: bool = True,
    budget: Budget | None = None,
) -> DelinearizationResult:
    """Run the Figure-4 algorithm on every equation of ``problem``.

    The per-equation results combine conjunctively: any independent equation
    makes the problem independent; direction-vector sets merge by
    intersection; the problem is proven DEPENDENT only when every equation's
    every group is exactly solvable and solvable.

    A caller-supplied ``budget`` is charged per scan step and threaded into
    the group solver's concrete enumeration; exhaustion raises
    :exc:`~repro.core.resilience.BudgetExhausted`, which the per-pair
    barrier in :mod:`repro.depgraph.builder` turns into a conservative
    assumed dependence.
    """
    chaos_point("delinearize.scan")
    combined = DelinearizationResult(
        verdict=Verdict.DEPENDENT,
        direction_vectors={DirVec.star(problem.common_levels)},
    )
    for equation in problem.equations:
        if (
            use_fast_path
            and equation.is_integer_concrete()
            and all(
                problem.variables[n].upper.is_constant()
                for n in equation.variables()
            )
        ):
            result = _delinearize_equation_int(
                equation, problem, sort_coefficients, keep_trace, budget
            )
        else:
            result = _delinearize_equation(
                equation, problem, sort_coefficients, keep_trace, budget
            )
        combined.trace.extend(result.trace)
        combined.groups.extend(result.groups)
        combined.dimensions_found += result.dimensions_found
        if result.verdict is Verdict.INDEPENDENT:
            combined.verdict = Verdict.INDEPENDENT
            combined.direction_vectors = set()
            return combined
        if result.verdict is Verdict.MAYBE:
            if combined.verdict is not Verdict.INDEPENDENT:
                combined.verdict = Verdict.MAYBE
        combined.direction_vectors = merge_direction_sets(
            combined.direction_vectors, result.direction_vectors
        )
        if not combined.direction_vectors:
            combined.verdict = Verdict.INDEPENDENT
            return combined
        for level, distance in result.distances.items():
            existing = combined.distances.get(level)
            if existing is not None and existing != distance:
                # Two equations pin incompatible distances: independent.
                combined.verdict = Verdict.INDEPENDENT
                combined.direction_vectors = set()
                return combined
            combined.distances[level] = distance
    if combined.verdict is Verdict.DEPENDENT and len(problem.equations) > 1:
        # Per-equation DEPENDENT verdicts only compose into a system-level
        # proof when the equations constrain disjoint variables (otherwise a
        # shared variable may need incompatible values).
        seen: set[str] = set()
        for equation in problem.equations:
            names = equation.variables()
            if names & seen:
                combined.verdict = Verdict.MAYBE
                break
            seen |= names
    return combined


def _delinearize_equation(
    equation: LinExpr,
    problem: DependenceProblem,
    sort_coefficients: bool,
    keep_trace: bool,
    budget: Budget | None = None,
) -> DelinearizationResult:
    assumptions = problem.assumptions
    result = DelinearizationResult(
        verdict=Verdict.DEPENDENT,
        direction_vectors={DirVec.star(problem.common_levels)},
    )

    entries = [
        (name, coeff, problem.variables[name].upper)
        for name, coeff in equation.coeffs.items()
    ]
    if sort_coefficients:
        entries.sort(key=cmp_to_key(_magnitude_cmp(assumptions)))
    order = entries
    n = len(order)

    # Suffix gcds: gk = gcd(c_Ik, ..., c_In).
    suffix_gcd: list[Poly | None] = [None] * (n + 1)
    acc = Poly()
    for index in range(n - 1, -1, -1):
        acc = poly_gcd_many([acc, order[index][1]])
        suffix_gcd[index] = acc

    c0 = equation.const
    smin: Poly | None = Poly()
    smax: Poly | None = Poly()
    group_start = 0
    fully_separated = False

    for k in range(n + 1):
        if budget is not None:
            budget.charge()
        gk = suffix_gcd[k] if k < n else None  # None = infinity
        pre_smin, pre_smax = smin, smax
        if gk is None:
            r_display: Poly | None = c0
        elif gk.is_zero():
            r_display = c0
        else:
            r_display = _candidate_remainders(c0, gk)[0]
        barrier = _try_barrier(c0, smin, smax, gk, assumptions)
        separated: LinExpr | None = None
        note = ""
        if barrier is not None:
            r, cmin, cmax = barrier
            if assumptions.is_pos(cmin) or assumptions.is_neg(cmax):
                result.verdict = Verdict.INDEPENDENT
                result.direction_vectors = set()
                if keep_trace:
                    result.trace.append(
                        TraceRow(
                            k + 1,
                            order[k][1] if k < n else None,
                            order[k][0] if k < n else None,
                            pre_smin,
                            pre_smax,
                            gk,
                            r,
                            None,
                            "independent: 0 not in [cmin, cmax]",
                        )
                    )
                return result
            group_vars = order[group_start:k]
            separated = LinExpr(
                {name: coeff for name, coeff, _ in group_vars}, r
            )
            if group_vars or not r.is_zero():
                solution = solve_group(separated, problem, budget=budget)
                result.groups.append(solution)
                result.dimensions_found += 1
                if solution.verdict is Verdict.INDEPENDENT:
                    result.verdict = Verdict.INDEPENDENT
                    result.direction_vectors = set()
                    if keep_trace:
                        result.trace.append(
                            TraceRow(
                                k + 1,
                                order[k][1] if k < n else None,
                                order[k][0] if k < n else None,
                                pre_smin,
                                pre_smax,
                                gk,
                                r,
                                separated,
                                f"independent ({solution.method})",
                            )
                        )
                    return result
                if solution.verdict is Verdict.MAYBE:
                    result.verdict = Verdict.MAYBE
                if solution.dirvecs is not None:
                    result.direction_vectors = merge_direction_sets(
                        result.direction_vectors, solution.dirvecs
                    )
                    if not result.direction_vectors:
                        result.verdict = Verdict.INDEPENDENT
                        return result
                result.distances.update(solution.distances)
                note = f"dimension separated ({solution.method})"
            else:
                separated = None
                note = "empty group (gcd passes)"
            smin = Poly()
            smax = Poly()
            group_start = k
            c0 = c0 - r
            if k == n:
                fully_separated = True
        if keep_trace:
            result.trace.append(
                TraceRow(
                    k + 1,
                    order[k][1] if k < n else None,
                    order[k][0] if k < n else None,
                    pre_smin,
                    pre_smax,
                    gk,
                    barrier[0] if barrier is not None else r_display,
                    separated,
                    note or ("no barrier" if barrier is None else ""),
                )
            )
        if k < n:
            _, coeff, upper = order[k]
            smin, smax = _admit(coeff, upper, smin, smax, assumptions)

    if result.verdict is Verdict.DEPENDENT:
        # Only exact when the scan separated the whole equation AND every
        # group was solved exactly as DEPENDENT; the Cartesian-product
        # theorem then guarantees a full solution.
        if not fully_separated or not all(
            g.verdict is Verdict.DEPENDENT for g in result.groups
        ):
            result.verdict = Verdict.MAYBE
    return result


def _delinearize_equation_int(
    equation: LinExpr,
    problem: DependenceProblem,
    sort_coefficients: bool,
    keep_trace: bool,
    budget: Budget | None = None,
) -> DelinearizationResult:
    """Plain-integer specialization of the scan (identical semantics).

    Concrete problems dominate in practice (every reference pair of a
    program with constant loop bounds); running the scan on machine ints
    avoids the polynomial wrappers entirely.  A differential property test
    keeps this path in lock-step with the generic one.
    """
    import math

    result = DelinearizationResult(
        verdict=Verdict.DEPENDENT,
        direction_vectors={DirVec.star(problem.common_levels)},
    )
    order = [
        (name, coeff.as_int(), problem.variables[name].upper.as_int())
        for name, coeff in equation.coeffs.items()
    ]
    if sort_coefficients:
        order.sort(key=lambda entry: abs(entry[1]))
    n = len(order)

    suffix_gcd = [0] * (n + 1)
    acc = 0
    for index in range(n - 1, -1, -1):
        acc = math.gcd(acc, abs(order[index][1]))
        suffix_gcd[index] = acc

    c0 = equation.const.as_int()
    smin = smax = 0
    group_start = 0
    fully_separated = False

    for k in range(n + 1):
        if budget is not None:
            budget.charge()
        gk = suffix_gcd[k] if k < n else None  # None = infinity
        pre_smin, pre_smax = smin, smax
        barrier: tuple[int, int, int] | None = None
        if gk is None:
            barrier = (c0, smin + c0, smax + c0)
        elif gk == 0:
            barrier = (c0, smin + c0, smax + c0)
        else:
            for r in _candidate_remainders_int(c0, gk):
                cmin, cmax = smin + r, smax + r
                if max(abs(cmin), abs(cmax)) < gk:
                    barrier = (r, cmin, cmax)
                    break
        separated: LinExpr | None = None
        note = ""
        if barrier is not None:
            r, cmin, cmax = barrier
            if cmin > 0 or cmax < 0:
                result.verdict = Verdict.INDEPENDENT
                result.direction_vectors = set()
                if keep_trace:
                    result.trace.append(
                        _int_trace_row(
                            k, order, n, pre_smin, pre_smax, gk, r, None,
                            "independent: 0 not in [cmin, cmax]",
                        )
                    )
                return result
            group_vars = order[group_start:k]
            separated = LinExpr(
                {name: coeff for name, coeff, _ in group_vars}, r
            )
            if group_vars or r != 0:
                solution = solve_group(separated, problem, budget=budget)
                result.groups.append(solution)
                result.dimensions_found += 1
                if solution.verdict is Verdict.INDEPENDENT:
                    result.verdict = Verdict.INDEPENDENT
                    result.direction_vectors = set()
                    if keep_trace:
                        result.trace.append(
                            _int_trace_row(
                                k, order, n, pre_smin, pre_smax, gk, r,
                                separated, f"independent ({solution.method})",
                            )
                        )
                    return result
                if solution.verdict is Verdict.MAYBE:
                    result.verdict = Verdict.MAYBE
                if solution.dirvecs is not None:
                    result.direction_vectors = merge_direction_sets(
                        result.direction_vectors, solution.dirvecs
                    )
                    if not result.direction_vectors:
                        result.verdict = Verdict.INDEPENDENT
                        return result
                result.distances.update(solution.distances)
                note = f"dimension separated ({solution.method})"
            else:
                separated = None
                note = "empty group (gcd passes)"
            smin = smax = 0
            group_start = k
            c0 -= r
            if k == n:
                fully_separated = True
        if keep_trace:
            shown_r = barrier[0] if barrier is not None else (
                c0 if gk in (None, 0) else _candidate_remainders_int(c0, gk)[0]
            )
            result.trace.append(
                _int_trace_row(
                    k, order, n, pre_smin, pre_smax, gk, shown_r,
                    separated, note or ("no barrier" if barrier is None else ""),
                )
            )
        if k < n:
            _, coeff, upper = order[k]
            if coeff > 0:
                smax += coeff * upper
            elif coeff < 0:
                smin += coeff * upper

    if result.verdict is Verdict.DEPENDENT:
        if not fully_separated or not all(
            g.verdict is Verdict.DEPENDENT for g in result.groups
        ):
            result.verdict = Verdict.MAYBE
    return result


def _candidate_remainders_int(c0: int, gk: int) -> tuple[int, ...]:
    """Integer twin of :func:`_candidate_remainders` (kept in lock-step)."""
    r = c0 % gk
    if r == 0:
        return (0,)
    return (r, r - gk)


def _int_trace_row(
    k: int,
    order: list,
    n: int,
    smin: int,
    smax: int,
    gk: int | None,
    r: int | None,
    separated: LinExpr | None,
    note: str,
) -> TraceRow:
    return TraceRow(
        k + 1,
        Poly.const(order[k][1]) if k < n else None,
        order[k][0] if k < n else None,
        Poly.const(smin),
        Poly.const(smax),
        None if gk is None else Poly.const(gk),
        None if r is None else Poly.const(r),
        separated,
        note,
    )


def _try_barrier(
    c0: Poly,
    smin: Poly | None,
    smax: Poly | None,
    gk: Poly | None,
    assumptions: Assumptions,
) -> tuple[Poly, Poly, Poly] | None:
    """Check the theorem condition; returns (r, cmin, cmax) on success.

    ``gk is None`` encodes the infinite gcd of the final iteration: the
    condition always holds there with ``r = c0``.
    """
    if smin is None or smax is None:
        return None  # poisoned by an unknown-sign coefficient
    if gk is None:
        return c0, smin + c0, smax + c0
    for r in _candidate_remainders(c0, gk):
        cmin = smin + r
        cmax = smax + r
        # max(|cmin|, |cmax|) < gk  <=>  cmax < gk and -gk < cmin.
        if assumptions.is_lt(cmax, gk) and assumptions.is_lt(-gk, cmin):
            return r, cmin, cmax
    return None


def _candidate_remainders(c0: Poly, gk: Poly) -> list[Poly]:
    """Decompositions ``c0 = (c0 - r) + r`` with ``gk`` dividing ``c0 - r``.

    The canonical remainder is tried first, then the least-absolute
    representative ``r - gk`` (needed e.g. for ``-110 mod 100``: the paper's
    Figure-5 trace separates ``10*j1 - 10*i2 - 10``, which requires
    ``r = -10`` rather than ``+90``).
    """
    if gk.is_zero():
        return [c0]
    _, r = c0.divmod_single(gk)
    if r.is_zero():
        return [r]
    return [r, r - gk]


def _admit(
    coeff: Poly,
    upper: Poly,
    smin: Poly | None,
    smax: Poly | None,
    assumptions: Assumptions,
) -> tuple[Poly | None, Poly | None]:
    """Extend the running extremes with ``coeff * z``, ``z in [0, upper]``."""
    if smin is None or smax is None:
        return None, None
    if assumptions.is_nonneg(upper) is None:
        return None, None
    sign = assumptions.sign(coeff)
    if sign is None:
        return None, None
    contribution = coeff * upper
    if sign > 0:
        return smin, smax + contribution
    if sign < 0:
        return smin + contribution, smax
    return smin, smax


def _magnitude_cmp(assumptions: Assumptions):
    """Comparator ordering coefficients by provable |c| (heuristic ties).

    Unknown comparisons fall back to (degree, content) which is correct for
    the single-term symbolic coefficients arising from linearized subscripts.
    An imperfect order cannot cause unsoundness: every barrier is gated by
    the theorem condition.
    """

    def compare(a: tuple[str, Poly, Poly], b: tuple[str, Poly, Poly]) -> int:
        pa = assumptions.abs_poly(a[1])
        pb = assumptions.abs_poly(b[1])
        if pa is not None and pb is not None:
            if pa == pb:
                return 0
            if assumptions.is_le(pa, pb):
                return -1
            if assumptions.is_le(pb, pa):
                return 1
        ka = (a[1].degree(), a[1].content())
        kb = (b[1].degree(), b[1].content())
        return -1 if ka < kb else (1 if ka > kb else 0)

    return compare

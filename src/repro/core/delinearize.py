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
* where no barrier holds at step ``k``, the paper's scan moves on and the
  unseparated remainder ends up in the group solver's GCD + Banerjee
  refinement (MAYBE).  Here the scan may instead *split* the remainder into
  cases, one per value ``v ≡ -c0 (mod gk)`` of the head sum in
  ``[smin, smax]``: each case solves ``head - v = 0`` and scans the rest
  with constant ``c0 + v`` (the theorem's ``d0 = -v``).  The result is the
  union over cases (see :func:`_split` for when a split applies and
  :data:`SPLIT_CASE_LIMIT` / :data:`SPLIT_LEAF_LIMIT` for its bounds).

One scan serves symbolic and concrete equations alike: on an equation with
integer coefficients and constant bounds it runs on plain ints (see
:class:`_Scan`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Callable

from ..dirvec.vectors import DirVec, DistanceElem, DistanceVec, merge_direction_sets
from ..symbolic import Assumptions, LinExpr, Poly, poly_gcd
from ..deptests.problem import DependenceProblem, Verdict
from .chaos import chaos_point
from .groups import GroupSolution, solve_group
from .resilience import Budget

#: Most cases one split step enumerates; a step whose head sum takes more
#: admissible values is scanned on without splitting.
SPLIT_CASE_LIMIT = 8

#: Most leaf cases the splits of one equation create together (cases
#: double per split level); past it the equation is scanned unsplit.
SPLIT_LEAF_LIMIT = 32


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
    #: Split nesting: the rows of a split's cases are one level deeper.
    depth: int = 0
    #: On a split row, the head-sum values ``v``, one case each.
    cases: tuple[Poly, ...] = ()

    def __str__(self) -> str:
        gk = "inf" if self.gk is None else str(self.gk)
        sep = f"  separated: {self.separated} = 0" if self.separated else ""
        note = f"  [{self.note}]" if self.note else ""
        coeff = "-" if self.coeff is None else str(self.coeff)
        return (
            f"{'  ' * self.depth}"
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
    #: The soundness-audit findings stored with a cached outcome, without
    #: their statement and span labels; None unless the result was rebuilt
    #: from an audited :class:`~repro.core.cache.ProblemCache` entry.
    findings: tuple | None = None

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


@dataclass
class CaseMemo:
    """Split-case work, keyed by what determines it: head solutions by head
    equation, continuations by ``(step, constant, depth)``.  Different cases
    reach the same rest, and so do problems of one equation family (see
    :class:`_Scan`)."""

    heads: dict[LinExpr, GroupSolution] = field(default_factory=dict)
    rests: dict[tuple[int, int, int], DelinearizationResult] = field(
        default_factory=dict
    )


#: Finds the case memo of a scan order's equation family.
Families = Callable[[list], CaseMemo]


def delinearize(
    problem: DependenceProblem,
    sort_coefficients: bool = True,
    keep_trace: bool = False,
    budget: Budget | None = None,
    *,
    families: Families | None = None,
) -> DelinearizationResult:
    """Run the Figure-4 algorithm on every equation of ``problem``.

    The per-equation results combine conjunctively: any independent equation
    makes the problem independent; direction-vector sets merge by
    intersection; the problem is proven DEPENDENT only when every equation's
    every group is exactly solvable and solvable.  A variable with a
    negative constant upper bound empties the iteration box: the problem is
    independent without a scan.

    A caller-supplied ``budget`` is charged per scan step and per split
    case and threaded into the group solver's concrete enumeration;
    exhaustion raises
    :exc:`~repro.core.resilience.BudgetExhausted`, which the per-pair
    barrier in :mod:`repro.depgraph.builder` turns into a conservative
    assumed dependence.

    ``families`` maps a scan order to its family's shared
    :class:`CaseMemo` (:meth:`~repro.core.cache.ProblemCache.family`);
    without it each equation keeps its own.  A scan that raises takes back
    every entry it added to a shared memo.
    """
    chaos_point("delinearize.scan")
    empty = _empty_range(problem)
    if empty is not None:
        result = DelinearizationResult(verdict=Verdict.INDEPENDENT)
        if keep_trace:
            row = TraceRow(1, None, None, None, None, None, None, None, empty)
            result.trace.append(row)
        return result
    combined = DelinearizationResult(
        verdict=Verdict.DEPENDENT,
        direction_vectors={DirVec.star(problem.common_levels)},
    )
    for equation in problem.equations:
        result = _delinearize_equation(
            equation, problem, sort_coefficients, keep_trace, budget, families
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


def _empty_range(problem: DependenceProblem) -> str | None:
    """The trace note of a variable with a negative constant upper bound, if
    any.  Symbolic bounds skip the prover (a call per variable of every
    problem): the scan already treats a bound not proven nonnegative as
    unknown."""
    for name, var in problem.variables.items():
        if var.upper.constant_term() < 0 and var.upper.is_constant():
            return f"empty range: {name} in [0, {var.upper}]"
    return None


@dataclass
class _Scan:
    """What every step of one equation's scan shares, split cases included.

    ``order`` holds ``(name, coeff, upper)`` in scan order and
    ``suffix_gcd[k]`` the gcd of ``order[k:]``'s coefficients.  When the
    equation has integer coefficients and constant bounds these, and every
    constant and extreme of the scan, are plain ints; otherwise they are
    polynomials.  Only the arithmetic helpers (:func:`_admit`,
    :func:`_try_barrier`, :func:`_candidate_remainders`, :func:`_is_pos`,
    :func:`_is_neg` and :func:`_trace_row`) tell the two apart.

    The case memo is per *equation family*: a scan order in one problem
    context (the variables with their uppers, levels and sides, the common
    levels, the intervals of the symbols, and whether a trace is kept).
    Problems of one family differ only in their constant, and a case tree
    depends on it only through the head values and the rests' constants,
    which key the memo; so every problem of the family shares one.  On a
    :class:`~repro.core.cache.ProblemCache` the family's memo lives on the
    cache (``families``); otherwise each equation has its own.  Either way
    it is found at the first head or rest lookup, so scans that never
    split build no family key.
    """

    order: list
    suffix_gcd: list
    #: How the scan writes an integer constant: ``int`` or ``Poly.const``.
    constant: Callable[[int], int | Poly]
    problem: DependenceProblem
    keep_trace: bool
    budget: Budget | None
    #: Finds the family's memo on a cache; None: the equation's own memo.
    families: Families | None = None
    #: Split nesting of the scan now running; trace rows record it.
    depth: int = 0
    #: False once a split was refused for its size: the rest of the
    #: equation is scanned without splits.
    splitting: bool = True
    #: Scan positions of the two variables of each level pair present.
    pair_positions: list[tuple[int, int]] | None = None
    #: The case memo, once looked up.
    memo: CaseMemo | None = None
    #: What this scan added to the memo, as (table, key), so that a scan
    #: that raises can take it back.
    stored: list[tuple[dict, object]] = field(default_factory=list)


def _delinearize_equation(
    equation: LinExpr,
    problem: DependenceProblem,
    sort_coefficients: bool,
    keep_trace: bool,
    budget: Budget | None = None,
    families: Families | None = None,
) -> DelinearizationResult:
    order = [
        (name, coeff, problem.variables[name].upper)
        for name, coeff in equation.coeffs.items()
    ]
    c0 = equation.const
    if equation.is_integer_concrete() and all(
        upper.is_constant() for _, _, upper in order
    ):
        # Concrete equations dominate in practice (every reference pair of a
        # program with constant loop bounds): scan them on machine ints.
        order = [(n, c.as_int(), u.as_int()) for n, c, u in order]
        if sort_coefficients:
            order.sort(key=lambda entry: abs(entry[1]))
        c0, constant, gcd = c0.as_int(), int, math.gcd
    else:
        if sort_coefficients:
            order.sort(key=cmp_to_key(_magnitude_cmp(problem.assumptions)))
        constant, gcd = Poly.const, poly_gcd

    # Suffix gcds: gk = gcd(c_Ik, ..., c_In).
    suffix_gcd = []
    acc = constant(0)
    for _, coeff, _ in reversed(order):
        acc = gcd(acc, coeff)
        suffix_gcd.append(acc)
    suffix_gcd.reverse()

    scan = _Scan(
        order, suffix_gcd, constant, problem, keep_trace, budget, families
    )
    try:
        return _scan(scan, c0, 0, 0)
    except BaseException:
        # Budget exhaustion: what the scan stored may be complete, but no
        # member of the family keeps work from a scan that gave up.
        for table, key in scan.stored:
            del table[key]
        raise


def _scan(
    scan: _Scan, c0: int | Poly, group_start: int, start: int
) -> DelinearizationResult:
    """The scan from step ``start``, with ``order[group_start:start]``
    already admitted to the unseparated group."""
    problem, order, suffix_gcd = scan.problem, scan.order, scan.suffix_gcd
    assumptions = problem.assumptions
    keep_trace, budget = scan.keep_trace, scan.budget
    n = len(order)
    result = DelinearizationResult(
        verdict=Verdict.DEPENDENT,
        direction_vectors={DirVec.star(problem.common_levels)},
    )
    smin = smax = scan.constant(0)
    for _, coeff, upper in order[group_start:start]:
        smin, smax = _admit(coeff, upper, smin, smax, assumptions)
    fully_separated = False

    for k in range(start, n + 1):
        if budget is not None:
            budget.charge()
        gk = suffix_gcd[k] if k < n else None  # None = infinity
        pre_smin, pre_smax = smin, smax
        barrier = _try_barrier(c0, smin, smax, gk, assumptions)
        held = (
            scan.depth > 0
            and barrier is not None
            and _holds_barrier(scan, group_start, k)
            and not _is_pos(barrier[1], assumptions)
            and not _is_neg(barrier[2], assumptions)
        )
        if held:
            barrier = None
        if barrier is None and gk is not None:
            ints = _as_ints(c0, smin, smax, gk, suffix_gcd[group_start])
            if ints is not None:
                split = _split(scan, result, group_start, k, *ints)
                if split is not None:
                    return split
        separated: LinExpr | None = None
        note = ""
        if barrier is not None:
            r, cmin, cmax = barrier
            if _is_pos(cmin, assumptions) or _is_neg(cmax, assumptions):
                result.verdict = Verdict.INDEPENDENT
                result.direction_vectors = set()
                if keep_trace:
                    result.trace.append(
                        _trace_row(
                            scan, k, pre_smin, pre_smax, gk, r, None,
                            "independent: 0 not in [cmin, cmax]",
                        )
                    )
                return result
            group_vars = order[group_start:k]
            separated = LinExpr(
                {name: coeff for name, coeff, _ in group_vars}, r
            )
            if group_vars or r:
                solution = solve_group(separated, problem, budget=budget)
                result.groups.append(solution)
                result.dimensions_found += 1
                if solution.verdict is Verdict.INDEPENDENT:
                    result.verdict = Verdict.INDEPENDENT
                    result.direction_vectors = set()
                    if keep_trace:
                        result.trace.append(
                            _trace_row(
                                scan, k, pre_smin, pre_smax, gk, r,
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
            smin = smax = scan.constant(0)
            group_start = k
            c0 = c0 - r
            if k == n:
                fully_separated = True
        if keep_trace:
            shown_r = (
                _candidate_remainders(c0, gk)[0] if barrier is None
                else barrier[0]
            )
            result.trace.append(
                _trace_row(
                    scan, k, pre_smin, pre_smax, gk, shown_r, separated,
                    note or _no_barrier_note(barrier, held),
                )
            )
        if k < n:
            _, coeff, upper = order[k]
            smin, smax = _admit(coeff, upper, smin, smax, assumptions)

    if result.verdict is Verdict.DEPENDENT and not fully_separated:
        # Only exact when the scan separated the whole equation AND every
        # group was solved exactly as DEPENDENT (a MAYBE group already made
        # the verdict MAYBE); the Cartesian-product theorem then guarantees
        # a full solution.
        result.verdict = Verdict.MAYBE
    return result


def _split(
    scan: _Scan,
    result: DelinearizationResult,
    group_start: int,
    k: int,
    c0: int,
    smin: int,
    smax: int,
    gk: int,
    group_gcd: int,
) -> DelinearizationResult | None:
    """Split the remainder at step ``k``, where no barrier holds, into cases.

    The scan calls it with plain ints, whenever its own values are integer
    constants.  The head sum ``S = sum(order[group_start:k])`` ranges over
    ``[smin, smax]`` and ``c0 + S`` must be a multiple of ``gk``, so every
    solution has ``S = v`` for exactly one ``v ≡ -c0 (mod gk)`` in that
    range.  Each such ``v`` is one case: the head ``S - v = 0`` goes to the
    group solver and the rest is scanned from step ``k + 1`` with constant
    ``c0 + v``.  No such ``v`` proves independence.  The union of the cases
    is merged into ``result`` (the groups separated before ``group_start``),
    which is returned.

    Returns None, leaving ``result`` untouched, when :func:`_may_split`
    refuses.  Before the first split of an equation, :func:`_leaf_bound`
    sizes its whole case tree; past :data:`SPLIT_CASE_LIMIT` or
    :data:`SPLIT_LEAF_LIMIT` the equation is scanned on without splits.
    """
    if not _may_split(scan, k, gk, group_gcd):
        return None
    values = _head_values(c0, smin, smax, gk)
    if scan.depth == 0 and _leaf_bound(scan, k, values, c0) > SPLIT_LEAF_LIMIT:
        scan.splitting = False
        return None
    chaos_point("delinearize.split")
    problem, budget = scan.problem, scan.budget
    star = {DirVec.star(problem.common_levels)}
    head = {name: coeff for name, coeff, _ in scan.order[group_start:k]}
    rows: list[TraceRow] = []
    groups: list[GroupSolution] = []
    union: set[DirVec] = set()
    pinned: dict[int, Poly] | None = None
    exact = False
    found = 0
    scan.depth += 1
    try:
        for v in values:
            if budget is not None:
                budget.charge()
            solution = _solve_head(scan, LinExpr(head, -v))
            groups.append(solution)
            case = None
            if solution.verdict is not Verdict.INDEPENDENT:
                case = _resume(scan, k, c0 + v)
            if scan.keep_trace:
                note = f"case v={v}" + (
                    f" ({solution.method})"
                    if case is not None
                    else f": independent ({solution.method})"
                )
                rows.append(
                    _trace_row(scan, k, smin, smax, gk, -v,
                               solution.equation, note)
                )
            if case is None:
                found = max(found, 1)
                continue
            rows.extend(case.trace)
            groups.extend(case.groups)
            found = max(found, 1 + case.dimensions_found)
            if case.verdict is Verdict.INDEPENDENT:
                continue
            directions = merge_direction_sets(
                solution.dirvecs or star, case.direction_vectors
            )
            if not directions:
                continue
            union |= directions
            exact = exact or (
                solution.verdict is Verdict.DEPENDENT
                and case.verdict is Verdict.DEPENDENT
            )
            distances = {**case.distances, **solution.distances}
            pinned = distances if pinned is None else {
                level: d
                for level, d in pinned.items()
                if distances.get(level) == d
            }
    finally:
        scan.depth -= 1

    if scan.keep_trace:
        shown = ", ".join(str(v) for v in values)
        result.trace.append(
            _trace_row(scan, k, smin, smax, gk, c0 % gk, None,
                       f"split: v in {{{shown}}}",
                       tuple(Poly.const(v) for v in values))
        )
        result.trace.extend(rows)
    result.groups.extend(groups)
    result.dimensions_found += found
    if not union:
        result.verdict = Verdict.INDEPENDENT
        result.direction_vectors = set()
        return result
    result.direction_vectors = merge_direction_sets(
        result.direction_vectors, union
    )
    if not result.direction_vectors:
        result.verdict = Verdict.INDEPENDENT
        return result
    result.distances.update(pinned or {})
    if not exact:
        result.verdict = Verdict.MAYBE
    return result


def _may_split(scan: _Scan, k: int, gk: int, group_gcd: int) -> bool:
    """May the scan split at step ``k``?  Not once a split was refused for
    its size; ``gk`` must exceed ``group_gcd``, the gcd of the whole
    unseparated group (else the cases only peel single variables off); and
    no level pair may straddle ``k`` (its direction would be lost)."""
    return (
        scan.splitting
        and gk > group_gcd
        and not _separates_level_pair(scan, k)
    )


def _head_values(c0: int, smin: int, smax: int, gk: int) -> range:
    """Every ``v ≡ -c0 (mod gk)`` in ``[smin, smax]``: a split's cases."""
    return range(smin + (-c0 - smin) % gk, smax + 1, gk)


def _leaf_bound(scan: _Scan, k: int, values: range, c0: int) -> int:
    """How many leaf cases splitting at step ``k`` into ``values`` makes.

    Replays the integer scan of every case without solving a group, so it
    counts cases that a group proven independent would cut off: an upper
    bound.  A nested split of more than :data:`SPLIT_CASE_LIMIT` cases, or a
    symbolic term, counts as too many.  Stops counting past
    :data:`SPLIT_LEAF_LIMIT`.
    """
    terms = [_as_ints(coeff, upper) for _, coeff, upper in scan.order]
    if None in terms:
        return SPLIT_LEAF_LIMIT + 1
    return _LeafCount(scan, terms).cases(k, values, c0)


class _LeafCount:
    """The integer replay behind :func:`_leaf_bound`; each rest (step,
    constant) is scanned once."""

    too_many = SPLIT_LEAF_LIMIT + 1

    def __init__(self, scan: _Scan, terms: list[list[int]]):
        self.scan = scan
        self.terms = terms
        self.suffix = _as_ints(*scan.suffix_gcd)
        self.memo: dict[tuple[int, int], int] = {}

    def cases(self, k: int, values: range, c0: int) -> int:
        if len(values) > SPLIT_CASE_LIMIT:
            return self.too_many
        total = 0
        for v in values:
            key = (k, c0 + v)
            if key not in self.memo:
                self.memo[key] = self.rest(k, c0 + v)
            total += self.memo[key]
            if total >= self.too_many:
                return self.too_many
        return total

    def rest(self, group_start: int, c0: int) -> int:
        """Leaf cases of the rest after step ``group_start``."""
        scan, terms, suffix = self.scan, self.terms, self.suffix
        assumptions = scan.problem.assumptions
        smin, smax = _admit(*terms[group_start], 0, 0, assumptions)
        for j in range(group_start + 1, len(terms)):
            gk = suffix[j]
            barrier = _try_barrier(c0, smin, smax, gk, assumptions)
            if barrier is not None and (barrier[1] > 0 or barrier[2] < 0):
                return 1
            if barrier is None or _holds_barrier(scan, group_start, j):
                if _may_split(scan, j, gk, suffix[group_start]):
                    values = _head_values(c0, smin, smax, gk)
                    return self.cases(j, values, c0)
            else:
                smin = smax = 0
                group_start = j
                c0 -= barrier[0]
            smin, smax = _admit(*terms[j], smin, smax, assumptions)
        return 1


def _as_ints(*values: int | Poly | None) -> list[int] | None:
    """``values`` as plain ints; None unless all are integer constants."""
    ints = []
    for value in values:
        if not isinstance(value, int):
            if value is None or not value.is_constant():
                return None
            value = value.as_int()
        ints.append(value)
    return ints


def _memo(scan: _Scan) -> CaseMemo:
    """The scan's case memo: its family's, or its own without ``families``."""
    if scan.memo is None:
        families = scan.families
        scan.memo = CaseMemo() if families is None else families(scan.order)
    return scan.memo


def _solve_head(scan: _Scan, head: LinExpr) -> GroupSolution:
    heads = _memo(scan).heads
    solution = heads.get(head)
    if solution is None:
        solution = solve_group(head, scan.problem, budget=scan.budget)
        heads[head] = solution
        scan.stored.append((heads, head))
    return solution


def _resume(scan: _Scan, k: int, c0: int) -> DelinearizationResult:
    """The rest after step ``k`` with constant ``c0``, scanned once."""
    key = (k, c0, scan.depth)
    rests = _memo(scan).rests
    case = rests.get(key)
    if case is None:
        case = rests[key] = _scan(scan, scan.constant(c0), k, k + 1)
        scan.stored.append((rests, key))
    return case


def _holds_barrier(scan: _Scan, group_start: int, k: int) -> bool:
    """Inside a split case, a barrier at ``k`` that would put the two
    variables of a level pair in different groups is not drawn.

    Such a pair's groups solve each side alone and report ``*`` at its
    level, where the group holding both sides (the scan's answer without
    the split) reports the realized directions.  Callers check that the
    scan is inside a case.
    """
    return group_start < k and _separates_level_pair(scan, k)


def _no_barrier_note(barrier: tuple | None, held: bool) -> str:
    if held:
        return "barrier held: it would separate a level pair"
    return "no barrier" if barrier is None else ""


def _separates_level_pair(scan: _Scan, k: int) -> bool:
    """Does some level pair have one variable before step ``k`` and the
    other from ``k`` on?"""
    if scan.pair_positions is None:
        problem = scan.problem
        position = {name: i for i, (name, _, _) in enumerate(scan.order)}
        scan.pair_positions = []
        for level in range(1, problem.common_levels + 1):
            pair = problem.level_pair(level)
            if pair is not None and all(v.name in position for v in pair):
                scan.pair_positions.append(
                    (position[pair[0].name], position[pair[1].name])
                )
    return any((a < k) != (b < k) for a, b in scan.pair_positions)


def _trace_row(
    scan: _Scan,
    k: int,
    smin: int | Poly | None,
    smax: int | Poly | None,
    gk: int | Poly | None,
    r: int | Poly,
    separated: LinExpr | None,
    note: str,
    cases: tuple[Poly, ...] = (),
) -> TraceRow:
    """The trace row of step ``k``; plain ints (an int scan's or a split's)
    become polynomials."""
    order, n = scan.order, len(scan.order)
    if isinstance(smin, int):
        smin, smax, r = Poly.const(smin), Poly.const(smax), Poly.const(r)
        gk = None if gk is None else Poly.const(gk)
    return TraceRow(
        k + 1,
        Poly.coerce(order[k][1]) if k < n else None,
        order[k][0] if k < n else None,
        smin, smax, gk, r, separated, note,
        depth=scan.depth,
        cases=cases,
    )


def _is_pos(value: int | Poly, assumptions: Assumptions) -> bool:
    """Is ``value`` provably positive?"""
    if isinstance(value, int):
        return value > 0
    return bool(assumptions.is_pos(value))


def _is_neg(value: int | Poly, assumptions: Assumptions) -> bool:
    """Is ``value`` provably negative?"""
    if isinstance(value, int):
        return value < 0
    return bool(assumptions.is_neg(value))


def _try_barrier(
    c0: int | Poly,
    smin: int | Poly | None,
    smax: int | Poly | None,
    gk: int | Poly | None,
    assumptions: Assumptions,
) -> tuple[int | Poly, int | Poly, int | Poly] | None:
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
        if isinstance(r, int):
            ok = cmax < gk and -gk < cmin
        else:
            ok = assumptions.is_lt(cmax, gk) and assumptions.is_lt(-gk, cmin)
        if ok:
            return r, cmin, cmax
    return None


def _candidate_remainders(
    c0: int | Poly, gk: int | Poly
) -> list[int | Poly]:
    """Decompositions ``c0 = (c0 - r) + r`` with ``gk`` dividing ``c0 - r``.

    The canonical remainder is tried first, then the least-absolute
    representative ``r - gk`` (needed e.g. for ``-110 mod 100``: the paper's
    Figure-5 trace separates ``10*j1 - 10*i2 - 10``, which requires
    ``r = -10`` rather than ``+90``).  A zero or infinite (None) ``gk``
    leaves ``c0`` whole.
    """
    if not gk:
        return [c0]
    r = c0 % gk if isinstance(c0, int) else c0.divmod_single(gk)[1]
    if not r:
        return [r]
    return [r, r - gk]


def _admit(
    coeff: int | Poly,
    upper: int | Poly,
    smin: int | Poly | None,
    smax: int | Poly | None,
    assumptions: Assumptions,
) -> tuple[int | Poly | None, int | Poly | None]:
    """Extend the running extremes with ``coeff * z``, ``z in [0, upper]``.

    An upper bound not proven nonnegative or a coefficient of unknown sign
    poisons the extremes (None, None).
    """
    if smin is None or smax is None:
        return None, None
    if isinstance(coeff, int):
        if upper < 0:
            return None, None
        if coeff > 0:
            return smin, smax + coeff * upper
        return smin + coeff * upper, smax
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

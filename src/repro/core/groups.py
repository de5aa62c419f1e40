"""Solving the separated per-dimension equations.

After the Figure-4 algorithm draws its dimension barriers, each group is an
independent constrained equation over (usually very few) variables.  This
module solves a group as exactly as possible and reports:

* a verdict (exact where the structure allows it),
* the set of direction vectors over the problem's common loop levels,
* exact dependence distances per level where the group pins them.

The solver picks the strongest applicable method:

1. *Pair form* ``c*alpha - c*beta + r = 0`` for one common level: exact,
   including symbolically (``beta - alpha = r/c`` must divide; range checks
   via assumptions).
2. *Single variable*: exact (SVPC reasoning), concrete or symbolic.
3. *Small concrete group*: exhaustive enumeration — exact verdict and exact
   direction vectors.
4. *Fallback*: per-direction GCD + Banerjee refinement (sound, may say
   MAYBE).  Each refined level's ``<``, ``=`` and ``>`` substitutions are
   worked out once; a direction vector's equation is the sum of its levels'
   pieces and the untouched terms, tested by the same GCD and Banerjee
   functions as the whole equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from ..dirvec.vectors import D_EQ, D_GT, D_LT, D_STAR, DirElem, DirVec
from ..symbolic import Assumptions, LinExpr, Poly
from ..deptests.banerjee import banerjee_verdict, equation_banerjee_verdict
from ..deptests.gcd import equation_gcd_verdict, gcd_verdict
from ..deptests.problem import BoundedVar, DependenceProblem, Verdict
from .chaos import chaos_point
from .resilience import Budget

_ZERO = Poly.const(0)

#: Largest box (points) a separated concrete group is enumerated over
#: (method 3); bigger groups fall back to GCD + Banerjee refinement.
EXACT_LIMIT = 50_000


@dataclass
class GroupSolution:
    """Outcome for one separated dimension."""

    equation: LinExpr
    verdict: Verdict
    #: Direction vectors over all common levels ('*' at untouched levels);
    #: None when the group proves independence (no vectors at all).
    dirvecs: set[DirVec] | None
    #: Exact per-level dependence distance (beta - alpha), where pinned.
    distances: dict[int, Poly] = field(default_factory=dict)
    method: str = ""


def solve_group(
    equation: LinExpr,
    problem: DependenceProblem,
    budget: Budget | None = None,
) -> GroupSolution:
    """Solve one separated equation in the context of ``problem``.

    A caller-supplied ``budget`` is charged for concrete enumeration (one
    step per iteration point); exhaustion raises
    :exc:`~repro.core.resilience.BudgetExhausted` for the per-pair barrier
    to degrade conservatively.
    """
    chaos_point("groups.solve")
    assumptions = problem.assumptions
    names = sorted(equation.variables())

    if not names:
        # Constant equation: r = 0 or contradiction.
        if equation.const.is_zero():
            return GroupSolution(
                equation,
                Verdict.DEPENDENT,
                {DirVec.star(problem.common_levels)},
                method="constant",
            )
        if assumptions.is_pos(equation.const) or assumptions.is_neg(
            equation.const
        ):
            return GroupSolution(equation, Verdict.INDEPENDENT, None, method="constant")
        return GroupSolution(
            equation,
            Verdict.MAYBE,
            {DirVec.star(problem.common_levels)},
            method="constant",
        )

    pair = _match_pair_form(equation, problem)
    if pair is not None:
        return pair

    single = _match_single_variable(equation, problem)
    if single is not None:
        return single

    concrete = _solvable_concretely(equation, problem, budget)
    if concrete is not None:
        return concrete

    uniform = _match_uniform_magnitude(equation, problem)
    if uniform is not None:
        return uniform

    return _refine_with_tests(equation, problem)


# -- method 1: the pair form -------------------------------------------------


def _match_pair_form(
    equation: LinExpr, problem: DependenceProblem
) -> GroupSolution | None:
    """``c*alpha - c*beta + r = 0`` for the two variables of one level."""
    names = sorted(equation.variables())
    if len(names) != 2:
        return None
    var_a, var_b = (problem.variables[n] for n in names)
    if (
        var_a.level is None
        or var_a.level != var_b.level
        or {var_a.side, var_b.side} != {0, 1}
    ):
        return None
    alpha, beta = (var_a, var_b) if var_a.side == 0 else (var_b, var_a)
    coeff = equation.coeff(alpha.name)
    if equation.coeff(beta.name) != -coeff:
        return None
    assumptions = problem.assumptions
    # beta - alpha = r / c must be an integer.
    remainder_free = _exact_quotient(equation.const, coeff)
    if remainder_free is None:
        if _provably_indivisible(equation.const, coeff):
            return GroupSolution(equation, Verdict.INDEPENDENT, None, method="pair")
        return None  # cannot reason symbolically; fall through
    distance = remainder_free
    direction = _direction_of_distance(distance, assumptions)
    if direction is None:
        return None
    level = alpha.level
    feasible = _pair_in_range(distance, alpha.upper, beta.upper, assumptions)
    if feasible is False:
        return GroupSolution(equation, Verdict.INDEPENDENT, None, method="pair")
    vec = _padded(problem.common_levels, {level: direction})
    verdict = Verdict.DEPENDENT if feasible else Verdict.MAYBE
    return GroupSolution(
        equation, verdict, {vec}, distances={level: distance}, method="pair"
    )


def _exact_quotient(numerator: Poly, denominator: Poly) -> Poly | None:
    """``numerator / denominator`` when exact, else None."""
    if denominator.is_zero():
        return None
    if denominator.is_single_term():
        quotient, remainder = numerator.divmod_single(denominator)
        if remainder.is_zero():
            return quotient
        return None
    return None


def _provably_indivisible(numerator: Poly, denominator: Poly) -> bool:
    """True when ``denominator`` certainly does not divide ``numerator``.

    Only claimed for concrete integers; a symbolic non-zero remainder may
    still vanish for particular parameter values.
    """
    if not (numerator.is_constant() and denominator.is_constant()):
        return False
    d = denominator.as_int()
    return d != 0 and numerator.as_int() % d != 0


def _direction_of_distance(
    distance: Poly, assumptions: Assumptions
) -> DirElem | None:
    if distance.is_zero():
        return D_EQ
    sign = assumptions.sign(distance)
    if sign is None:
        return None
    return D_LT if sign > 0 else D_GT


def _pair_in_range(
    distance: Poly, upper_alpha: Poly, upper_beta: Poly, assumptions: Assumptions
) -> bool | None:
    """Does some (alpha, alpha + distance) fit both ranges?

    Requires ``max(0, -d) <= min(Z_alpha, Z_beta - d)``, i.e. all of
    ``d <= Z_beta``, ``-d <= Z_alpha``, and the ranges themselves non-empty.
    Returns True/False when provable, None when unknown.
    """
    checks = [
        assumptions.is_le(distance, upper_beta),
        assumptions.is_le(-distance, upper_alpha),
        assumptions.is_nonneg(upper_alpha),
        assumptions.is_nonneg(upper_beta),
    ]
    if all(c is True for c in checks):
        return True
    # Disprove: d > Z_beta or -d > Z_alpha (or an empty range).
    if (
        assumptions.is_lt(upper_beta, distance)
        or assumptions.is_lt(upper_alpha, -distance)
        or assumptions.is_neg(upper_alpha)
        or assumptions.is_neg(upper_beta)
    ):
        return False
    return None


# -- method 2: single variable ------------------------------------------------


def _match_single_variable(
    equation: LinExpr, problem: DependenceProblem
) -> GroupSolution | None:
    names = sorted(equation.variables())
    if len(names) != 1:
        return None
    (name,) = names
    var = problem.variables[name]
    coeff = equation.coeff(name)
    value = _exact_quotient(-equation.const, coeff)
    if value is None:
        if _provably_indivisible(equation.const, coeff):
            return GroupSolution(equation, Verdict.INDEPENDENT, None, method="single")
        return None
    assumptions = problem.assumptions
    in_range = None
    lower_ok = assumptions.is_nonneg(value)
    upper_ok = assumptions.is_le(value, var.upper)
    if lower_ok and upper_ok:
        in_range = True
    elif assumptions.is_neg(value) or assumptions.is_lt(var.upper, value):
        in_range = False
    if in_range is False:
        return GroupSolution(equation, Verdict.INDEPENDENT, None, method="single")
    # One side of one level pinned: every direction still possible for the
    # level unless the partner variable gets pinned by another group, so the
    # direction contribution is '*'.
    vec = DirVec.star(problem.common_levels)
    verdict = Verdict.DEPENDENT if in_range else Verdict.MAYBE
    return GroupSolution(equation, verdict, {vec}, method="single")


# -- method 2b: uniform coefficient magnitude ----------------------------------


def _match_uniform_magnitude(
    equation: LinExpr, problem: DependenceProblem
) -> GroupSolution | None:
    """Exact solving for ``sum(±c * z_i) + r = 0`` (all |coeffs| equal).

    Dividing by ``c`` yields unit coefficients; a sum of independent unit
    terms over boxes takes *every* integer value of its real range, so the
    equation is solvable iff ``c | r`` and 0 lies within the range.  This is
    the common shape of separated dimensions (the dimension's stride factors
    out) and works symbolically — it is what lets the paper's Section-4
    example conclude exactly for groups like ``N*j1 - N*i2 - N = 0``.
    """
    assumptions = problem.assumptions
    names = sorted(equation.variables())
    if not names:
        return None
    magnitude: Poly | None = None
    signs: dict[str, int] = {}
    for name in names:
        coeff = equation.coeff(name)
        abs_coeff = assumptions.abs_poly(coeff)
        if abs_coeff is None:
            return None
        if magnitude is None:
            magnitude = abs_coeff
        elif abs_coeff != magnitude:
            return None
        signs[name] = 1 if assumptions.sign(coeff) > 0 else -1
    assert magnitude is not None
    if not assumptions.is_pos(magnitude):
        return None
    reduced_const = _exact_quotient(equation.const, magnitude)
    if reduced_const is None:
        if _provably_indivisible(equation.const, magnitude):
            return GroupSolution(equation, Verdict.INDEPENDENT, None, method="uniform")
        return None
    # Range of r' + sum(±z_i): [r' - sum(Z_neg), r' + sum(Z_pos)].
    low = reduced_const
    high = reduced_const
    for name in names:
        upper = problem.variables[name].upper
        if assumptions.is_nonneg(upper) is None:
            return None
        if signs[name] > 0:
            high = high + upper
        else:
            low = low - upper
    zero_inside = assumptions.is_nonpos(low) and assumptions.is_nonneg(high)
    zero_outside = assumptions.is_pos(low) or assumptions.is_neg(high)
    if zero_outside:
        return GroupSolution(equation, Verdict.INDEPENDENT, None, method="uniform")
    if zero_inside:
        # Existence is proven; when the group couples both variables of a
        # common level, sharpen the direction set with per-direction
        # GCD+Banerjee refinement instead of reporting '*' everywhere.
        if _full_pair_levels(names, problem):
            refined = _refine_with_tests(equation, problem)
            dirvecs = (
                refined.dirvecs
                if refined.dirvecs
                else {DirVec.star(problem.common_levels)}
            )
        else:
            dirvecs = {DirVec.star(problem.common_levels)}
        return GroupSolution(
            equation, Verdict.DEPENDENT, dirvecs, method="uniform"
        )
    return None


# -- method 3: concrete enumeration -------------------------------------------


def _solvable_concretely(
    equation: LinExpr,
    problem: DependenceProblem,
    budget: Budget | None = None,
) -> GroupSolution | None:
    names = sorted(equation.variables())
    sub_vars = [problem.variables[n] for n in names]
    if not equation.is_integer_concrete():
        return None
    if not all(v.upper.is_constant() for v in sub_vars):
        return None
    size = 1
    for var in sub_vars:
        size *= max(var.upper.as_int() + 1, 0)
    if size > EXACT_LIMIT or size == 0:
        if size == 0:
            return GroupSolution(equation, Verdict.INDEPENDENT, None, method="enum")
        return None
    if budget is not None:
        budget.charge(size)
    levels = _involved_levels(names, problem)
    sub_problem = DependenceProblem(
        [equation],
        sub_vars,
        common_levels=0,
        assumptions=problem.assumptions,
    )
    solutions = list(sub_problem.enumerate_solutions())
    if not solutions:
        return GroupSolution(equation, Verdict.INDEPENDENT, None, method="enum")
    vectors: set[DirVec] = set()
    level_distances: dict[int, set[int]] = {lvl: set() for lvl in levels}
    for solution in solutions:
        mapping: dict[int, DirElem] = {}
        for level in levels:
            pair = problem.level_pair(level)
            assert pair is not None
            alpha, beta = pair
            if alpha.name in solution and beta.name in solution:
                diff = solution[beta.name] - solution[alpha.name]
                level_distances[level].add(diff)
                mapping[level] = (
                    D_LT if diff > 0 else D_GT if diff < 0 else D_EQ
                )
        vectors.add(_padded(problem.common_levels, mapping))
    distances = {
        lvl: Poly.const(next(iter(vals)))
        for lvl, vals in level_distances.items()
        if len(vals) == 1
    }
    return GroupSolution(
        equation, Verdict.DEPENDENT, vectors, distances=distances, method="enum"
    )


# -- method 4: per-direction refinement ----------------------------------------


#: Refinement enumerates 3^levels direction combinations; cap the depth so a
#: non-separable wide equation degrades to '*' at deep levels instead of
#: blowing up exponentially.
_REFINE_LEVEL_CAP = 3


def _refine_with_tests(
    equation: LinExpr, problem: DependenceProblem
) -> GroupSolution:
    """GCD + Banerjee on the whole equation, then once per direction vector.

    A direction vector over the refined levels constrains each level the way
    :meth:`DependenceProblem.with_direction` substitutes it, and the levels
    do not interact, so each level's three substitutions are worked out once
    (:func:`_level_pieces`) and every vector's equation is the untouched
    terms plus one piece per level.
    """
    names = sorted(equation.variables())
    levels = _full_pair_levels(names, problem)[:_REFINE_LEVEL_CAP]
    if equation_gcd_verdict(equation) is Verdict.INDEPENDENT:
        return GroupSolution(equation, Verdict.INDEPENDENT, None, method="refine")
    if (
        equation_banerjee_verdict(
            equation, problem.variables, problem.assumptions
        )
        is Verdict.INDEPENDENT
    ):
        return GroupSolution(equation, Verdict.INDEPENDENT, None, method="refine")
    if not levels:
        return GroupSolution(
            equation,
            Verdict.MAYBE,
            {DirVec.star(problem.common_levels)},
            method="refine",
        )
    pairs = _equation_level_pairs(names, problem)
    if pairs is None:
        # Some common level has no pair among the equation's variables, so
        # no direction can be imposed on it: nothing is refuted.
        return GroupSolution(
            equation,
            Verdict.MAYBE,
            {
                _padded(problem.common_levels, dict(zip(levels, combo)))
                for combo in product((D_LT, D_EQ, D_GT), repeat=len(levels))
            },
            method="refine",
        )
    refined = {var.name for level in levels for var in pairs[level]}
    untouched = [
        (coeff, problem.variables[name].upper)
        for name, coeff in equation.coeffs.items()
        if name not in refined
    ]
    feasible: set[DirVec] = set()
    for combo in product(
        *(_level_pieces(equation, *pairs[level]) for level in levels)
    ):
        terms = list(untouched)
        constant = equation.const
        for _, piece_terms, shift in combo:
            terms.extend(piece_terms)
            if shift:
                constant = constant + shift
        if (
            gcd_verdict((coeff for coeff, _ in terms), constant)
            is Verdict.INDEPENDENT
            or banerjee_verdict(terms, constant, problem.assumptions)
            is Verdict.INDEPENDENT
        ):
            continue
        mapping = {level: piece[0] for level, piece in zip(levels, combo)}
        feasible.add(_padded(problem.common_levels, mapping))
    if not feasible:
        return GroupSolution(equation, Verdict.INDEPENDENT, None, method="refine")
    return GroupSolution(equation, Verdict.MAYBE, feasible, method="refine")


#: One direction at one level: the direction, the ``(coefficient, upper
#: bound)`` terms the level leaves in the constrained equation, and the
#: constant it adds.
_Piece = tuple[DirElem, list[tuple[Poly, Poly]], Poly]


def _level_pieces(
    equation: LinExpr, alpha: BoundedVar, beta: BoundedVar
) -> tuple[_Piece, _Piece, _Piece]:
    """The ``<``, ``=`` and ``>`` substitutions of one level's pair.

    Mirrors :meth:`DependenceProblem.with_direction`: ``=`` replaces beta by
    alpha over the shared range; ``<`` writes ``beta = alpha + 1 + t`` with
    ``t in [0, Z_beta - 1]`` and ``>`` the same with the sides swapped.  A
    coefficient that cancels drops its term, as :class:`LinExpr` does.
    """
    a, b = equation.coeff(alpha.name), equation.coeff(beta.name)
    merged = a + b
    shared = alpha.upper
    if alpha.upper.is_constant() and beta.upper.is_constant():
        if beta.upper.as_int() < alpha.upper.as_int():
            shared = beta.upper
    equal = (D_EQ, [(merged, shared)] if merged else [], _ZERO)

    def ordered(elem: DirElem, lo: BoundedVar, hi: BoundedVar, hi_coeff: Poly):
        lo_upper = hi.upper - 1
        if lo.upper.is_constant() and hi.upper.is_constant():
            lo_upper = Poly.const(min(lo.upper.as_int(), hi.upper.as_int() - 1))
        elif lo.upper != hi.upper:
            lo_upper = lo.upper
        terms = [(merged, lo_upper)] if merged else []
        terms.append((hi_coeff, hi.upper - 1))
        return elem, terms, hi_coeff

    return ordered(D_LT, alpha, beta, b), equal, ordered(D_GT, beta, alpha, a)


def _equation_level_pairs(
    names: list[str], problem: DependenceProblem
) -> dict[int, tuple[BoundedVar, BoundedVar]] | None:
    """Each common level's (side-0, side-1) variables among ``names``.

    None when some common level lacks one of them: such a sub-problem takes
    no direction vector (:meth:`DependenceProblem.with_direction` raises).
    """
    sides: dict[int, list[BoundedVar | None]] = {}
    for name in names:
        var = problem.variables[name]
        if var.level is not None and var.side in (0, 1):
            sides.setdefault(var.level, [None, None])[var.side] = var
    pairs = {}
    for level in range(1, problem.common_levels + 1):
        alpha, beta = sides.get(level, (None, None))
        if alpha is None or beta is None:
            return None
        pairs[level] = (alpha, beta)
    return pairs


# -- shared helpers --------------------------------------------------------------


def _involved_levels(names: list[str], problem: DependenceProblem) -> list[int]:
    """Common levels for which at least one pair variable is present."""
    levels = set()
    for name in names:
        var = problem.variables[name]
        if var.level is not None and 1 <= var.level <= problem.common_levels:
            levels.add(var.level)
    return sorted(levels)


def _full_pair_levels(names: list[str], problem: DependenceProblem) -> list[int]:
    """Common levels for which *both* pair variables are present."""
    present = set(names)
    out = []
    for level in range(1, problem.common_levels + 1):
        pair = problem.level_pair(level)
        if pair and pair[0].name in present and pair[1].name in present:
            out.append(level)
    return out


def _padded(common_levels: int, mapping: dict[int, DirElem]) -> DirVec:
    return DirVec(
        [mapping.get(level, D_STAR) for level in range(1, common_levels + 1)]
    )

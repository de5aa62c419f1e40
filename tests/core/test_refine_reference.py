"""Per-level refinement against the per-vector sub-problems it replaced.

``reference_refine`` below is the former
:func:`repro.core.groups._refine_with_tests`, kept verbatim together with
the equation-level GCD and Banerjee verdicts it called.  It built one
:meth:`DependenceProblem.with_direction` sub-problem per direction vector;
the new function combines three precomputed substitutions per level.  Both
must give the same verdict, direction vectors, distances and method on
every group: concrete and symbolic coefficients and bounds, coefficients
that cancel, one to four common levels (the fourth is past the level cap),
an equation that omits one common level's variable, and auxiliary
variables that belong to no level.
"""

from __future__ import annotations

import math
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.groups import (
    _REFINE_LEVEL_CAP,
    GroupSolution,
    _full_pair_levels,
    _padded,
    _refine_with_tests,
)
from repro.deptests.problem import BoundedVar, DependenceProblem, Verdict
from repro.dirvec.vectors import D_EQ, D_GT, D_LT, D_STAR, DirVec
from repro.symbolic import Assumptions, LinExpr, Poly

# -- the reference: the former refinement, verbatim -------------------------


def reference_gcd_verdict(equation: LinExpr) -> Verdict:
    if not equation.is_integer_concrete():
        return Verdict.MAYBE
    coefficients = [coeff.as_int() for coeff in equation.coeffs.values()]
    constant = equation.const.as_int()
    if not coefficients:
        return Verdict.INDEPENDENT if constant != 0 else Verdict.MAYBE
    divisor = math.gcd(*(abs(c) for c in coefficients))
    if constant % divisor != 0:
        return Verdict.INDEPENDENT
    return Verdict.MAYBE


def reference_bounds(equation, variables, assumptions):
    lower = equation.const
    upper = equation.const
    for name, coeff in equation.coeffs.items():
        bound = variables[name].upper
        if assumptions.is_nonneg(bound) is None:
            return None
        contribution = coeff * bound
        sign = assumptions.sign(coeff)
        if sign is None:
            return None
        if sign > 0:
            upper = upper + contribution
        elif sign < 0:
            lower = lower + contribution
    return lower, upper


def reference_banerjee_verdict(equation, variables, assumptions=None):
    assumptions = assumptions or Assumptions.empty()
    bounds = reference_bounds(equation, variables, assumptions)
    if bounds is None:
        return Verdict.MAYBE
    lower, upper = bounds
    if assumptions.is_pos(lower) or assumptions.is_neg(upper):
        return Verdict.INDEPENDENT
    return Verdict.MAYBE


def reference_refine(
    equation: LinExpr, problem: DependenceProblem
) -> GroupSolution:
    names = sorted(equation.variables())
    levels = _full_pair_levels(names, problem)[:_REFINE_LEVEL_CAP]
    sub_vars = [problem.variables[n] for n in names]
    sub_problem = DependenceProblem(
        [equation],
        sub_vars,
        common_levels=problem.common_levels,
        assumptions=problem.assumptions,
    )
    if reference_gcd_verdict(equation) is Verdict.INDEPENDENT:
        return GroupSolution(equation, Verdict.INDEPENDENT, None, method="refine")
    if (
        reference_banerjee_verdict(
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
    feasible: set[DirVec] = set()
    for combo in product((D_LT, D_EQ, D_GT), repeat=len(levels)):
        mapping = dict(zip(levels, combo))
        vec = _padded(problem.common_levels, mapping)
        try:
            constrained = sub_problem.with_direction(
                _restrict(vec, sub_problem)
            )
        except ValueError:
            feasible.add(vec)
            continue
        gcd_out = Verdict.MAYBE
        for eq in constrained.equations:
            if reference_gcd_verdict(eq) is Verdict.INDEPENDENT:
                gcd_out = Verdict.INDEPENDENT
        banerjee_out = Verdict.MAYBE
        for eq in constrained.equations:
            if (
                reference_banerjee_verdict(
                    eq, constrained.variables, constrained.assumptions
                )
                is Verdict.INDEPENDENT
            ):
                banerjee_out = Verdict.INDEPENDENT
        if Verdict.INDEPENDENT not in (gcd_out, banerjee_out):
            feasible.add(vec)
    if not feasible:
        return GroupSolution(equation, Verdict.INDEPENDENT, None, method="refine")
    return GroupSolution(equation, Verdict.MAYBE, feasible, method="refine")


def _restrict(vec: DirVec, problem: DependenceProblem) -> DirVec:
    """Keep constraints only at levels whose pair exists in the problem."""
    out = []
    for level, elem in enumerate(vec, start=1):
        out.append(elem if problem.level_pair(level) is not None else D_STAR)
    return DirVec(out)


# -- groups ------------------------------------------------------------------

N = Poly.symbol("N")
M = Poly.symbol("M")  # no assumption: no sign is provable
ASSUMPTIONS = Assumptions({"N": 1})

COEFFS = st.one_of(
    st.integers(-4, 4).map(Poly.const),
    st.sampled_from([N, -N, 2 * N, N - 1, M]),
)
#: Upper bounds; ``N - 3`` and ``M`` cannot be shown nonnegative.
UPPERS = st.one_of(
    st.integers(-1, 9).map(Poly.const),
    st.sampled_from([N, N, N - 1, 2 * N, N - 3, M]),
)
CONSTANTS = st.one_of(
    st.integers(-12, 12).map(Poly.const),
    st.sampled_from([N, -N, 2 * N + 1, -N - 1, M]),
)


def check(equation: LinExpr, problem: DependenceProblem) -> None:
    expected = reference_refine(equation, problem)
    actual = _refine_with_tests(equation, problem)
    assert actual.verdict is expected.verdict
    assert actual.dirvecs == expected.dirvecs
    assert actual.distances == expected.distances
    assert actual.method == expected.method


@st.composite
def groups(draw):
    """An equation over 1-4 common levels plus auxiliary variables."""
    common = draw(st.integers(1, 4))
    variables, coeffs = [], {}
    omitted = draw(st.one_of(st.none(), st.integers(1, common)))
    for level in range(1, common + 1):
        upper = draw(UPPERS)
        other = draw(st.one_of(st.just(upper), UPPERS))
        alpha, beta = f"i{level}", f"j{level}"
        variables.append(BoundedVar(alpha, upper, level, 0))
        variables.append(BoundedVar(beta, other, level, 1))
        a = draw(COEFFS)
        b = draw(st.one_of(st.just(-a), st.just(a), COEFFS))
        coeffs[alpha], coeffs[beta] = a, b
        if level == omitted:
            del coeffs[draw(st.sampled_from([alpha, beta]))]
    for index in range(draw(st.integers(0, 2))):
        name = f"k{index}"
        variables.append(BoundedVar(name, draw(UPPERS)))
        coeffs[name] = draw(COEFFS)
    equation = LinExpr(coeffs, draw(CONSTANTS))
    return equation, DependenceProblem(
        [equation], variables, common_levels=common, assumptions=ASSUMPTIONS
    )


@settings(max_examples=400, deadline=None)
@given(groups())
def test_refinement_matches_reference(group):
    check(*group)


@settings(max_examples=200, deadline=None)
@given(st.data())
@example(data=None)
def test_concrete_pairs_match_reference(data):
    """Concrete linearized groups: the GCD and Banerjee tests both decide."""
    if data is None:  # the paper's equation (1), per direction
        coeffs = {"i1": 1, "j1": -1, "i2": 10, "j2": -10}
        bounds = {"i1": 4, "j1": 4, "i2": 9, "j2": 9}
        constant = -5
        pairs = [("i2", "j2"), ("i1", "j1")]
    else:
        levels = data.draw(st.integers(1, 4))
        coeffs, bounds, pairs = {}, {}, []
        stride = 1
        for level in range(levels):
            first, second = f"x{level}", f"y{level}"
            coeffs[first] = stride * data.draw(st.sampled_from([1, 1, 2, -1]))
            coeffs[second] = -stride * data.draw(st.sampled_from([1, 1, 2, 3]))
            bounds[first] = data.draw(st.integers(0, 9))
            bounds[second] = data.draw(st.integers(0, 9))
            pairs.append((first, second))
            stride *= data.draw(st.integers(1, 12))
        constant = data.draw(st.integers(-2 * stride, 2 * stride))
    problem = DependenceProblem.single(coeffs, constant, bounds, pairs=pairs)
    check(problem.equations[0], problem)


def test_omitted_level_pair_reports_every_vector():
    """``N*i1 - N*j1 - N = 0`` with level 2 unused: nothing is pruned,
    although the same group over one common level refines to ``(>)``."""
    equation = LinExpr({"i1": N, "j1": -N}, -N)
    variables = [
        BoundedVar("i1", N, 1, 0),
        BoundedVar("j1", N, 1, 1),
        BoundedVar("i2", Poly.const(9), 2, 0),
        BoundedVar("j2", Poly.const(9), 2, 1),
    ]
    two = DependenceProblem([equation], variables, 2, ASSUMPTIONS)
    check(equation, two)
    assert _refine_with_tests(equation, two).dirvecs == {
        DirVec([elem, D_STAR]) for elem in (D_LT, D_EQ, D_GT)
    }
    one = DependenceProblem([equation], variables[:2], 1, ASSUMPTIONS)
    check(equation, one)
    assert _refine_with_tests(equation, one).dirvecs == {DirVec([D_GT])}


@pytest.mark.parametrize("upper", [M, N - 3, Poly.const(-1)], ids=str)
def test_cancelled_variable_adds_no_bound_check(upper):
    """A variable whose coefficient cancels leaves no term, so its bound is
    not checked even when its sign cannot be proven.

    ``i1 - j1 - N = 0`` with ``j1 in [0, N]``: under ``=`` it reads
    ``-N = 0`` and under ``<`` (``j1 = i1 + 1 + t``) ``-1 - t - N = 0``;
    both are refuted for ``N >= 1`` whatever the bound of ``i1``.  The
    constant is symbolic, so the GCD test cannot refute either.
    """
    equation = LinExpr({"i1": 1, "j1": -1}, -N)
    variables = [BoundedVar("i1", upper, 1, 0), BoundedVar("j1", N, 1, 1)]
    problem = DependenceProblem([equation], variables, 1, ASSUMPTIONS)
    check(equation, problem)
    assert _refine_with_tests(equation, problem).dirvecs == {DirVec([D_GT])}


@pytest.mark.parametrize("common", [1, 2, 3, 4])
def test_refinement_builds_no_sub_problem(monkeypatch, common):
    def refuse(self, dirvec):
        raise AssertionError("with_direction called")

    coeffs = {f"i{level}": level for level in range(1, common + 1)}
    coeffs.update({f"j{level}": -level for level in range(1, common + 1)})
    bounds = {name: 9 for name in coeffs}
    pairs = [(f"i{level}", f"j{level}") for level in range(1, common + 1)]
    problem = DependenceProblem.single(coeffs, 1, bounds, pairs=pairs)
    expected = reference_refine(problem.equations[0], problem)
    monkeypatch.setattr(DependenceProblem, "with_direction", refuse)
    assert _refine_with_tests(problem.equations[0], problem).dirvecs == (
        expected.dirvecs
    )

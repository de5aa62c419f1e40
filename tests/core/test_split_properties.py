"""Split cases against the exhaustive oracle.

Where the Figure-4 scan finds no barrier it may split the remainder into one
case per value of the head sum (``core/delinearize.py``).  These properties
draw problems on which the scan splits: linearized 2-D and 3-D subscripts
with uneven extents, random constants, and sometimes a level pair with
unequal coefficients.  On each one the answer must be

* sound: INDEPENDENT and DEPENDENT agree with exhaustive enumeration, and
  every exact distance is the distance of every solution;
* covering: every realized direction lies in a reported direction vector;
* never less precise than the scan without splits, and than per-direction
  GCD + Banerjee refinement of the whole equation, where the unsplit scan
  usually ended.  The second comparison skips problems on which a barrier
  outside any case already separates a level pair: the unsplit scan does
  that too, and reports ``*`` at that level.

Problems that differ only in their constant form one equation family and
share their split-case work on a ``ProblemCache``.  Each member solved
through one cache must equal the member solved alone, whatever the order,
and a member whose budget runs out mid-split must leave no case work
behind.
"""

from importlib import import_module
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ProblemCache, cached_delinearize, delinearize
from repro.core.groups import _refine_with_tests
from repro.core.resilience import Budget, BudgetExhausted
from repro.deptests import (
    DependenceProblem,
    Verdict,
    exhaustive_direction_vectors,
    exhaustive_test,
)
from repro.symbolic import LinExpr

# ``repro.core.delinearize`` the attribute is the function; this is the module.
scan_module = import_module("repro.core.delinearize")


@st.composite
def split_problems(draw):
    """``sum_d a_d*x1_d + b_d*x2_d + c`` with strides growing per level."""
    levels = draw(st.integers(2, 3))
    largest = 8 if levels == 2 else 4  # at most 9**4 or 5**6 box points
    coeffs, bounds, pairs = {}, {}, []
    stride = 1
    for level in range(levels):
        first, second = f"x{level}a", f"x{level}b"
        coeff = stride * draw(st.sampled_from([1, 1, 1, 2]))
        partner = draw(st.sampled_from([1, 1, 1, 1, 2, 3]))
        extent = draw(st.integers(1, largest))
        coeffs[first] = coeff
        coeffs[second] = -coeff * partner
        bounds[first] = extent
        bounds[second] = draw(
            st.sampled_from([extent, extent, 1, largest // 2, largest])
        )
        pairs.append((first, second))
        stride *= draw(st.integers(2, 9))
    constant = draw(st.integers(-2 * stride, 2 * stride))
    return DependenceProblem.single(coeffs, constant, bounds, pairs=pairs)


@st.composite
def split_families(draw):
    """2-8 problems that differ only in their constant."""
    problem = draw(split_problems())
    (equation,) = problem.equations
    reach = sum(
        abs(coeff.as_int()) * problem.variables[name].upper.as_int()
        for name, coeff in equation.coeffs.items()
    )
    constants = draw(
        st.lists(
            st.integers(-reach - 2, reach + 2),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    return [
        DependenceProblem(
            [LinExpr(dict(equation.coeffs), constant)],
            list(problem.variables.values()),
            problem.common_levels,
        )
        for constant in constants
    ]


def _splits(result) -> bool:
    return any(row.cases for row in result.trace)


def _atoms(vectors) -> set:
    return {atom for vec in vectors for atom in vec.atomic_vectors()}


def _keeps_level_pairs(result, problem: DependenceProblem) -> bool:
    """No separated group holds just one variable of a level pair."""
    pairs = [
        {alpha.name, beta.name} for alpha, beta in problem.level_pairs()
    ]
    return not any(
        len(pair & row.separated.variables()) == 1
        for row in result.trace
        if row.separated is not None
        for pair in pairs
    )


def _no_less_precise(result, baseline) -> None:
    if baseline.verdict is Verdict.INDEPENDENT:
        assert result.verdict is Verdict.INDEPENDENT
    if baseline.verdict is Verdict.DEPENDENT:
        assert result.verdict is not Verdict.MAYBE
    if result.verdict is not Verdict.INDEPENDENT:
        assert _atoms(result.direction_vectors) <= _atoms(
            baseline.direction_vectors
        )


@given(split_problems())
@settings(max_examples=200, deadline=None)
def test_split_matches_the_oracle(problem: DependenceProblem):
    result = delinearize(problem, keep_trace=True)
    assume(_splits(result))
    truth = exhaustive_test(problem)
    if result.verdict is Verdict.INDEPENDENT:
        assert truth is Verdict.INDEPENDENT
        return
    if result.verdict is Verdict.DEPENDENT:
        assert truth is Verdict.DEPENDENT
    for atom in exhaustive_direction_vectors(problem):
        assert any(vec.contains(atom) for vec in result.direction_vectors)
    for solution in problem.enumerate_solutions():
        for level, distance in result.distances.items():
            alpha, beta = problem.level_pair(level)
            assert solution[beta.name] - solution[alpha.name] == (
                distance.as_int()
            )


@given(split_problems())
@settings(max_examples=200, deadline=None)
def test_split_is_at_least_as_precise_as_the_unsplit_scan(
    problem: DependenceProblem,
):
    result = delinearize(problem, keep_trace=True)
    assume(_splits(result))
    with mock.patch.object(scan_module, "SPLIT_CASE_LIMIT", 0):
        unsplit = delinearize(problem)
    _no_less_precise(result, unsplit)


@given(split_problems())
@settings(max_examples=200, deadline=None)
def test_split_is_at_least_as_precise_as_refinement(
    problem: DependenceProblem,
):
    result = delinearize(problem, keep_trace=True)
    assume(_splits(result) and _keeps_level_pairs(result, problem))
    (equation,) = problem.equations
    refined = _refine_with_tests(equation, problem)
    if refined.verdict is Verdict.INDEPENDENT:
        assert result.verdict is Verdict.INDEPENDENT
    if result.verdict is not Verdict.INDEPENDENT:
        assert _atoms(result.direction_vectors) <= _atoms(refined.dirvecs)


def _same_answer(result, lone, traced: bool) -> None:
    assert result.verdict is lone.verdict
    assert result.direction_vectors == lone.direction_vectors
    assert result.distances == lone.distances
    assert result.dimensions_found == lone.dimensions_found
    if traced:
        assert result.trace == lone.trace
        assert result.format_trace() == lone.format_trace()


@given(split_families(), st.data())
@settings(max_examples=150, deadline=None)
def test_family_members_share_cases_and_match_their_lone_answers(
    members, data
):
    assume(sum(_splits(delinearize(p, keep_trace=True)) for p in members) >= 2)
    # Each member is solved with or without the audit (which keeps the
    # trace), in a shuffled order, all through one cache.
    traced = data.draw(
        st.lists(st.booleans(), min_size=len(members), max_size=len(members))
    )
    order = data.draw(st.permutations(range(len(members))))
    cache = ProblemCache()
    for index in order:
        problem, keep = members[index], traced[index]
        audit = (lambda problem, result: []) if keep else None
        result = cached_delinearize(problem, cache=cache, audit=audit)
        _same_answer(result, delinearize(problem, keep_trace=keep), keep)


@given(split_families(), st.data())
@settings(max_examples=100, deadline=None)
def test_member_out_of_budget_mid_split_leaves_no_case_work(members, data):
    first, second = members[:2]
    counted = Budget(steps=10**9)
    assume(_splits(delinearize(first, keep_trace=True, budget=counted)))
    steps = counted.limit - counted.remaining
    cache = ProblemCache()
    touched = []
    family = cache.family

    def watched(context, order):
        memo = family(context, order)
        touched.append(memo)
        return memo

    cache.family = watched
    budget = Budget(steps=data.draw(st.integers(1, steps - 1)))
    with pytest.raises(BudgetExhausted):
        cached_delinearize(first, cache=cache, budget=budget)
    assume(touched)  # the split began before the budget ran out
    assert len(cache) == 0
    assert all(not memo.heads and not memo.rests for memo in touched)
    for problem in (second, first):
        _same_answer(
            cached_delinearize(problem, cache=cache), delinearize(problem), False
        )

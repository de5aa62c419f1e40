"""The solution census must agree with enumeration on every small box.

:func:`solution_census` replaces enumeration in the soundness audit, so it
is checked differentially against three enumerating answers: the verdict
of :func:`exhaustive_test`, the direction set of
:func:`exhaustive_direction_vectors`, and a plain ``itertools.product``
count of solving points per direction.
"""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resilience import Budget
from repro.deptests import (
    BoundedVar,
    DependenceProblem,
    Verdict,
    exhaustive_direction_vectors,
    exhaustive_test,
)
from repro.deptests.counting import solution_census
from repro.dirvec.vectors import DirVec
from repro.symbolic import LinExpr, Poly

#: The largest upper bound drawn for a problem of ``n`` variables, so that
#: every box stays small enough to enumerate (at most 4,096 points).
MAX_UPPER = {0: 0, 1: 5, 2: 5, 3: 5, 4: 5, 5: 4, 6: 3}


@st.composite
def problems(draw):
    """1–2 equations over 0–6 variables, 0–3 of them level pairs.

    Pairs come first (``a<k>``/``b<k>`` at level ``k``), then unpaired
    ``u<k>``.  An upper bound of -1 is an empty range.  A pair's two
    coefficients are often drawn to cancel in every equation, the shape of
    a same-loop subscript, which the census tabulates over the distance.
    """
    pair_count = draw(st.integers(0, 3))
    single_count = draw(st.integers(0, 6 - 2 * pair_count))
    pairs = [(f"a{k}", f"b{k}") for k in range(1, pair_count + 1)]
    singles = [f"u{k}" for k in range(single_count)]
    top = MAX_UPPER[2 * pair_count + single_count]
    bound = st.integers(-1, top) if draw(st.booleans()) else st.integers(0, top)
    variables = []
    for level, (alpha, beta) in enumerate(pairs, start=1):
        variables.append(BoundedVar.make(alpha, draw(bound), level, 0))
        variables.append(BoundedVar.make(beta, draw(bound), level, 1))
    variables += [BoundedVar.make(name, draw(bound)) for name in singles]
    coeff = st.integers(-6, 6)
    cancel = [draw(st.booleans()) for _ in pairs]
    equations = []
    for _ in range(draw(st.integers(1, 2))):
        coeffs = {}
        for (alpha, beta), cancels in zip(pairs, cancel):
            coeffs[alpha] = draw(coeff)
            coeffs[beta] = -coeffs[alpha] if cancels else draw(coeff)
        for name in singles:
            coeffs[name] = draw(coeff)
        equations.append(LinExpr(coeffs, draw(st.integers(-20, 20))))
    return DependenceProblem(equations, variables, common_levels=pair_count)


def enumerated_census(problem):
    """Solving points per direction, by a plain walk over the box."""
    names = list(problem.variables)
    ranges = [range(problem.variables[n].upper.as_int() + 1) for n in names]
    rows = [
        ([eq.coeff(n).as_int() for n in names], eq.const.as_int())
        for eq in problem.equations
    ]
    pairs = [
        (names.index(a.name), names.index(b.name))
        for a, b in problem.level_pairs()
    ]
    census = Counter()
    for point in product(*ranges):
        if all(
            sum(c * v for c, v in zip(coeffs, point)) + const == 0
            for coeffs, const in rows
        ):
            census[DirVec(direction(point[a], point[b]) for a, b in pairs)] += 1
    return dict(census)


def direction(alpha, beta):
    if alpha < beta:
        return "<"
    return "=" if alpha == beta else ">"


@settings(max_examples=500, deadline=None)
@given(problems())
def test_census_matches_enumeration(problem):
    census = solution_census(problem)
    assert census == enumerated_census(problem)
    truth = exhaustive_test(problem)
    assert truth is (Verdict.DEPENDENT if census else Verdict.INDEPENDENT)
    if problem.common_levels:
        assert set(census) == exhaustive_direction_vectors(problem)


@settings(max_examples=100, deadline=None)
@given(problems())
def test_census_of_one_equation_keeps_level_pairs(problem):
    """The DS005 shape: one equation's own box, whose level pairs may be
    split (one side absent), still counts every solving point once."""
    eq = problem.equations[0]
    kept = [v for n, v in problem.variables.items() if n in eq.variables()]
    sub = DependenceProblem([eq], kept, problem.common_levels)
    plain = DependenceProblem([eq], [BoundedVar(v.name, v.upper) for v in kept])
    census = solution_census(sub)
    assert sum(census.values()) == sum(enumerated_census(plain).values())


@pytest.mark.parametrize(
    "coeffs, bounds",
    [
        ({"a": 1, "b": -1}, {"a": -1, "b": 3}),  # cancelling pair
        ({"a": 1, "b": 2}, {"a": 3, "b": -1}),  # tabulated pair
        ({"a": 1, "b": -1, "u": 1}, {"a": 3, "b": 3, "u": -1}),  # unpaired
    ],
)
def test_empty_range_has_no_solutions(coeffs, bounds):
    problem = DependenceProblem.single(coeffs, -2, bounds, pairs=[("a", "b")])
    assert solution_census(problem) == {} == enumerated_census(problem)


@pytest.mark.parametrize("const, expected", [(0, {DirVec([]): 1}), (3, {})])
def test_zero_variable_problem(const, expected):
    problem = DependenceProblem([LinExpr({}, const)], [])
    assert solution_census(problem) == expected


def test_distance_table_counts_a_large_box():
    """``i1-i2 + 8(j1-j2) + 64(k1-k2) - 10 = 0`` over 8**6 points: three
    distance tables of 15 rows, no enumeration."""
    census = solution_census(three_level_problem(), Budget(steps=1_000))
    # Distances d = beta - alpha with d_i + 8 d_j + 64 d_k = -10, |d| <= 7;
    # each is realized by (8 - |d_i|)(8 - |d_j|)(8 - |d_k|) points.
    expected = {}
    for d in ((-2, -1, 0), (6, -2, 0), (-2, 7, -1), (6, 6, -1)):
        vec = DirVec(direction(0, x) for x in d)
        expected[vec] = (8 - abs(d[0])) * (8 - abs(d[1])) * (8 - abs(d[2]))
    assert census == expected


def three_level_problem():
    return DependenceProblem.single(
        {"i1": 1, "i2": -1, "j1": 8, "j2": -8, "k1": 64, "k2": -64},
        -10,
        {name: 7 for name in ("i1", "i2", "j1", "j2", "k1", "k2")},
        pairs=[("i1", "i2"), ("j1", "j2"), ("k1", "k2")],
    )


def test_symbolic_problem_rejected():
    n = Poly.symbol("N")
    problem = DependenceProblem(
        [LinExpr({"i1": 1, "i2": -1}, -1)],
        [BoundedVar("i1", n), BoundedVar("i2", n)],
    )
    with pytest.raises(ValueError, match="concrete"):
        solution_census(problem)


def test_starved_budget_answers_none():
    budget = Budget(steps=1)
    assert solution_census(three_level_problem(), budget) is None
    assert budget.exhausted

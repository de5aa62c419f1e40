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
"""

from importlib import import_module
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import delinearize
from repro.core.groups import _refine_with_tests
from repro.deptests import (
    DependenceProblem,
    Verdict,
    exhaustive_direction_vectors,
    exhaustive_test,
)

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

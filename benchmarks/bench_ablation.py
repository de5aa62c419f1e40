"""E11 — ablations of the design choices called out in DESIGN.md.

1. coefficient sorting: unsorted scanning loses splits (precision), at
   equal cost;
2. symbolic predicates: without the N >= 2 assumption the symbolic example
   cannot be separated at all;
3. rectangular iteration-space extension (paper footnote 1): the cheap box
   bound occasionally reports MAYBE where exact (exhaustive) bounds decide;
4. the r vs r-g remainder decomposition: restricting to the canonical
   remainder misses the paper's own Figure-5 barrier at k=5; a case split
   recovers the dimension, and without splits it is lost.
"""

from repro import Verdict, delinearize
from repro.deptests import exhaustive_test

from .workloads import (
    figure5_equation,
    intro_equation,
    linearized_chain,
    symbolic_problem,
)


class TestSortingAblation:
    def test_precision_gap(self):
        decided_sorted = decided_unsorted = 0
        cases = [
            linearized_chain(pairs, seed=seed)
            for pairs in (2, 3, 4, 6)
            for seed in range(10)
        ]
        for problem in cases:
            if delinearize(problem).verdict is not Verdict.MAYBE:
                decided_sorted += 1
            unsorted = delinearize(problem, sort_coefficients=False)
            if unsorted.verdict is not Verdict.MAYBE:
                decided_unsorted += 1
        assert decided_sorted == len(cases)
        # Chains are built smallest-stride-first, so the unsorted scan
        # happens to coincide; scramble instead:
        assert decided_unsorted <= decided_sorted

    def test_scrambled_equation_requires_sorting(self):
        # Figure-5's equation is given large-stride-first: without sorting
        # the very first suffix gcd is 1 forever and no barrier is found.
        problem = figure5_equation()
        sorted_result = delinearize(problem)
        unsorted_result = delinearize(problem, sort_coefficients=False)
        assert sorted_result.verdict is Verdict.DEPENDENT
        assert sorted_result.dimensions_found == 3
        assert unsorted_result.dimensions_found < 3

    def test_bench_sorted(self, benchmark):
        problem = figure5_equation()
        benchmark(delinearize, problem)

    def test_bench_unsorted(self, benchmark):
        problem = figure5_equation()
        benchmark(delinearize, problem, sort_coefficients=False)


class TestSymbolicPredicateAblation:
    def test_assumption_needed_for_separation(self):
        with_predicate = delinearize(symbolic_problem(2))
        without_predicate = delinearize(symbolic_problem(1))
        assert with_predicate.dimensions_found == 3
        assert without_predicate.dimensions_found == 0

    def test_bench_with_predicate(self, benchmark):
        problem = symbolic_problem(2)
        benchmark(delinearize, problem)

    def test_bench_without_predicate(self, benchmark):
        problem = symbolic_problem(1)
        benchmark(delinearize, problem)


class TestRectangularExtensionAblation:
    def test_box_bound_is_sound_but_not_exact(self):
        # On box-bounded problems the two coincide; the gap appears only
        # for direction-constrained sub-problems (the dropped coupling
        # lo + t <= Z - 1).  Soundness: delinearization never contradicts
        # exhaustive enumeration.
        for pairs in (2, 3):
            for seed in range(10):
                problem = linearized_chain(pairs, seed=seed)
                verdict = delinearize(problem).verdict
                truth = exhaustive_test(problem)
                if verdict is not Verdict.MAYBE:
                    assert verdict is truth


class TestRemainderDecompositionAblation:
    def test_canonical_only_misses_figure5(self, monkeypatch):
        """Force the canonical remainder and watch the k=5 barrier vanish.

        The scan then splits at k=5 (``v in {10}``), and the one case
        recovers the third dimension; with splits off as well only two
        dimensions are found.
        """
        from importlib import import_module

        problem = figure5_equation()
        full = delinearize(problem, keep_trace=True)
        assert full.dimensions_found == 3

        module = import_module("repro.core.delinearize")
        original = module._candidate_remainders
        monkeypatch.setattr(
            module,
            "_candidate_remainders",
            lambda c0, gk: [original(c0, gk)[0]],
        )
        restricted = delinearize(problem, keep_trace=True)
        (k5,) = [
            row for row in restricted.trace if row.k == 5 and row.depth == 0
        ]
        assert k5.cases and k5.separated is None
        monkeypatch.setattr(module, "SPLIT_CASE_LIMIT", 0)
        unsplit = delinearize(problem)
        assert unsplit.dimensions_found < 3


def test_bench_intro_with_and_without_sorting(benchmark):
    problem = intro_equation()
    benchmark(delinearize, problem)

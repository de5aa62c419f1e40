"""Budget regression: every bounded dependence test yields *unknown* at
its limit — none of them may raise (exhaustive_test used to)."""

import signal

import pytest

from repro.core.resilience import Budget
from repro.deptests import (
    Verdict,
    acyclic_test,
    exhaustive_test,
    omega_test,
    shostak_test,
    simple_loop_residue_test,
)
from repro.deptests.problem import BoundedVar, DependenceProblem
from repro.symbolic import LinExpr


class TestUnknownAtLimitOne:
    """With a one-step allowance each test must answer MAYBE, not raise."""

    def test_omega(self, intro_equation):
        assert omega_test(intro_equation, work_limit=1) is Verdict.MAYBE

    def test_exhaustive(self, intro_equation):
        # Regression: this used to raise TooLarge instead of degrading.
        assert exhaustive_test(intro_equation, max_points=1) is Verdict.MAYBE

    def test_shostak(self, forward_shift):
        # Two-variable problem so the saturation loop is actually entered.
        budget = Budget(steps=1)
        assert shostak_test(forward_shift, budget=budget) is Verdict.MAYBE
        assert budget.exhausted

    def test_loop_residue(self, forward_shift):
        budget = Budget(steps=1)
        verdict = simple_loop_residue_test(forward_shift, budget=budget)
        assert verdict is Verdict.MAYBE
        assert budget.exhausted

    def test_acyclic(self, intro_equation):
        # Exhaustion only stops the tightening rounds early; the pinned
        # check still runs, so the verdict stays a sound MAYBE.
        budget = Budget(steps=1)
        assert acyclic_test(intro_equation, budget=budget) is Verdict.MAYBE


class TestSharedBudget:
    def test_exhausted_budget_short_circuits_the_cascade(self, forward_shift):
        budget = Budget(steps=1)
        assert omega_test(forward_shift, budget=budget) is Verdict.MAYBE
        assert budget.exhausted
        # The same (now exhausted) budget makes every later test give up
        # immediately — the cascade shares one allowance per pair.
        assert shostak_test(forward_shift, budget=budget) is Verdict.MAYBE
        assert acyclic_test(forward_shift, budget=budget) is Verdict.MAYBE

    def test_generous_budget_leaves_answers_exact(self, intro_equation):
        budget = Budget(steps=1_000_000)
        assert omega_test(intro_equation, budget=budget) is Verdict.INDEPENDENT
        assert not budget.exhausted

    @pytest.mark.parametrize("work_limit", [1, 2, 5, 17, 100])
    def test_omega_never_raises_at_any_limit(self, intro_equation, work_limit):
        verdict = omega_test(intro_equation, work_limit=work_limit)
        assert verdict in (Verdict.MAYBE, Verdict.INDEPENDENT)


class TestShostakSaturationTerminates:
    """Regression: the saturation loop kept every looser copy of a
    constraint, so on this system it rescanned an ever-growing set for
    minutes.  The real relaxation is feasible at (36/13, 15/13), so MAYBE is
    the exact answer."""

    def test_coupled_pair_answers_quickly(self):
        z1, z2 = LinExpr.var("z1"), LinExpr.var("z2")
        problem = DependenceProblem(
            [4 * z1 - 7 * z2 - 3, z1 - 5 * z2 + 3],
            [BoundedVar.make("z1", 4), BoundedVar.make("z2", 5)],
        )

        def too_slow(signum, frame):
            raise TimeoutError("shostak_test did not finish within 10 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(10)
        try:
            verdict = shostak_test(problem)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert verdict is Verdict.MAYBE
        assert exhaustive_test(problem) is Verdict.INDEPENDENT

"""Regression gallery: every bug found while building this reproduction.

Each test encodes the minimal trigger for a defect that was caught by the
property suites or during paper-example validation, so the fix cannot
silently rot.
"""

from repro import DependenceProblem, Verdict, delinearize, parse_fortran
from repro.deptests import (
    BoundedVar,
    acyclic_test,
    exhaustive_test,
    omega_test,
)
from repro.dirvec import DirVec
from repro.symbolic import LinExpr


class TestWithDirectionBoundsBug:
    """with_direction once dropped unused variables, losing the fact that a
    transformed range like alpha in [0, -1] is empty — it then reported a
    '<' constraint feasible when no point realized it."""

    def test_empty_directed_space(self):
        problem = DependenceProblem.single(
            {}, 0, {"z1": 0, "z2": 0}, pairs=[("z1", "z2")]
        )
        constrained = problem.with_direction(DirVec.parse("(<)"))
        assert exhaustive_test(constrained) is Verdict.INDEPENDENT

    def test_unequal_bounds_keep_solutions(self):
        # z1 in [0,0], z2 in [0,1]: z1 < z2 is realizable (0 < 1); the old
        # clamp z1 <= Z1 - 1 = -1 wrongly emptied it.
        problem = DependenceProblem.single(
            {}, 0, {"z1": 0, "z2": 1}, pairs=[("z1", "z2")]
        )
        constrained = problem.with_direction(DirVec.parse("(<)"))
        assert exhaustive_test(constrained) is Verdict.DEPENDENT


class TestAcyclicApplicabilityGate:
    """The propagation engine is stronger than MHL91's acyclic test; without
    the forest gate it disproved the paper's intro equation — historically
    wrong (the paper lists the acyclic test as inadequate there)."""

    def test_clique_equation_stays_maybe(self):
        problem = DependenceProblem.single(
            {"i1": 1, "j1": 10, "i2": -1, "j2": -10},
            -5,
            {"i1": 4, "i2": 4, "j1": 9, "j2": 9},
        )
        assert acyclic_test(problem) is Verdict.MAYBE


class TestEmptyGroupVerdictBug:
    """With every barrier blocked (poisoned symbolic bounds), zero groups
    were solved and the vacuous all() once claimed DEPENDENT."""

    def test_unseparable_symbolic_is_maybe(self):
        from repro.symbolic import Assumptions, Poly

        n = Poly.symbol("N")
        eq = LinExpr({"x": n, "y": -1}, -1)
        problem = DependenceProblem(
            [eq],
            [BoundedVar.make("x", n - 2), BoundedVar.make("y", n - 2)],
            assumptions=Assumptions({"N": 1}),  # N-2 not provably >= 0
        )
        assert delinearize(problem).verdict is Verdict.MAYBE


class TestRemainderRepresentative:
    """-110 mod 100 must also be tried as -10: the canonical +90 blocks the
    paper's own Figure-5 barrier."""

    def test_figure5_needs_negative_remainder(self):
        problem = DependenceProblem.single(
            {"k1": 100, "k2": -100, "j1": 10, "i2": -10, "i1": 1, "j2": -1},
            -110,
            {"i1": 8, "i2": 8, "j1": 9, "j2": 9, "k1": 8, "k2": 8},
        )
        assert delinearize(problem).dimensions_found == 3


class TestOmegaSigmaCollision:
    """Splinter sub-systems once reset the fresh-variable counter, so a new
    _sigma1 collided with the parent's _sigma1 and merged two unrelated
    variables (crashing on a missing unit coefficient)."""

    def test_splinter_after_mod_reduction(self):
        problem = DependenceProblem.single(
            {"z1": 2, "z2": 3, "z3": 7}, 1, {"z1": 0, "z2": 0, "z3": 0}
        )
        assert omega_test(problem) is exhaustive_test(problem)


class TestOmegaDarkShadowDrop:
    """An infeasible dark-shadow constraint was once silently dropped,
    letting the feasibility check run on a weaker system."""

    def test_gray_zone_problem(self):
        # Coefficients > 1 on both sides force the inexact elimination path.
        problem = DependenceProblem.single(
            {"x": 6, "y": -4}, -3, {"x": 9, "y": 9}
        )
        assert omega_test(problem) is exhaustive_test(problem)


class TestSelfPairDuplication:
    """Self write/write pairs once produced mirrored duplicate edges."""

    def test_single_output_edge(self):
        from repro.depgraph import analyze_dependences

        graph = analyze_dependences(
            parse_fortran(
                """
                REAL B(100)
                DO 1 i = 1, 99
                DO 1 j = 1, 99
                1 B(j) = B(j) * 2
                """
            )
        )
        output_edges = [e for e in graph.edges if e.kind == "output"]
        assert len(output_edges) == 1


class TestSameStatementIdentityDependence:
    """A(i,j) = A(i,j) + 1 once serialized completely because the
    within-instance read-before-write was recorded as a dependence."""

    def test_fully_vectorizable(self):
        from repro.depgraph import analyze_dependences
        from repro.vectorizer import vectorize

        graph = analyze_dependences(
            parse_fortran(
                """
                REAL A(100,100)
                DO 1 i = 1, 10
                DO 1 j = 1, 10
                1 A(i, j) = A(i, j) + 1
                """
            )
        )
        assert graph.edges == []
        plan = vectorize(graph)
        assert plan.statement_plan("S1").vector_levels == (1, 2)


class TestNegativeStrideSection:
    """D(9-i) = E(i) was once emitted as D(0:9) = E(0:9), silently dropping
    the reversal."""

    def test_reversed_section(self):
        from repro.depgraph import analyze_dependences
        from repro.vectorizer import emit_program, vectorize

        graph = analyze_dependences(
            parse_fortran(
                "REAL D(0:9), E(0:9)\nDO i = 0, 9\nD(9-i) = E(i)\nENDDO\n"
            )
        )
        text = emit_program(vectorize(graph))
        assert "D(9:0:-1) = E(0:9)" in text


class TestUniformMagnitudeDirectionPrecision:
    """The uniform-magnitude group solver once reported '*' directions on
    large concrete pair groups, producing phantom anti edges (an S1->S4
    edge in the Figure-3 program that has no realizing solution)."""

    def test_no_phantom_reverse_edge(self):
        from repro.depgraph import analyze_dependences

        graph = analyze_dependences(
            parse_fortran(
                """
                REAL Y(300)
                DO 1 i = 1, 100
                Y(i+100) = 1
                1 Y(i) = 2
                """
            )
        )
        # Y(i+100) and Y(i) never overlap within bounds... they do overlap:
        # i1 + 100 = i2 has solutions only when i2 > 100 — out of range.
        assert graph.edges == []


class TestRefinementLevelCap:
    """3^levels refinement once exploded on wide non-separable equations
    (28 s for a 16-variable chain)."""

    def test_wide_chain_is_fast(self):
        import time

        coeffs = {}
        bounds = {}
        pairs = []
        stride = 1
        for level in range(1, 9):
            a, b = f"a{level}", f"b{level}"
            coeffs[a], coeffs[b] = stride, -stride
            bounds[a] = bounds[b] = 3
            pairs.append((a, b))
            stride *= 4  # packed strides: carries possible, no separation
        problem = DependenceProblem.single(coeffs, -(stride // 2 + 1), bounds, pairs=pairs)
        start = time.perf_counter()
        delinearize(problem)
        assert time.perf_counter() - start < 2.0


class TestSplitLeafCap:
    """Case splits double per level: a 10-level linearized equation whose
    constant misses every barrier would make 512 leaf cases.  Its case tree
    is sized before the first split, so it stays unsplit, does no case work
    and spends no more scan steps than the scan without splits."""

    @staticmethod
    def _ten_levels():
        coeffs, bounds, pairs = {}, {}, []
        for level in range(10):
            a, b = f"a{level}", f"b{level}"
            coeffs[a], coeffs[b] = 8**level, -(8**level)
            bounds[a] = bounds[b] = 7
            pairs.append((a, b))
        # Base-8 digits 2222222222: a remainder at every step.
        return DependenceProblem.single(
            coeffs, -int("2" * 10, 8), bounds, pairs=pairs
        )

    def test_ten_levels_stay_under_the_leaf_cap(self, monkeypatch):
        from importlib import import_module

        from repro.core.resilience import Budget

        scan = import_module("repro.core.delinearize")
        problem = self._ten_levels()
        heads = []
        solve_head = scan._solve_head
        monkeypatch.setattr(
            scan,
            "_solve_head",
            lambda s, head: heads.append(head) or solve_head(s, head),
        )

        def solve():
            budget = Budget(steps=10**9)
            result = delinearize(problem, keep_trace=True, budget=budget)
            return budget.limit - budget.remaining, result

        split_steps, result = solve()
        assert heads == []
        assert not any(row.cases for row in result.trace)
        monkeypatch.setattr(scan, "SPLIT_CASE_LIMIT", 0)
        unsplit_steps, unsplit = solve()
        assert result.format_trace() == unsplit.format_trace()
        assert result.direction_vectors == unsplit.direction_vectors
        # Work, not wall time: the step count is deterministic.
        assert split_steps <= unsplit_steps


class TestEmptyLoopRange:
    """``DO 1 i = 5, 3`` once drew four false DS001 errors from ``repro
    lint`` next to its DL007.  For ``a - b = 0`` with ``a, b in [0, -1]``
    the integer scan answered INDEPENDENT from inverted extremes
    (``smin=1 smax=-1``), while the generic scan, and the audit's replay
    with it, could prove nothing over a negative bound and rejected that
    trace.  A negative constant upper bound now empties the iteration box
    before any scan."""

    SOURCE = "REAL A(0:99)\nDO 1 i = 5, 3\n1 A(i) = A(i) + 1\n"

    def test_empty_box_is_independent_before_the_scan(self):
        from repro.lint.audit import audit_result

        problem = DependenceProblem.single(
            {"a": 1, "b": -1}, 0, {"a": -1, "b": -1}, pairs=[("a", "b")]
        )
        result = delinearize(problem, keep_trace=True)
        assert result.verdict is Verdict.INDEPENDENT
        assert result.groups == [] and result.dimensions_found == 0
        assert result.format_trace() == (
            "k=1: c=- smin=None smax=None g=inf r=None  "
            "[empty range: a in [0, -1]]"
        )
        assert audit_result(problem, result) == []
        for sort in (True, False):
            assert delinearize(problem, sort_coefficients=sort).independent

    def test_lint_reports_only_the_empty_range(self):
        from repro.lint import lint_source

        report = lint_source(self.SOURCE)
        assert [d.code for d in report.diagnostics] == ["DL007"]

"""Unit tests for the Figure-4 delinearization algorithm."""

from repro.core import delinearize
from repro.deptests import BoundedVar, DependenceProblem, Verdict
from repro.dirvec import DirVec
from repro.symbolic import Assumptions, LinExpr, Poly


class TestIntroEquation:
    def test_proves_independence(self, intro_equation):
        result = delinearize(intro_equation)
        assert result.verdict is Verdict.INDEPENDENT
        assert result.direction_vectors == set()

    def test_trace_records_scan(self, intro_equation):
        result = delinearize(intro_equation, keep_trace=True)
        assert any("independent" in row.note for row in result.trace)

    def test_unsorted_scan_still_sound_but_weaker(self, intro_equation):
        # Ablation: without sorting the i/j interleaving can hide the
        # barrier; the verdict may degrade but must stay sound.
        result = delinearize(intro_equation, sort_coefficients=False)
        assert result.verdict in (Verdict.INDEPENDENT, Verdict.MAYBE)


class TestSimpleCases:
    def test_forward_shift_dependent(self, forward_shift):
        result = delinearize(forward_shift)
        assert result.verdict is Verdict.DEPENDENT
        # i1 + 1 = i2: the sink runs one iteration later (beta - alpha = 1).
        assert result.distances[1].as_int() == 1

    def test_out_of_reach_independent(self, out_of_reach_shift):
        assert delinearize(out_of_reach_shift).verdict is Verdict.INDEPENDENT

    def test_gcd_style_independence(self):
        problem = DependenceProblem.single(
            {"z1": 2, "z2": -2}, -1, {"z1": 9, "z2": 9}
        )
        assert delinearize(problem).verdict is Verdict.INDEPENDENT


class TestMhl91DistanceVector:
    def test_exact_distance(self, mhl91_example):
        result = delinearize(mhl91_example)
        assert result.verdict is Verdict.DEPENDENT
        # Raw (beta - alpha) distances; level 1 carries -2, level 2 is 0.
        assert result.distances[1].as_int() == -2
        assert result.distances[2].as_int() == 0
        ddvec = result.distance_direction_vector(2)
        assert str(ddvec) == "(-2, 0)"

    def test_direction_vectors(self, mhl91_example):
        result = delinearize(mhl91_example)
        assert result.direction_vectors == {DirVec.parse("(>, =)")}


class TestFigure5:
    def make_problem(self):
        return DependenceProblem.single(
            {"k1": 100, "k2": -100, "j1": 10, "i2": -10, "i1": 1, "j2": -1},
            -110,
            {"i1": 8, "i2": 8, "j1": 9, "j2": 9, "k1": 8, "k2": 8},
        )

    def test_three_dimensions_recovered(self):
        result = delinearize(self.make_problem(), keep_trace=True)
        separated = [str(g.equation) for g in result.groups]
        assert separated == [
            "i1 - j2",
            "-10*i2 + 10*j1 - 10",
            "100*k1 - 100*k2 - 100",
        ]
        assert result.verdict is Verdict.DEPENDENT

    def test_trace_matches_paper_extremes(self):
        result = delinearize(self.make_problem(), keep_trace=True)
        rows = {row.k: row for row in result.trace}
        # Paper Figure 5 smin/smax column values at the barrier rows.
        assert (str(rows[3].smin), str(rows[3].smax)) == ("-9", "8")
        assert (str(rows[5].smin), str(rows[5].smax)) == ("-80", "90")
        assert (str(rows[7].smin), str(rows[7].smax)) == ("-800", "800")

    def test_negative_remainder_representative(self):
        # -110 mod 100 must be taken as -10 at the k=5 barrier.
        result = delinearize(self.make_problem(), keep_trace=True)
        rows = {row.k: row for row in result.trace}
        assert str(rows[5].r) == "-10"


class TestSymbolicDelinearization:
    def make_problem(self, lower_bound):
        n = Poly.symbol("N")
        eq = LinExpr(
            {
                "k1": n * n,
                "j1": n,
                "i1": 1,
                "k2": -(n * n),
                "j2": -1,
                "i2": -n,
            },
            -(n * n) - n,
        )
        variables = [
            BoundedVar.make("i1", n - 2, 1, 0),
            BoundedVar.make("i2", n - 2, 1, 1),
            BoundedVar.make("j1", n - 1, 2, 0),
            BoundedVar.make("j2", n - 1, 2, 1),
            BoundedVar.make("k1", n - 2, 3, 0),
            BoundedVar.make("k2", n - 2, 3, 1),
        ]
        return DependenceProblem(
            [eq],
            variables,
            common_levels=3,
            assumptions=Assumptions({"N": lower_bound}),
        )

    def test_three_symbolic_dimensions(self):
        result = delinearize(self.make_problem(2))
        assert result.dimensions_found == 3
        separated = [str(g.equation) for g in result.groups]
        assert separated == [
            "i1 - j2",
            "-N*i2 + N*j1 - N",
            "N^2*k1 - N^2*k2 - N^2",
        ]

    def test_dependence_proven_for_n_ge_3(self):
        result = delinearize(self.make_problem(3))
        assert result.verdict is Verdict.DEPENDENT
        assert str(result.distance_direction_vector(3)) == "(*, *, -1)"

    def test_maybe_for_n_ge_2(self):
        # At N == 2 the k loop has a single iteration; distance -1 infeasible.
        assert delinearize(self.make_problem(2)).verdict is Verdict.MAYBE

    def test_conservative_without_assumptions(self):
        # N >= 1 does not let the bound N-2 be proven non-negative: no
        # barrier may be drawn, and the result degrades to MAYBE (sound).
        result = delinearize(self.make_problem(1))
        assert result.verdict is Verdict.MAYBE
        assert result.dimensions_found == 0

    def test_matches_concrete_instantiation(self):
        symbolic = self.make_problem(3)
        for n_value in (3, 5, 8):
            eq = symbolic.equations[0].subs_symbols({"N": n_value})
            variables = [
                BoundedVar.make(
                    v.name, v.upper.subs({"N": n_value}), v.level, v.side
                )
                for v in symbolic.variables.values()
            ]
            concrete = DependenceProblem([eq], variables, common_levels=3)
            from repro.deptests import exhaustive_test

            assert exhaustive_test(concrete) is Verdict.DEPENDENT


class TestMultiEquationSystems:
    def test_any_independent_equation_wins(self):
        eq1 = LinExpr({"i1": 1, "i2": -1}, 0)  # dependent alone
        eq2 = LinExpr({"j1": 1, "j2": -1}, -100)  # impossible
        problem = DependenceProblem(
            [eq1, eq2],
            [
                BoundedVar.make("i1", 9, 1, 0),
                BoundedVar.make("i2", 9, 1, 1),
                BoundedVar.make("j1", 9, 2, 0),
                BoundedVar.make("j2", 9, 2, 1),
            ],
            common_levels=2,
        )
        assert delinearize(problem).verdict is Verdict.INDEPENDENT

    def test_conflicting_distances_detected(self):
        eq1 = LinExpr({"i1": 1, "i2": -1}, 1)  # beta - alpha = 1
        eq2 = LinExpr({"i1": 1, "i2": -1}, 2)  # beta - alpha = 2
        problem = DependenceProblem(
            [eq1, eq2],
            [BoundedVar.make("i1", 9, 1, 0), BoundedVar.make("i2", 9, 1, 1)],
            common_levels=1,
        )
        assert delinearize(problem).verdict is Verdict.INDEPENDENT

    def test_shared_variables_downgrade_dependent(self):
        # Both equations dependent alone and jointly, but variables are
        # shared so the composed DEPENDENT claim must be withheld.
        eq1 = LinExpr({"i1": 1, "i2": -1}, 0)
        eq2 = LinExpr({"i1": 1, "j2": -1}, 0)
        problem = DependenceProblem(
            [eq1, eq2],
            [
                BoundedVar.make("i1", 9, 1, 0),
                BoundedVar.make("i2", 9, 1, 1),
                BoundedVar.make("j2", 9, 2, 1),
                BoundedVar.make("j1", 9, 2, 0),
            ],
            common_levels=2,
        )
        result = delinearize(problem)
        assert result.verdict in (Verdict.MAYBE, Verdict.DEPENDENT)
        if result.verdict is Verdict.DEPENDENT:
            # Only allowed when actually verified solvable.
            from repro.deptests import exhaustive_test

            assert exhaustive_test(problem) is Verdict.DEPENDENT

    def test_disjoint_equations_compose(self):
        eq1 = LinExpr({"i1": 1, "i2": -1}, 1)
        eq2 = LinExpr({"j1": 1, "j2": -1}, -1)
        problem = DependenceProblem(
            [eq1, eq2],
            [
                BoundedVar.make("i1", 9, 1, 0),
                BoundedVar.make("i2", 9, 1, 1),
                BoundedVar.make("j1", 9, 2, 0),
                BoundedVar.make("j2", 9, 2, 1),
            ],
            common_levels=2,
        )
        result = delinearize(problem)
        assert result.verdict is Verdict.DEPENDENT
        # i1 - i2 + 1 = 0 gives beta - alpha = +1; the j equation gives -1.
        assert str(result.distance_direction_vector(2)) == "(+1, -1)"


class TestCaseSplit:
    """Where no barrier holds, the scan splits the remainder into cases."""

    def test_three_levels_split_into_exact_cases(self):
        names = ("i1", "i2", "j1", "j2", "k1", "k2")
        problem = DependenceProblem.single(
            dict(zip(names, (1, -1, 8, -8, 64, -64))),
            -10,
            {name: 7 for name in names},
            pairs=[("i1", "i2"), ("j1", "j2"), ("k1", "k2")],
        )
        result = delinearize(problem, keep_trace=True)
        assert result.verdict is Verdict.DEPENDENT
        assert result.dimensions_found == 3
        assert {str(v) for v in result.direction_vectors} == {
            "(<, <, >)", "(<, >, =)", "(>, <, >)", "(>, >, =)"
        }
        assert result.distances == {}  # every level's distance varies
        splits = [row for row in result.trace if row.cases]
        assert [row.depth for row in splits] == [0, 1, 1]

    def test_cases_left_to_refinement_keep_maybe(self):
        """Each case's rest ``24x1 + 32a - 40x2 + c = 0`` has 41**3 points,
        too many to enumerate, so refinement answers MAYBE: the union may
        not claim DEPENDENT."""
        problem = DependenceProblem.single(
            {"i1": 1, "i2": -1, "x1": 24, "a": 32, "x2": -40},
            -12,
            {"i1": 7, "i2": 7, "x1": 40, "x2": 40, "a": 40},
            pairs=[("i1", "i2"), ("x1", "x2")],
        )
        result = delinearize(problem, keep_trace=True)
        assert [str(v) for row in result.trace for v in row.cases] == [
            "-4", "4"
        ]
        assert result.verdict is Verdict.MAYBE

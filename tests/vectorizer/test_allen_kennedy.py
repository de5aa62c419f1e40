"""Tests for Allen–Kennedy vectorization over analyzed programs."""

from repro.analysis import normalize_program, substitute_induction_variables
from repro.depgraph import analyze_dependences
from repro.frontend import parse_fortran
from repro.vectorizer import emit_program, vectorize


def plan_for(source, **kwargs):
    graph = analyze_dependences(parse_fortran(source), **kwargs)
    return vectorize(graph)


class TestSimplePatterns:
    def test_independent_statement_vectorizes(self):
        result = plan_for("REAL D(0:9)\nDO i = 0, 4\nD(i) = D(i+5)\nENDDO\n")
        assert result.vectorized_statements() == ["S1"]
        assert "D(0:4) = D(5:9)" in emit_program(result)

    def test_recurrence_stays_serial(self):
        result = plan_for("REAL D(0:9)\nDO i = 0, 8\nD(i+1) = D(i)\nENDDO\n")
        assert result.fully_serial_statements() == ["S1"]
        text = emit_program(result)
        assert "DO i = 0, 8" in text
        assert ":" not in text.split("\n")[-3]  # no section in the statement

    def test_inner_loop_vectorized_outer_serial(self):
        src = """
            REAL A(100,100)
            DO 1 i = 1, 10
            DO 1 j = 1, 10
            1 A(i+1, j) = A(i, j) + 1
        """
        result = plan_for(src)
        plan = result.statement_plan("S1")
        assert plan.serial_levels == (1,)
        assert plan.vector_levels == (2,)
        text = emit_program(result)
        assert "DO i" in text
        assert "A(i+2, 1:10)" in text or "A(2+i, 1:10)" in text

    def test_loop_distribution_orders_statements(self):
        # S2 feeds S1 across iterations: distribution must emit S2's loop
        # first when the dependence demands it -- here S1 reads B written
        # by S2 in the same iteration (loop independent), so order S1, S2
        # stays, but both can vectorize after distribution.
        src = """
            REAL A(0:100), B(0:100)
            DO i = 1, 99
              A(i) = A(i) + 1
              B(i) = A(i) * 2
            ENDDO
        """
        result = plan_for(src)
        assert set(result.vectorized_statements()) == {"S1", "S2"}
        text = emit_program(result)
        assert text.index("A(1:99)") < text.index("B(1:99)")

    def test_true_recurrence_with_two_statements(self):
        src = """
            REAL A(0:100), B(0:100)
            DO i = 1, 99
              A(i) = B(i-1) + 1
              B(i) = A(i) * 2
            ENDDO
        """
        result = plan_for(src)
        assert set(result.fully_serial_statements()) == {"S1", "S2"}

    def test_reversal_section_stride(self):
        result = plan_for(
            "REAL D(0:40), E(0:40)\nDO i = 0, 9\nD(2*i) = E(2*i+1)\nENDDO\n"
        )
        text = emit_program(result)
        assert "D(0:18:2) = E(1:19:2)" in text


class TestLinearizedPayoff:
    def test_linearized_independence_gives_doall(self):
        src = """
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
            1 C(i+10*j) = C(i+10*j+5)
        """
        result = plan_for(src)
        plan = result.statement_plan("S1")
        assert plan.vector_levels == (1, 2)
        text = emit_program(result)
        assert "DOALL i" in text and "DOALL j" in text

    def test_without_delinearization_would_serialize(self):
        # Sanity: the dependent variant of the same shape stays serial.
        src = """
            REAL C(0:99)
            DO 1 i = 0, 9
            DO 1 j = 0, 9
            1 C(i+10*j) = C(i+10*j+5)
        """
        # i range [0,9] overlaps the shift: dependence exists.
        result = plan_for(src)
        plan = result.statement_plan("S1")
        assert plan.serial_levels != ()


class TestBoastPipeline:
    BOAST = """
        IB = -1
        DO 1 I = 0, 5
        DO 1 J = 0, 3
        DO 1 K = 0, 2
        IB = IB + 1
        C(J) = C(J) + 1
        1 B(IB) = B(IB) + Q
    """

    def test_b_statement_parallel_in_all_three_loops(self):
        program = substitute_induction_variables(
            normalize_program(parse_fortran(self.BOAST))
        )
        graph = analyze_dependences(program, normalized=True)
        result = vectorize(graph)
        b_plan = next(
            p for p in result.plan if "B(" in str(p.stmt.lhs)
        )
        assert b_plan.vector_levels == (1, 2, 3)

    def test_c_reduction_stays_serial(self):
        program = substitute_induction_variables(
            normalize_program(parse_fortran(self.BOAST))
        )
        graph = analyze_dependences(program, normalized=True)
        result = vectorize(graph)
        c_plan = next(
            p for p in result.plan if str(p.stmt.lhs).startswith("C")
        )
        assert c_plan.vector_levels == ()

    def test_without_iv_substitution_b_is_serial(self):
        program = normalize_program(parse_fortran(self.BOAST))
        graph = analyze_dependences(program, normalized=True)
        result = vectorize(graph)
        b_plan = next(p for p in result.plan if "B(" in str(p.stmt.lhs))
        # IB is an unanalyzable scalar subscript: conservative serial.
        assert b_plan.vector_levels == ()


class TestScalars:
    def test_scalar_assignment_serializes_users(self):
        src = """
            REAL A(0:9)
            DO i = 0, 9
              T = i * 2
              A(i) = T
            ENDDO
        """
        result = plan_for(src)
        assert result.statement_plan("S2").vector_levels == ()

    def test_top_level_statement_kept(self):
        result = plan_for("X = 1\n")
        assert len(result.plan) == 1
        assert "X = 1" in emit_program(result)

    def test_scalar_named_like_another_nests_loop_variable(self):
        # k is a scalar in the second nest and the loop variable of the
        # third: the second nest still needs its k = j -> A(k) edge, or the
        # two statements land in separate j loops and A(0:8) is never set.
        from repro.driver import compile_fortran
        from repro.ir import run_program
        from repro.vectorizer import run_schedule

        src = (
            "REAL A(0:99), B(0:99)\nDO j = 0, 9\nB(j) = j + 1\nENDDO\n"
            "DO j = 0, 9\nk = j\nA(k) = B(j)\nENDDO\n"
            "DO k = 0, 3\nB(k) = 1\nENDDO\n"
        )
        report = compile_fortran(src)
        assert report.output.count("DO j") == 1
        assert not report.degradations
        expected = run_program(parse_fortran(src)).snapshot()
        assert run_schedule(report.plan).snapshot() == expected

    def test_serial_statements_sharing_an_inner_loop_stay_in_it(self):
        # M couples S3 (in the I loop only) with S4 and S5 (in the J
        # loop), so below level 1 no loop encloses the whole cycle; S4 and
        # S5 still share the J loop and must stay interleaved in it.
        from repro.ir import run_program
        from repro.lint.schedule import verify_schedule
        from repro.vectorizer import run_schedule

        src = (
            "REAL A(0:299)\nM = 2\nIB = 0\nDO i = 0, 1\nM = M + 1\n"
            "DO j = 0, 2\nIB = IB + M\nA(IB) = A(IB) + 1\nENDDO\nENDDO\n"
        )
        graph = analyze_dependences(parse_fortran(src))
        result = vectorize(graph)
        assert emit_program(result).count("DO j") == 1
        assert not [
            d for d in verify_schedule(result, graph) if d.severity == "error"
        ]
        expected = run_program(parse_fortran(src)).snapshot()
        assert run_schedule(result).snapshot() == expected

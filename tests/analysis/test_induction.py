"""Tests for multi-loop induction variable recognition (BOAST example)."""

import pytest

from repro.analysis import (
    find_induction_variables,
    normalize_program,
    substitute_induction_variables,
)
from repro.frontend import parse_fortran
from repro.ir import format_program

BOAST = """
IB = -1
DO 1 I = 0, II-1
DO 1 J = 0, JJ-1
DO 1 K = 0, KK-1
IB = IB + 1
C(J) = C(J) + 1
1 B(IB) = B(IB) + Q
"""


class TestRecognition:
    def test_boast_iv_found(self):
        p = normalize_program(parse_fortran(BOAST))
        ivs = find_induction_variables(p)
        assert len(ivs) == 1
        iv = ivs[0]
        assert iv.name == "IB"
        assert iv.depth == 3
        assert str(iv.init) == "-1"
        assert str(iv.step) == "1"

    def test_iv_with_step(self):
        src = "S = 0\nDO i = 0, 9\nS = S + 2\nA(S) = 1\nENDDO\n"
        p = normalize_program(parse_fortran(src))
        ivs = find_induction_variables(p)
        assert len(ivs) == 1
        assert str(ivs[0].step) == "2"

    def test_reversed_update_form(self):
        src = "S = 0\nDO i = 0, 9\nS = 1 + S\nA(S) = 1\nENDDO\n"
        p = normalize_program(parse_fortran(src))
        assert len(find_induction_variables(p)) == 1

    def test_two_updates_rejected(self):
        src = "S = 0\nDO i = 0, 9\nS = S + 1\nS = S + 2\nA(S) = 1\nENDDO\n"
        p = normalize_program(parse_fortran(src))
        assert find_induction_variables(p) == []

    def test_non_invariant_step_rejected(self):
        src = "S = 0\nDO i = 0, 9\nS = S + S\nA(S) = 1\nENDDO\n"
        p = normalize_program(parse_fortran(src))
        assert find_induction_variables(p) == []

    def test_no_init_rejected(self):
        src = "DO i = 0, 9\nS = S + 1\nA(S) = 1\nENDDO\n"
        p = normalize_program(parse_fortran(src))
        assert find_induction_variables(p) == []


class TestSubstitution:
    def test_boast_closed_form(self):
        p = normalize_program(parse_fortran(BOAST))
        rewritten = substitute_induction_variables(p)
        text = format_program(rewritten)
        # IB after the (removed) update: -1 + (1 + K + J*KK + I*JJ*KK)
        #                              = K + KK*J + JJ*KK*I
        assert "IB" not in text
        assert "B(" in text
        # The reference must be affine in K with KK / JJ*KK factors on J / I.
        stmt = rewritten.assignments()[-1]
        assert "K" in str(stmt.lhs)
        assert "KK" in str(stmt.lhs)

    def test_boast_reference_closed_form_evaluates(self):
        from repro.ir import evaluate_expr

        p = normalize_program(parse_fortran(BOAST))
        rewritten = substitute_induction_variables(p)
        subscript = rewritten.assignments()[-1].lhs.subscripts[0]
        # Simulate the loops for small trip counts and compare with a
        # running counter.
        II = JJ = KK = 3
        counter = -1
        for i in range(II):
            for j in range(JJ):
                for k in range(KK):
                    counter += 1
                    env = {"I": i, "J": j, "K": k, "II": II, "JJ": JJ, "KK": KK}
                    assert evaluate_expr(subscript, env) == counter

    def test_update_and_init_removed(self):
        p = normalize_program(parse_fortran(BOAST))
        rewritten = substitute_induction_variables(p)
        labels = [s.label for s in rewritten.assignments()]
        # init + update dropped: only C and B assignments remain.
        assert len(labels) == 2

    def test_uses_before_update_see_previous_value(self):
        from repro.ir import evaluate_expr

        src = "S = 0\nDO i = 0, 9\nA(S) = 1\nS = S + 1\nB(S) = 2\nENDDO\n"
        p = normalize_program(parse_fortran(src))
        rewritten = substitute_induction_variables(p)
        stmts = rewritten.assignments()
        a_sub = stmts[0].lhs.subscripts[0]
        b_sub = stmts[1].lhs.subscripts[0]
        for i in range(5):
            assert evaluate_expr(a_sub, {"i": i}) == i  # before update
            assert evaluate_expr(b_sub, {"i": i}) == i + 1  # after update

    def test_use_in_a_loop_inside_the_innermost_body_is_substituted(self):
        # The update is dropped, so a use left in the inner J loop would
        # read a variable nothing assigns any more.
        src = (
            "IB = 0\nDO i = 1, 10\nIB = IB + 1\nDO j = 1, 5\n"
            "A(IB) = B(j)\nENDDO\nENDDO\n"
        )
        p = normalize_program(parse_fortran(src))
        rewritten = substitute_induction_variables(p)
        text = format_program(rewritten)
        assert "IB" not in text
        assert "A(i+1) = B(j+1)" in text

    def test_use_in_a_sibling_loop_blocks_substitution(self):
        # A(IB) in the K loop is outside the innermost body of the nest
        # that updates IB, so IB must stay a variable.
        src = (
            "IB = 0\nDO i = 1, 10\nDO k = 1, 3\nA(IB) = B(k)\nENDDO\n"
            "DO j = 1, 5\nIB = IB + 1\nB(IB) = 1\nENDDO\nENDDO\n"
        )
        p = normalize_program(parse_fortran(src))
        assert substitute_induction_variables(p) is p

    def test_program_without_ivs_returned_as_is(self):
        p = normalize_program(
            parse_fortran("REAL X(9)\nDO i = 0, 8\nX(i) = 1\nENDDO\n")
        )
        assert substitute_induction_variables(p) is p

    def test_escaping_use_blocks_substitution(self):
        src = (
            "S = 0\n"
            "DO i = 0, 9\n"
            "DO j = 0, 9\n"
            "S = S + 1\n"
            "ENDDO\n"
            "A(S) = 1\n"  # use outside the innermost body
            "ENDDO\n"
        )
        p = normalize_program(parse_fortran(src))
        rewritten = substitute_induction_variables(p)
        assert "S" in format_program(rewritten)

    def test_read_after_the_nest_blocks_substitution(self):
        # Substitution drops the update; a read after the loop would then
        # see no value at all.
        from repro.ir import run_program

        src = (
            "REAL A(0:999), B(0:9)\nK = 0\nDO i = 0, 99\n"
            "A(K) = A(K+100) + 1\nK = K + 1\nENDDO\nB(0) = K\n"
        )
        p = normalize_program(parse_fortran(src))
        rewritten = substitute_induction_variables(p)
        assert run_program(rewritten, {}).snapshot() == run_program(
            p, {}
        ).snapshot()

    def test_program_with_every_iv_skipped_returned_as_is(self):
        # K is recognized but read after the nest, so nothing is
        # substituted: the input comes back, and the compile report does
        # not list a phase that changed nothing.
        from repro.driver import compile_fortran

        src = (
            "REAL A(0:999), B(0:9)\nK = 0\nDO 10 I = 0, 99\n"
            "A(K) = A(K+100) + 1\nK = K + 1\n10 CONTINUE\nB(0) = K\n"
        )
        p = normalize_program(parse_fortran(src))
        assert find_induction_variables(p)
        assert substitute_induction_variables(p) is p
        assert "induction-variables" not in compile_fortran(src).phases


class TestNestInvariance:
    """The closed form reads the init, the step and the inner trip counts
    anywhere in the nest, so a variable whose init, step or inner bound
    the nest changes is left as written (and lint flags it)."""

    PROGRAMS = {
        "step reads a scalar the nest assigns": (
            "REAL A(0:200)\nM = 0\nIB = 0\nDO i = 0, 9\nM = M + 1\n"
            "IB = IB + M\nA(IB) = i\nENDDO\n"
        ),
        "step reads the loop variable": (
            "REAL A(0:200)\nIB = 0\nDO i = 0, 9\nIB = IB + i\n"
            "A(IB) = i + 1\nENDDO\n"
        ),
        "init reads a scalar the nest assigns": (
            "REAL A(0:200)\nM = 3\nIB = M\nDO i = 0, 9\nM = 50\n"
            "IB = IB + 1\nA(IB) = i + 1\nENDDO\n"
        ),
        "triangular nest": (
            "REAL A(0:200)\nIB = -1\nDO i = 0, 4\nDO j = 0, i\n"
            "IB = IB + 1\nA(IB) = i + 1\nENDDO\nENDDO\n"
        ),
    }

    @pytest.mark.parametrize("source", PROGRAMS.values(), ids=PROGRAMS.keys())
    def test_not_recognized(self, source):
        p = normalize_program(parse_fortran(source))
        assert find_induction_variables(p) == []
        assert substitute_induction_variables(p) is p

    @pytest.mark.parametrize("source", PROGRAMS.values(), ids=PROGRAMS.keys())
    def test_compiled_schedule_matches_serial(self, source):
        from repro.driver import compile_fortran
        from repro.ir import run_program
        from repro.vectorizer import run_schedule

        serial = run_program(parse_fortran(source)).snapshot()
        assert run_schedule(compile_fortran(source).plan).snapshot() == serial

    @pytest.mark.parametrize("source", PROGRAMS.values(), ids=PROGRAMS.keys())
    def test_lint_flags_the_variable(self, source):
        from repro.lint import codes
        from repro.lint.engine import lint_source

        assert any(
            d.code == codes.DF002 and "uses IB," in d.message
            for d in lint_source(source).diagnostics
        )

    def test_symbolic_init_step_and_bounds_are_substituted(self):
        src = (
            "IB = N\nDO i = 0, M\nDO j = 0, K\nIB = IB + S\nA(IB) = 1\n"
            "ENDDO\nENDDO\n"
        )
        p = normalize_program(parse_fortran(src))
        assert "IB" not in format_program(substitute_induction_variables(p))

    def test_recognized_once_and_nothing_mutated(self, monkeypatch):
        from repro.analysis import induction

        calls = []
        real = induction.find_induction_variables

        def counting(program):
            calls.append(program)
            return real(program)

        monkeypatch.setattr(induction, "find_induction_variables", counting)
        p = normalize_program(parse_fortran(BOAST))
        before = format_program(p)
        rewritten = substitute_induction_variables(p)
        assert calls == [p]
        assert format_program(p) == before
        assert rewritten is not p and "IB" not in format_program(rewritten)

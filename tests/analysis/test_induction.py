"""Tests for multi-loop induction variable recognition (BOAST example)."""

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

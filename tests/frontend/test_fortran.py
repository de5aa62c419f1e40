"""Tests for the FORTRAN-77 subset parser, on the paper's own programs."""

import pytest

from repro.frontend import ParseError, parse_fortran
from repro.frontend.fortran import parse_expression
from repro.ir import (
    ArrayRef,
    Assignment,
    BinOp,
    Call,
    IntLit,
    Loop,
    Name,
    collect_refs,
)


class TestDeclarations:
    def test_explicit_bounds(self):
        p = parse_fortran("REAL C(0:99)\n")
        decl = p.array("C")
        assert decl is not None
        assert str(decl.dims[0]) == "0:99"

    def test_default_lower_bound_is_one(self):
        p = parse_fortran("REAL X(200)\n")
        assert str(p.array("X").dims[0]) == "1:200"

    def test_multi_array_declaration(self):
        p = parse_fortran("REAL X(200), Y(200), B(100)\n")
        assert set(p.decls) == {"X", "Y", "B"}

    def test_multi_dimensional(self):
        p = parse_fortran("REAL A(0:9,0:9,0:9,0:9)\n")
        assert p.array("A").rank == 4

    def test_symbolic_bounds(self):
        p = parse_fortran("REAL A(0:N*N*N-1)\n")
        assert str(p.array("A").dims[0]) == "0:N*N*N-1"

    def test_scalar_declaration_ignored(self):
        p = parse_fortran("INTEGER IB\n")
        assert not p.decls

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ValueError):
            parse_fortran("REAL A(10)\nREAL A(20)\n")

    def test_equivalence(self):
        p = parse_fortran(
            "REAL A(0:9,0:9)\nREAL B(0:4,0:19)\nEQUIVALENCE (A, B)\n"
        )
        assert p.equivalences[0].arrays == ("A", "B")

    def test_double_precision(self):
        p = parse_fortran("DOUBLE PRECISION D(10)\n")
        assert p.array("D").elem_type == "DOUBLE PRECISION"


class TestLoops:
    def test_enddo_style(self):
        p = parse_fortran(
            """
            REAL D(0:9)
            DO i = 0, 8
              D(i+1) = D(i) * Q
            ENDDO
            """
        )
        loop = p.body[0]
        assert isinstance(loop, Loop)
        assert loop.var == "i"
        assert str(loop.lower) == "0" and str(loop.upper) == "8"
        assert len(loop.body) == 1

    def test_labelled_loop_with_terminating_assignment(self):
        p = parse_fortran(
            "REAL D(0:9)\nDO 1 i = 0, 8\n1 D(i+1) = D(i) * Q\n"
        )
        loop = p.body[0]
        assert isinstance(loop, Loop)
        assert len(loop.body) == 1

    def test_shared_label_closes_all_loops(self):
        # The paper's intro example: two DOs terminated by one statement.
        p = parse_fortran(
            """
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
            1 C(i+10*j) = C(i+10*j+5)
            """
        )
        outer = p.body[0]
        assert isinstance(outer, Loop) and outer.var == "i"
        inner = outer.body[0]
        assert isinstance(inner, Loop) and inner.var == "j"
        stmt = inner.body[0]
        assert isinstance(stmt, Assignment)
        assert str(stmt.lhs) == "C(i+10*j)"

    def test_continue_terminated_nest(self):
        p = parse_fortran(
            """
            DO 10 i = 1, 8
            DO 10 j = 1, 10
              A(10*i+j) = A(10*(i+2)+j) + 7
            10 CONTINUE
            """
        )
        outer = p.body[0]
        inner = outer.body[0]
        assert isinstance(inner.body[0], Assignment)

    def test_loop_with_step(self):
        p = parse_fortran("DO i = 0, 90, 10\nX(i) = 1\nENDDO\n")
        assert str(p.body[0].step) == "10"

    def test_unclosed_do_rejected(self):
        with pytest.raises(ParseError):
            parse_fortran("DO i = 0, 8\nX(i) = 1\n")

    def test_stray_enddo_rejected(self):
        with pytest.raises(ParseError):
            parse_fortran("ENDDO\n")

    def test_unmatched_label_rejected(self):
        with pytest.raises(ParseError):
            parse_fortran("DO 1 i = 0, 8\n2 CONTINUE\n1 CONTINUE\n")

    def test_continue_without_label_rejected(self):
        with pytest.raises(ParseError):
            parse_fortran("CONTINUE\n")


class TestFigure3Program:
    SOURCE = """
        REAL X(200), Y(200), B(100)
        REAL A(100,100), C(100,100)
        DO 30 i = 1, 100
          X(i) = Y(i) + 10
          DO 20 j = 1, 99
            B(j) = A(j,20)
            DO 10 k = 1, 100
              A(j+1,k) = B(j) + C(j,k)
            10 CONTINUE
            Y(i+j) = A(j+1,20)
          20 CONTINUE
        30 CONTINUE
    """

    def test_structure(self):
        p = parse_fortran(self.SOURCE)
        labels = [s.label for s in p.assignments()]
        assert labels == ["S1", "S2", "S3", "S4"]
        s3 = p.statement("S3")
        assert str(s3.lhs) == "A(j+1, k)"

    def test_nesting_depths(self):
        p = parse_fortran(self.SOURCE)
        depths = {s.label: len(loops) for s, loops in p.walk_statements()}
        assert depths == {"S1": 1, "S2": 2, "S3": 3, "S4": 2}


class TestReferences:
    def test_undeclared_subscripted_name_is_call(self):
        p = parse_fortran("REAL A(10)\nA(i) = IFUN(10)\n")
        stmt = p.assignments()[0]
        assert isinstance(stmt.rhs, Call)

    def test_implicit_array_from_lhs(self):
        # C(J) = C(J) + 1: C is an array even without a declaration.
        p = parse_fortran("C(J) = C(J) + 1\n")
        stmt = p.assignments()[0]
        assert isinstance(stmt.lhs, ArrayRef)
        assert isinstance(stmt.rhs.left, ArrayRef)

    def test_scalar_assignment(self):
        p = parse_fortran("IB = IB + 1\n")
        stmt = p.assignments()[0]
        assert isinstance(stmt.lhs, Name)

    def test_refs_with_write_flags(self):
        p = parse_fortran("REAL A(10), B(10)\nA(i) = A(i+1) + B(i)\n")
        refs = collect_refs(p)
        flagged = {(str(r.ref), r.is_write) for r in refs}
        assert flagged == {("A(i)", True), ("A(i+1)", False), ("B(i)", False)}


class TestMisc:
    def test_comments_and_blank_lines(self):
        p = parse_fortran("! header\n\nREAL A(10)\nA(i) = 1  ! trailing\n")
        assert len(p.assignments()) == 1

    def test_end_statement(self):
        p = parse_fortran("X = 1\nEND\n")
        assert len(p.assignments()) == 1

    def test_negative_literals(self):
        p = parse_fortran("IB = -1\n")
        assert str(p.assignments()[0].rhs) == "-1"

    def test_case_insensitive_keywords(self):
        p = parse_fortran("real A(10)\ndo i = 1, 9\nA(i) = 0\nenddo\n")
        assert isinstance(p.body[-1], Loop)

    def test_syntax_error_has_location(self):
        with pytest.raises(ParseError) as err:
            parse_fortran("A(i = 1\n")
        assert "line" in str(err.value)


class TestParseExpression:
    def test_expression(self):
        assert parse_expression("N*2 - 1  ! a comment") == BinOp(
            "-", BinOp("*", Name("N"), IntLit(2)), IntLit(1)
        )

    def test_subscripted_name_is_a_call(self):
        assert parse_expression("F(3)") == Call("F", (IntLit(3),))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("2*", "unexpected token '\\n' at line 1, column 3"),
            ("2 3", "expected 'NEWLINE', found '3' at line 1, column 3"),
            ("1\n2", "expected 'EOF', found '2' at line 2, column 1"),
        ],
    )
    def test_anything_after_the_expression_is_an_error(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert str(err.value) == message

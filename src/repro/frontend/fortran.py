"""A FORTRAN-77 subset parser sufficient for every program in the paper.

Supported constructs::

    REAL A(0:9, 0:9), X(200)
    INTEGER IB
    EQUIVALENCE (A, B)
    DO 10 I = 1, 100        ! label-terminated loops (shared labels allowed)
    DO I = 0, N - 1         ! ...or ENDDO-terminated
    10 CONTINUE
    ENDDO
    A(I, J) = B(I, 2*J+1) + Q
    IF (I < N) THEN         ! structured IF blocks (nesting allowed)
    ELSE
    ENDIF
    IF (I == 0) A(I) = 0    ! one-line logical IF
    CALL UPD(A, B, I)       ! subroutine invocation
    SUBROUTINE UPD(X, Y, K) ! subroutine definitions after the main unit
    END

Keywords are case-insensitive; identifiers are kept as written.  Dimensions
follow FORTRAN rules: ``(N)`` means ``1:N``, ``(0:9)`` is explicit.  A
subscripted name is an array reference when the name is declared (explicitly,
or implicitly by appearing subscripted on a left-hand side); otherwise it is
an opaque function call, exactly the paper's ``IFUN(10)`` situation.

IF conditions use the F90-style relational operators ``< <= > >= == /=``
(the lexer has no ``.`` token, so the F77 dotted forms are not accepted).
"""

from __future__ import annotations

from ..ir import (
    ArrayDecl,
    ArrayDim,
    ArrayRef,
    Assignment,
    BinOp,
    Call,
    CallStmt,
    Compare,
    Equivalence,
    Expr,
    If,
    IntLit,
    Loop,
    Name,
    Program,
    Span,
    Stmt,
    Subroutine,
    UnaryOp,
)
from .errors import ParseError, ParseErrorGroup
from .lexer import EOF, IDENT, INT, NEWLINE, OP, Token, TokenStream, tokenize

_TYPE_KEYWORDS = frozenset(("REAL", "INTEGER", "DOUBLE", "LOGICAL", "DIMENSION"))


def parse_fortran(source: str, name: str = "MAIN", recover: bool = False) -> Program:
    """Parse FORTRAN source text into a :class:`~repro.ir.Program`.

    Statements are auto-numbered S1, S2, ... in textual order.

    With ``recover=True`` the parser does not stop at the first syntax
    error: it records the error, synchronizes at the next statement
    boundary (newline), and keeps parsing, so one call reports *every*
    broken statement.  If any errors were collected, a
    :class:`ParseErrorGroup` is raised carrying them all plus the partial
    program; otherwise the behaviour is identical to the default mode.
    """
    errors: list[ParseError] = []
    tokens = tokenize(
        source, comment_chars="!", errors=errors if recover else None
    )
    parser = _FortranParser(tokens, name)
    if recover:
        program = parser.parse_program_recovering(errors)
        program.number_statements()
        if errors:
            # Lexer errors are collected before parse errors; re-sort into
            # source order so reports read top to bottom.
            errors.sort(key=lambda e: (e.line or 0, e.column or 0))
            raise ParseErrorGroup(errors, program=program)
        return program
    program = parser.parse_program()
    program.number_statements()
    return program


def parse_expression(text: str) -> Expr:
    """Parse one arithmetic expression, such as a bound given on the command
    line; anything after it is a :class:`ParseError`.  A subscripted name
    is a function call (nothing declares an array)."""
    parser = _FortranParser(tokenize(text, comment_chars="!"), "MAIN")
    expr = parser.parse_expr()
    parser.ts.expect_end_of_line()
    parser.ts.expect(EOF)
    return expr


class _FortranParser:
    def __init__(self, tokens: list[Token], name: str):
        self.ts = TokenStream(tokens)
        self.program = Program(name=name)
        self.implicit_arrays = _scan_lhs_arrays(tokens)
        # Stack of open blocks, innermost last:
        #   ("loop", Loop, terminating label or None for ENDDO)
        #   ("if", If, in_else: bool)
        self.block_stack: list[tuple] = []
        # The subroutine currently being parsed, None in the main unit.
        self.unit: Subroutine | None = None

    # -- program structure ---------------------------------------------------

    def parse_program(self) -> Program:
        self.ts.skip_newlines()
        while not self.ts.at_eof():
            self.parse_line()
            self.ts.skip_newlines()
        error = self._unclosed_block_error()
        if error is not None:
            raise error
        return self.program

    def parse_program_recovering(self, errors: list[ParseError]) -> Program:
        """Parse with statement-boundary error recovery.

        Each failed line appends its :class:`ParseError` to ``errors`` and
        parsing resumes at the next statement boundary (newline); progress
        is forced so a stuck token can never loop forever.  Block structure
        (DO/IF/SUBROUTINE) is re-synchronized at the block boundary that
        failed, so one malformed header cannot cascade.
        """
        self.ts.skip_newlines()
        while not self.ts.at_eof():
            mark = self.ts.position()
            try:
                self.parse_line()
            except ParseError as error:
                errors.append(error)
                self._synchronize(mark)
            self.ts.skip_newlines()
        error = self._unclosed_block_error()
        if error is not None:
            errors.append(error)
            self.block_stack.clear()
            self.unit = None
        return self.program

    def _synchronize(self, mark: int) -> None:
        """Skip to the next statement boundary, guaranteeing progress."""
        if self.ts.position() == mark and not self.ts.at_eof():
            self.ts.next()
        while not self.ts.at(NEWLINE) and not self.ts.at_eof():
            self.ts.next()

    def _unclosed_block_error(self) -> ParseError | None:
        if self.block_stack:
            entry = self.block_stack[-1]
            if entry[0] == "loop":
                _, loop, label = entry
                terminator = f"label {label}" if label else "ENDDO"
                where = loop.span or Span(0, 0)
                return ParseError(
                    f"DO {loop.var} never closed (missing {terminator})",
                    where.line,
                    where.column,
                )
            _, node, _ = entry
            where = node.span or Span(0, 0)
            return ParseError(
                "IF never closed (missing ENDIF)", where.line, where.column
            )
        if self.unit is not None:
            where = self.unit.span or Span(0, 0)
            return ParseError(
                f"SUBROUTINE {self.unit.name} never closed (missing END)",
                where.line,
                where.column,
            )
        return None

    def parse_line(self) -> None:
        """Parse one statement, dispatching once on its first word."""
        ts = self.ts
        token = ts.peek()
        word = token.text.upper() if token.kind == IDENT else ""
        if word == "SUBROUTINE":
            self.parse_subroutine()
            return
        # "REAL = 1" would be an assignment; require a following identifier.
        if word in _TYPE_KEYWORDS and ts.peek(1).kind == IDENT:
            self.parse_declaration()
            return
        if word == "EQUIVALENCE":
            self.parse_equivalence()
            return
        if word == "COMMON" and not self._at_assignment():
            self.parse_common()
            return
        label = None
        label_token = None
        if token.kind == INT:
            label_token = ts.next()
            label = label_token.text
            token = ts.peek()
            word = token.text.upper() if token.kind == IDENT else ""
        if word == "DO" and not self._at_assignment():
            self.parse_do()
        elif word == "IF" and not self._at_assignment():
            self.parse_if(label, label_token)
        elif word in ("ELSE", "ENDIF", "ENDDO"):
            ts.next()
            ts.expect_end_of_line()
            if word == "ELSE":
                self.handle_else(token)
            elif word == "ENDIF":
                self.close_endif(token)
            else:
                self.close_enddo(token)
        elif word == "CALL":
            self.parse_call(label, label_token)
        elif word == "CONTINUE":
            ts.next()
            ts.expect_end_of_line()
            if label is None:
                raise ParseError(
                    "CONTINUE without a label", token.line, token.column
                )
            self.close_label(label, label_token)
        elif word == "END" and self._at_end_keyword_tail():
            ts.next()
            # "END IF" is an ENDIF spelling, not a unit terminator.
            tail = ts.peek()
            tail_word = tail.text.upper() if tail.kind == IDENT else ""
            if tail_word in ("IF", "DO"):
                ts.next()
            ts.expect_end_of_line()
            if tail_word == "IF":
                self.close_endif(token)
            elif tail_word == "DO":
                self.close_enddo(token)
            else:
                self.close_unit(token)
        else:
            self.parse_assignment(label)

    def _at_end_keyword_tail(self) -> bool:
        """END, END IF or END DO — but not an assignment like ``END = 1``."""
        after = self.ts.peek(1)
        if after.kind in (NEWLINE, EOF):
            return True
        return after.kind == IDENT and after.text.upper() in ("IF", "DO")

    def _at_assignment(self) -> bool:
        """Distinguish ``DO = 5`` (assignment to variable DO) from a DO stmt."""
        after = self.ts.peek(1)
        return after.kind == OP and after.text == "="

    # -- declarations ----------------------------------------------------------

    def parse_declaration(self) -> None:
        type_token = self.ts.next()
        elem_type = type_token.text.upper()
        if elem_type == "DIMENSION":
            elem_type = "REAL"  # DIMENSION declares shape, not type
        if elem_type == "DOUBLE":
            precision = self.ts.expect(IDENT)
            if precision.text.upper() != "PRECISION":
                raise ParseError(
                    "expected PRECISION after DOUBLE", precision.line, precision.column
                )
            elem_type = "DOUBLE PRECISION"
        while True:
            name_token = self.ts.expect(IDENT)
            if self.ts.accept(OP, "("):
                dims = [self.parse_dim()]
                while self.ts.accept(OP, ","):
                    dims.append(self.parse_dim())
                self.ts.expect(OP, ")")
                self._declare(
                    ArrayDecl(name_token.text, tuple(dims), elem_type),
                    name_token,
                )
            # Scalar declarations are accepted and ignored (no decl needed).
            if not self.ts.accept(OP, ","):
                break
        self.ts.expect_end_of_line()

    def _declare(self, decl: ArrayDecl, token: Token) -> None:
        """Declare into the current unit (main program or subroutine)."""
        decls = self.unit.decls if self.unit is not None else self.program.decls
        if decl.name in decls:
            raise ParseError(
                f"array {decl.name} declared twice", token.line, token.column
            )
        decls[decl.name] = decl

    def parse_dim(self) -> ArrayDim:
        first = self.parse_expr()
        if self.ts.accept(OP, ":"):
            upper = self.parse_expr()
            return ArrayDim(first, upper)
        # FORTRAN default lower bound is 1.
        return ArrayDim(IntLit(1), first)

    def parse_equivalence(self) -> None:
        keyword = self.ts.next()  # EQUIVALENCE
        self.ts.expect(OP, "(")
        names = [self.ts.expect(IDENT).text]
        while self.ts.accept(OP, ","):
            names.append(self.ts.expect(IDENT).text)
        self.ts.expect(OP, ")")
        self.ts.expect_end_of_line()
        if len(names) < 2:
            raise ParseError(
                "EQUIVALENCE needs at least two arrays",
                keyword.line,
                keyword.column,
            )
        self.program.equivalences.append(Equivalence(tuple(names)))

    def parse_common(self) -> None:
        from ..ir.nodes import CommonBlock

        self.ts.next()  # COMMON
        block = ""
        if self.ts.accept(OP, "/"):
            block = self.ts.expect(IDENT).text
            self.ts.expect(OP, "/")
        members = [self.ts.expect(IDENT).text]
        while self.ts.accept(OP, ","):
            members.append(self.ts.expect(IDENT).text)
        self.ts.expect_end_of_line()
        self.program.commons.append(CommonBlock(block, tuple(members)))

    # -- loops -------------------------------------------------------------------

    def parse_do(self) -> None:
        keyword = self.ts.next()  # DO
        label = self.ts.next().text if self.ts.at(INT) else None
        var = self.ts.expect(IDENT).text
        self.ts.expect(OP, "=")
        lower = self.parse_expr()
        self.ts.expect(OP, ",")
        upper = self.parse_expr()
        step: Expr = IntLit(1)
        if self.ts.accept(OP, ","):
            step = self.parse_expr()
        self.ts.expect_end_of_line()
        loop = Loop(var, lower, upper, [], step, span=Span.at(keyword))
        self.append_stmt(loop)
        self.block_stack.append(("loop", loop, label))

    def close_enddo(self, token: Token) -> None:
        if (
            not self.block_stack
            or self.block_stack[-1][0] != "loop"
            or self.block_stack[-1][2] is not None
        ):
            raise ParseError(
                "ENDDO without matching DO", token.line, token.column
            )
        self.block_stack.pop()

    def close_label(self, label: str, token: Token | None = None) -> None:
        """Close every open loop terminated by ``label`` (shared labels)."""
        closed = False
        while (
            self.block_stack
            and self.block_stack[-1][0] == "loop"
            and self.block_stack[-1][2] == label
        ):
            self.block_stack.pop()
            closed = True
        if not closed:
            raise ParseError(
                f"label {label} does not terminate any open DO",
                token.line if token else None,
                token.column if token else None,
            )

    def append_stmt(self, stmt: Stmt) -> None:
        if self.block_stack:
            entry = self.block_stack[-1]
            if entry[0] == "loop":
                entry[1].body.append(stmt)
            else:
                _, node, in_else = entry
                (node.else_body if in_else else node.then_body).append(stmt)
        elif self.unit is not None:
            self.unit.body.append(stmt)
        else:
            self.program.body.append(stmt)

    # -- structured IF ---------------------------------------------------------

    def parse_if(self, label: str | None, label_token: Token | None) -> None:
        keyword = self.ts.next()  # IF
        self.ts.expect(OP, "(")
        cond = self.parse_condition()
        self.ts.expect(OP, ")")
        if self.ts.at(IDENT) and self.ts.peek().text.upper() == "THEN":
            self.ts.next()
            self.ts.expect_end_of_line()
            if label is not None:
                raise ParseError(
                    "a block IF cannot carry a DO-terminating label",
                    keyword.line,
                    keyword.column,
                )
            node = If(cond, span=Span.at(keyword))
            self.append_stmt(node)
            self.block_stack.append(("if", node, False))
            return
        # One-line logical IF: the guarded statement follows on this line.
        node = If(cond, span=Span.at(keyword))
        self.append_stmt(node)
        self.block_stack.append(("if", node, False))
        try:
            if self.ts.at_keyword("CALL"):
                self.parse_call(None, None)
            else:
                self.parse_assignment(None)
        finally:
            self.block_stack.pop()
        if label is not None:
            self.close_label(label, label_token)

    def handle_else(self, token: Token) -> None:
        if not self.block_stack or self.block_stack[-1][0] != "if":
            raise ParseError(
                "ELSE without matching IF", token.line, token.column
            )
        _, node, in_else = self.block_stack[-1]
        if in_else:
            raise ParseError(
                "duplicate ELSE for the same IF", token.line, token.column
            )
        self.block_stack[-1] = ("if", node, True)

    def close_endif(self, token: Token) -> None:
        if not self.block_stack or self.block_stack[-1][0] != "if":
            raise ParseError(
                "ENDIF without matching IF", token.line, token.column
            )
        self.block_stack.pop()

    def parse_condition(self) -> Expr:
        left = self.parse_expr()
        op = self._relational_op()
        right = self.parse_expr()
        return Compare(op, left, right)

    def _relational_op(self) -> str:
        token = self.ts.peek()
        for text in ("<=", ">=", "==", "<", ">"):
            if self.ts.accept(OP, text):
                return text
        # F90 not-equal: "/=" lexes as two adjacent single-char operators.
        if (
            self.ts.at(OP, "/")
            and self.ts.peek(1).kind == OP
            and self.ts.peek(1).text == "="
        ):
            self.ts.next()
            self.ts.next()
            return "!="
        raise ParseError(
            f"expected a relational operator, found {token.text!r}",
            token.line,
            token.column,
        )

    # -- subroutines and calls -------------------------------------------------

    def parse_subroutine(self) -> None:
        keyword = self.ts.next()  # SUBROUTINE
        if self.unit is not None or self.block_stack:
            raise ParseError(
                "SUBROUTINE cannot be nested",
                keyword.line,
                keyword.column,
            )
        name = self.ts.expect(IDENT).text
        params: list[str] = []
        if self.ts.accept(OP, "("):
            if not self.ts.at(OP, ")"):
                params.append(self.ts.expect(IDENT).text)
                while self.ts.accept(OP, ","):
                    params.append(self.ts.expect(IDENT).text)
            self.ts.expect(OP, ")")
        self.ts.expect_end_of_line()
        if name in self.program.subroutines:
            raise ParseError(
                f"SUBROUTINE {name} defined twice",
                keyword.line,
                keyword.column,
            )
        unit = Subroutine(name, tuple(params), span=Span.at(keyword))
        self.program.subroutines[name] = unit
        self.unit = unit

    def close_unit(self, token: Token) -> None:
        """A bare END: closes the current SUBROUTINE, no-op in the main unit."""
        if self.unit is None:
            return
        if self.block_stack:
            error = self._unclosed_block_error()
            assert error is not None
            raise error
        self.unit = None

    def parse_call(self, label: str | None, label_token: Token | None) -> None:
        keyword = self.ts.next()  # CALL
        name = self.ts.expect(IDENT).text
        args: list[Expr] = []
        if self.ts.accept(OP, "("):
            if not self.ts.at(OP, ")"):
                args.append(self.parse_expr())
                while self.ts.accept(OP, ","):
                    args.append(self.parse_expr())
            self.ts.expect(OP, ")")
        self.ts.expect_end_of_line()
        self.append_stmt(CallStmt(name, tuple(args), span=Span.at(keyword)))
        if label is not None:
            self.close_label(label, label_token)

    # -- statements -----------------------------------------------------------------

    def parse_assignment(self, label: str | None) -> None:
        start = self.ts.peek()
        lhs = self.parse_primary(lvalue=True)
        if not isinstance(lhs, (ArrayRef, Name)):
            raise ParseError(
                f"cannot assign to {lhs}", start.line, start.column
            )
        self.ts.expect(OP, "=")
        rhs = self.parse_expr()
        self.ts.expect_end_of_line()
        self.append_stmt(Assignment(lhs, rhs, span=Span.at(start)))
        if label is not None:
            self.close_label(label, start)

    # -- expressions -------------------------------------------------------------------

    def parse_expr(self) -> Expr:
        ts = self.ts
        expr = self.parse_term()
        token = ts.peek()
        while token.kind == OP and token.text in ("+", "-"):
            ts.next()
            expr = BinOp(token.text, expr, self.parse_term())
            token = ts.peek()
        return expr

    def parse_term(self) -> Expr:
        ts = self.ts
        expr = self.parse_factor()
        token = ts.peek()
        while token.kind == OP and token.text in ("*", "/"):
            # "/" immediately followed by "=" is the F90 not-equal operator,
            # not a division: leave it for the relational parser.
            if token.text == "/":
                after = ts.peek(1)
                if after.kind == OP and after.text == "=":
                    break
            ts.next()
            expr = BinOp(token.text, expr, self.parse_factor())
            token = ts.peek()
        return expr

    def parse_factor(self) -> Expr:
        token = self.ts.peek()
        if token.kind == OP and token.text in ("-", "+"):
            self.ts.next()
            if token.text == "-":
                return UnaryOp("-", self.parse_factor())
            return self.parse_factor()
        return self.parse_primary()

    def parse_primary(self, lvalue: bool = False) -> Expr:
        ts = self.ts
        token = ts.peek()
        kind = token.kind
        if kind == INT:
            ts.next()
            return IntLit(int(token.text))
        if kind == IDENT:
            ts.next()
            if ts.accept(OP, "("):
                args = [self.parse_expr()]
                while ts.accept(OP, ","):
                    args.append(self.parse_expr())
                ts.expect(OP, ")")
                if self._is_array(token.text) or lvalue:
                    self._note_implicit(token.text, len(args))
                    return ArrayRef(token.text, tuple(args))
                return Call(token.text, tuple(args))
            return Name(token.text)
        if ts.accept(OP, "("):
            expr = self.parse_expr()
            ts.expect(OP, ")")
            return expr
        raise ParseError(
            f"unexpected token {token.text!r}", token.line, token.column
        )

    def _is_array(self, name: str) -> bool:
        if self.unit is not None and name in self.unit.decls:
            return True
        return name in self.program.decls or name in self.implicit_arrays

    def _note_implicit(self, name: str, rank: int) -> None:
        """Register an implicitly declared array (unknown bounds)."""
        decls = self.unit.decls if self.unit is not None else self.program.decls
        if name not in decls:
            decls[name] = ArrayDecl(name, (), "REAL")
        del rank  # rank consistency is a checker concern, not the parser's


def _scan_lhs_arrays(tokens: list[Token]) -> set[str]:
    """Pre-scan: names subscripted on a left-hand side are arrays.

    This resolves the array-vs-call ambiguity for fragments without
    declarations, such as the paper's ``C(J) = C(J) + I``.
    """
    arrays: set[str] = set()
    # Only a NEWLINE token has the text "\n" and only an OP token the
    # text "(", ")" or "=", so lines and parentheses are found by text.
    texts = [token.text for token in tokens]
    count = len(tokens)
    start = 0
    while start < count:
        try:
            end = texts.index("\n", start)
        except ValueError:
            end = count
        # Optional numeric label.
        head = start + 1 if tokens[start].kind == INT else start
        if head + 1 < end and tokens[head].kind == IDENT and texts[head + 1] == "(":
            # Find the matching ')' and check for '=' right after.
            depth = 0
            for scan in range(head + 1, end):
                text = texts[scan]
                if text == "(":
                    depth += 1
                elif text == ")":
                    depth -= 1
                    if depth == 0:
                        if scan + 1 < count and texts[scan + 1] == "=":
                            arrays.add(texts[head])
                        break
        start = end + 1
    return arrays

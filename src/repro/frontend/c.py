"""A C subset parser for the paper's pointer-traversal examples.

Supported constructs::

    float d[100];
    float d[10][10];
    float *i, *j;
    int i, j;
    for (j = d; j <= d + 90; j += 10) { ... }
    for (i = 0; i < 5; i++) body;
    *i = *(i + 5);
    d[j][i] = d[j][i + 5];
    if (i < n) { ... } else { ... }
    void upd(float x[], float y[], int k) { ... }
    upd(a, b, i);

The parser produces the shared loop-nest IR.  Pointer dereferences become
:class:`~repro.ir.Deref` nodes and pointer-controlled ``for`` loops keep their
pointer semantics (recorded in :class:`CParseInfo`); the conversion to integer
index variables — the transformation the paper describes for making analysis
of pointer code possible — is performed by :mod:`repro.analysis.pointers`.

C ``for (v = L; v < U; v += S)`` loops are lowered to the IR's inclusive
DO form ``DO v = L, U-1, S`` (``<=`` keeps the bound as written).
Multi-dimensional C arrays ``d[10][10]`` are declared with row-major
dimensions ``0:9`` each; subscripts keep C's ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import (
    ArrayDecl,
    ArrayDim,
    ArrayRef,
    Assignment,
    BinOp,
    Call,
    CallStmt,
    Compare,
    Deref,
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
from .lexer import IDENT, INT, OP, Token, TokenStream, tokenize

_C_TYPES = ("float", "double", "int", "long", "char", "unsigned")


def _sub_one(expr: Expr) -> Expr:
    """``expr - 1`` with constant folding (keeps declared bounds readable)."""
    if isinstance(expr, IntLit):
        return IntLit(expr.value - 1)
    return expr - IntLit(1)


@dataclass
class CParseInfo:
    """Side information the pointer-conversion pass needs.

    ``pointers`` maps each declared pointer name to its element type;
    ``scalars`` lists declared integer scalars.
    """

    pointers: dict[str, str] = field(default_factory=dict)
    scalars: set[str] = field(default_factory=set)


def parse_c(
    source: str, name: str = "main", recover: bool = False
) -> tuple[Program, CParseInfo]:
    """Parse C source text; returns the program and pointer side-info.

    With ``recover=True`` syntax errors do not stop the parse: each is
    recorded and the parser synchronizes past the next ``;`` or ``}``.  If
    any errors were collected, a :class:`ParseErrorGroup` carrying all of
    them (plus the partial program and side-info) is raised at the end.
    """
    errors: list[ParseError] = []
    tokens = [
        t
        for t in tokenize(
            source,
            comment_chars="",
            c_comments=True,
            errors=errors if recover else None,
        )
        if t.kind != "NEWLINE"
    ]
    parser = _CParser(tokens, name)
    if recover:
        program, info = parser.parse_program_recovering(errors)
        program.number_statements()
        if errors:
            # Lexer errors are collected before parse errors; re-sort into
            # source order so reports read top to bottom.
            errors.sort(key=lambda e: (e.line or 0, e.column or 0))
            raise ParseErrorGroup(errors, program=program, info=info)
        return program, info
    program, info = parser.parse_program()
    program.number_statements()
    return program, info


_RELATIONAL_OPS = ("<=", ">=", "==", "!=", "<", ">")


class _CParser:
    def __init__(self, tokens: list[Token], name: str):
        self.ts = TokenStream(tokens)
        self.program = Program(name=name)
        self.info = CParseInfo()
        # The function currently being parsed, None at file scope.
        self.unit: Subroutine | None = None

    def parse_program(self) -> tuple[Program, CParseInfo]:
        while not self.ts.at_eof():
            self.program.body.extend(self.parse_statement())
        return self.program, self.info

    def parse_program_recovering(
        self, errors: list[ParseError]
    ) -> tuple[Program, CParseInfo]:
        """Parse with error recovery: synchronize past the next ';' or '}'."""
        while not self.ts.at_eof():
            mark = self.ts.position()
            try:
                self.program.body.extend(self.parse_statement())
            except ParseError as error:
                errors.append(error)
                self._synchronize(mark)
        return self.program, self.info

    def _synchronize(self, mark: int) -> None:
        if self.ts.position() == mark and not self.ts.at_eof():
            self.ts.next()
        while not self.ts.at_eof():
            token = self.ts.next()
            if token.kind == OP and token.text in (";", "}"):
                return

    # -- statements ------------------------------------------------------------

    def parse_statement(self) -> list[Stmt]:
        ts = self.ts
        token = ts.peek()
        if token.kind == IDENT:
            word = token.text
            if word == "void" or word in _C_TYPES:
                # ``type name (`` is a function definition header.
                after = ts.peek(1)
                paren = ts.peek(2)
                if after.kind == IDENT and paren.kind == OP and paren.text == "(":
                    self.parse_function()
                    return []
                if word in _C_TYPES:
                    self.parse_declaration()
                    return []
            # Keywords compare case-insensitively, like ``at_keyword``.
            keyword = word.upper()
            if keyword == "FOR":
                return [self.parse_for()]
            if keyword == "IF":
                return [self.parse_if()]
        elif token.kind == OP and token.text == "{":
            ts.next()
            block: list[Stmt] = []
            while not ts.at(OP, "}"):
                if ts.at_eof():
                    raise ParseError(
                        "unterminated block", token.line, token.column
                    )
                block.extend(self.parse_statement())
            ts.expect(OP, "}")
            return block
        elif token.kind == OP and token.text == ";":
            ts.next()
            return []
        return [self.parse_assignment()]

    def parse_declaration(self) -> None:
        type_token = self.ts.next()
        elem_type = type_token.text
        while True:
            is_pointer = bool(self.ts.accept(OP, "*"))
            name_token = self.ts.expect(IDENT)
            if is_pointer:
                self.info.pointers[name_token.text] = elem_type
            elif self.ts.at(OP, "["):
                dims: list[ArrayDim] = []
                while self.ts.accept(OP, "["):
                    size = self.parse_expr()
                    self.ts.expect(OP, "]")
                    dims.append(ArrayDim(IntLit(0), _sub_one(size)))
                self._declare(
                    ArrayDecl(name_token.text, tuple(dims), elem_type),
                    name_token,
                )
            else:
                self.info.scalars.add(name_token.text)
            if not self.ts.accept(OP, ","):
                break
        self.ts.expect(OP, ";")

    def _declare(self, decl: ArrayDecl, token: Token) -> None:
        decls = self.unit.decls if self.unit is not None else self.program.decls
        if decl.name in decls:
            raise ParseError(
                f"array {decl.name} declared twice", token.line, token.column
            )
        decls[decl.name] = decl

    # -- functions and calls ---------------------------------------------------

    def parse_function(self) -> None:
        type_token = self.ts.next()  # return type (effects-only: void etc.)
        if self.unit is not None:
            raise ParseError(
                "nested function definitions are not supported",
                type_token.line,
                type_token.column,
            )
        name_token = self.ts.expect(IDENT)
        self.ts.expect(OP, "(")
        unit = Subroutine(name_token.text, (), span=Span.at(type_token))
        params: list[str] = []
        if not self.ts.at(OP, ")"):
            while True:
                params.append(self.parse_parameter(unit))
                if not self.ts.accept(OP, ","):
                    break
        self.ts.expect(OP, ")")
        unit.params = tuple(params)
        if name_token.text in self.program.subroutines:
            raise ParseError(
                f"function {name_token.text} defined twice",
                name_token.line,
                name_token.column,
            )
        self.program.subroutines[name_token.text] = unit
        self.unit = unit
        try:
            opening = self.ts.peek()
            if not self.ts.at(OP, "{"):
                raise ParseError(
                    "expected function body", opening.line, opening.column
                )
            unit.body.extend(self.parse_statement())
        finally:
            self.unit = None

    def parse_parameter(self, unit: Subroutine) -> str:
        type_token = self.ts.expect(IDENT)
        if type_token.text != "void" and type_token.text not in _C_TYPES:
            raise ParseError(
                f"expected a parameter type, found {type_token.text!r}",
                type_token.line,
                type_token.column,
            )
        is_pointer = bool(self.ts.accept(OP, "*"))
        name_token = self.ts.expect(IDENT)
        if self.ts.at(OP, "[") or is_pointer:
            dims: list[ArrayDim] = []
            while self.ts.accept(OP, "["):
                if not self.ts.at(OP, "]"):
                    size = self.parse_expr()
                    dims.append(ArrayDim(IntLit(0), _sub_one(size)))
                self.ts.expect(OP, "]")
            unit.decls[name_token.text] = ArrayDecl(
                name_token.text, tuple(dims), type_token.text
            )
        else:
            self.info.scalars.add(name_token.text)
        return name_token.text

    # -- structured if ---------------------------------------------------------

    def parse_if(self) -> If:
        keyword = self.ts.next()  # if
        self.ts.expect(OP, "(")
        cond = self.parse_condition()
        self.ts.expect(OP, ")")
        then_body = self.parse_statement()
        else_body: list[Stmt] = []
        if self.ts.at_keyword("else"):
            self.ts.next()
            else_body = self.parse_statement()
        return If(cond, then_body, else_body, span=Span.at(keyword))

    def parse_condition(self) -> Expr:
        left = self.parse_expr()
        token = self.ts.peek()
        for text in _RELATIONAL_OPS:
            if self.ts.accept(OP, text):
                return Compare(text, left, self.parse_expr())
        raise ParseError(
            f"expected a relational operator, found {token.text!r}",
            token.line,
            token.column,
        )

    def parse_for(self) -> Loop:
        keyword = self.ts.next()  # for
        self.ts.expect(OP, "(")
        init_var = self.ts.expect(IDENT).text
        self.ts.expect(OP, "=")
        lower = self.parse_expr()
        self.ts.expect(OP, ";")
        cond_token = self.ts.expect(IDENT)
        cond_var = cond_token.text
        if cond_var != init_var:
            raise ParseError(
                f"for condition tests {cond_var!r}, not {init_var!r}",
                cond_token.line,
                cond_token.column,
            )
        op_token = self.ts.next()
        if op_token.text not in ("<", "<="):
            raise ParseError(
                f"unsupported for condition operator {op_token.text!r}",
                op_token.line,
                op_token.column,
            )
        bound = self.parse_expr()
        upper = bound if op_token.text == "<=" else _sub_one(bound)
        self.ts.expect(OP, ";")
        update_token = self.ts.expect(IDENT)
        update_var = update_token.text
        if update_var != init_var:
            raise ParseError(
                f"for update changes {update_var!r}, not {init_var!r}",
                update_token.line,
                update_token.column,
            )
        step: Expr = IntLit(1)
        if self.ts.accept(OP, "++"):
            pass
        elif self.ts.accept(OP, "+="):
            step = self.parse_expr()
        else:
            bad = self.ts.peek()
            raise ParseError(
                "for update must be v++ or v += step", bad.line, bad.column
            )
        self.ts.expect(OP, ")")
        body = self.parse_statement()
        return Loop(init_var, lower, upper, body, step, span=Span.at(keyword))

    def parse_assignment(self) -> Stmt:
        start = self.ts.peek()
        lhs = self.parse_unary()
        if isinstance(lhs, Call) and self.ts.at(OP, ";"):
            # Expression statement: a call for its effects, e.g. upd(a, b);
            self.ts.expect(OP, ";")
            return CallStmt(lhs.func, lhs.args, span=Span.at(start))
        if not isinstance(lhs, (ArrayRef, Name, Deref)):
            raise ParseError(
                f"cannot assign to {lhs}", start.line, start.column
            )
        self.ts.expect(OP, "=")
        rhs = self.parse_expr()
        self.ts.expect(OP, ";")
        return Assignment(lhs, rhs, span=Span.at(start))

    # -- expressions ---------------------------------------------------------------

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
        expr = self.parse_unary()
        token = ts.peek()
        while token.kind == OP and token.text in ("*", "/"):
            ts.next()
            expr = BinOp(token.text, expr, self.parse_unary())
            token = ts.peek()
        return expr

    def parse_unary(self) -> Expr:
        token = self.ts.peek()
        if token.kind == OP and token.text in ("-", "*"):
            self.ts.next()
            if token.text == "-":
                return UnaryOp("-", self.parse_unary())
            return Deref(self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        token = self.ts.peek()
        if token.kind == INT:
            self.ts.next()
            return IntLit(int(token.text))
        if token.kind == IDENT:
            self.ts.next()
            if self.ts.at(OP, "["):
                subscripts: list[Expr] = []
                while self.ts.accept(OP, "["):
                    subscripts.append(self.parse_expr())
                    self.ts.expect(OP, "]")
                return ArrayRef(token.text, tuple(subscripts))
            if self.ts.accept(OP, "("):
                args = []
                if not self.ts.at(OP, ")"):
                    args.append(self.parse_expr())
                    while self.ts.accept(OP, ","):
                        args.append(self.parse_expr())
                self.ts.expect(OP, ")")
                return Call(token.text, tuple(args))
            return Name(token.text)
        if self.ts.accept(OP, "("):
            expr = self.parse_expr()
            self.ts.expect(OP, ")")
            return expr
        raise ParseError(f"unexpected token {token.text!r}", token.line, token.column)

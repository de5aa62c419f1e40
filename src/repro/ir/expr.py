"""Scalar expression AST used by the frontends.

The parsers produce this general tree; the analysis layer lowers subscript
expressions to affine :class:`~repro.symbolic.linexpr.LinExpr` form where
possible (see :mod:`repro.ir.affine`).  Expressions that cannot be lowered
(e.g. calls such as ``IFUN(10)`` in the paper's aliasing example) simply stay
opaque and dependence analysis treats the corresponding subscript as unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence


class Expr:
    """Base class of scalar expressions."""

    def children(self) -> Sequence["Expr"]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants (pre-order)."""
        yield self
        for child in self.children():
            yield from child.walk()

    def names(self) -> set[str]:
        """All variable names mentioned anywhere in the expression."""
        if isinstance(self, Name):
            return {self.name}
        return set().union(*(child.names() for child in self.children()))

    # Convenience operator builders keep frontend/transform code terse.
    def __add__(self, other: "Expr | int") -> "Expr":
        return BinOp("+", self, _coerce(other))

    def __sub__(self, other: "Expr | int") -> "Expr":
        return BinOp("-", self, _coerce(other))

    def __mul__(self, other: "Expr | int") -> "Expr":
        return BinOp("*", self, _coerce(other))

    def __radd__(self, other: "Expr | int") -> "Expr":
        return BinOp("+", _coerce(other), self)

    def __rsub__(self, other: "Expr | int") -> "Expr":
        return BinOp("-", _coerce(other), self)

    def __rmul__(self, other: "Expr | int") -> "Expr":
        return BinOp("*", _coerce(other), self)

    def __neg__(self) -> "Expr":
        return UnaryOp("-", self)


def _coerce(value: "Expr | int") -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return IntLit(value)
    raise TypeError(f"cannot build expression from {type(value).__name__}")


@dataclass(frozen=True)
class IntLit(Expr):
    """An integer literal."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Name(Expr):
    """A scalar variable or symbolic parameter reference."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic: ``+ - * /`` (``/`` is integer division)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unsupported operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_paren(self.left, self.op, True)}{self.op}{_paren(self.right, self.op, False)}"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary minus."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op != "-":
            raise ValueError(f"unsupported unary operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"-{_paren(self.operand, '*', False)}"


@dataclass(frozen=True)
class Compare(Expr):
    """A relational comparison ``left op right`` (IF conditions only).

    Comparisons never appear inside subscripts or arithmetic — the parsers
    only build them as the condition of a structured ``IF``.  Keeping them a
    distinct node (instead of widening :class:`BinOp`) preserves the
    invariant that every ``BinOp`` is arithmetic.
    """

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ("<", "<=", ">", ">=", "==", "!="):
            raise ValueError(f"unsupported comparison {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Call(Expr):
    """A function call with unknown value (e.g. ``IFUN(10)``)."""

    func: str
    args: tuple[Expr, ...] = field(default_factory=tuple)

    def children(self) -> Sequence[Expr]:
        return self.args

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class ArrayRef(Expr):
    """A subscripted array reference ``A(s1, ..., sl)``.

    Used both as an r-value inside expressions and as an assignment target.
    """

    array: str
    subscripts: tuple[Expr, ...]

    def children(self) -> Sequence[Expr]:
        return self.subscripts

    @property
    def rank(self) -> int:
        return len(self.subscripts)

    def __str__(self) -> str:
        subs = ", ".join(str(s) for s in self.subscripts)
        return f"{self.array}({subs})"


@dataclass(frozen=True)
class Deref(Expr):
    """C pointer dereference ``*(p + offset)``.

    Only produced by the C frontend; the pointer-conversion pass
    (:mod:`repro.analysis.pointers`) rewrites every Deref into an
    :class:`ArrayRef` before dependence analysis runs.
    """

    pointer: Expr

    def children(self) -> Sequence[Expr]:
        return (self.pointer,)

    def __str__(self) -> str:
        if isinstance(self.pointer, Name):
            return f"*{self.pointer}"
        return f"*({self.pointer})"


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _paren(expr: Expr, parent_op: str, is_left: bool) -> str:
    """Parenthesize a child only where required for correct reading."""
    text = str(expr)
    if isinstance(expr, BinOp):
        child_prec = _PRECEDENCE[expr.op]
        parent_prec = _PRECEDENCE[parent_op]
        if child_prec < parent_prec:
            return f"({text})"
        if child_prec == parent_prec and not is_left and parent_op in ("-", "/"):
            return f"({text})"
    if isinstance(expr, UnaryOp) and not is_left:
        return f"({text})"
    return text


def substitute_name(expr: Expr, name: str, replacement: Expr) -> Expr:
    """Return ``expr`` with every occurrence of ``Name(name)`` replaced."""
    if isinstance(expr, Name):
        return replacement if expr.name == name else expr
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            substitute_name(expr.left, name, replacement),
            substitute_name(expr.right, name, replacement),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, substitute_name(expr.operand, name, replacement))
    if isinstance(expr, Call):
        return Call(
            expr.func,
            tuple(substitute_name(a, name, replacement) for a in expr.args),
        )
    if isinstance(expr, Compare):
        return Compare(
            expr.op,
            substitute_name(expr.left, name, replacement),
            substitute_name(expr.right, name, replacement),
        )
    if isinstance(expr, ArrayRef):
        return ArrayRef(
            expr.array,
            tuple(substitute_name(s, name, replacement) for s in expr.subscripts),
        )
    if isinstance(expr, Deref):
        return Deref(substitute_name(expr.pointer, name, replacement))
    return expr


def evaluate_expr(expr: Expr, env: dict[str, int]) -> int:
    """Evaluate a call-free expression over an integer environment."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Name):
        if expr.name not in env:
            raise KeyError(f"no value for {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, UnaryOp):
        return -evaluate_expr(expr.operand, env)
    if isinstance(expr, BinOp):
        left = evaluate_expr(expr.left, env)
        right = evaluate_expr(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if right == 0:
            raise ZeroDivisionError(f"in {expr}")
        # FORTRAN integer division truncates toward zero.
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    if isinstance(expr, Compare):
        left = evaluate_expr(expr.left, env)
        right = evaluate_expr(expr.right, env)
        return int(_COMPARISONS[expr.op](left, right))
    raise ValueError(f"cannot evaluate {expr!r}")


_COMPARISONS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

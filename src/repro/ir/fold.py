"""Constant folding and light simplification of IR expressions.

Keeps transformed programs (normalization, pointer conversion, induction
substitution) readable and helps the affine lowering by collapsing literal
arithmetic.  Folding is purely local and semantics-preserving.
"""

from __future__ import annotations

from .expr import (
    _COMPARISONS,
    ArrayRef,
    BinOp,
    Call,
    Compare,
    Deref,
    Expr,
    IntLit,
    Name,
    UnaryOp,
)


def fold(expr: Expr) -> Expr:
    """Recursively fold constants and algebraic identities."""
    if isinstance(expr, (IntLit, Name)):
        return expr
    if isinstance(expr, Compare):
        left, right = fold(expr.left), fold(expr.right)
        if isinstance(left, IntLit) and isinstance(right, IntLit):
            return IntLit(int(_COMPARISONS[expr.op](left.value, right.value)))
        return Compare(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        inner = fold(expr.operand)
        if isinstance(inner, IntLit):
            return IntLit(-inner.value)
        if isinstance(inner, UnaryOp):
            return inner.operand
        return UnaryOp(expr.op, inner)
    if isinstance(expr, BinOp):
        return _fold_binop(expr.op, fold(expr.left), fold(expr.right))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(fold(a) for a in expr.args))
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.array, tuple(fold(s) for s in expr.subscripts))
    if isinstance(expr, Deref):
        return Deref(fold(expr.pointer))
    return expr


def _fold_binop(op: str, left: Expr, right: Expr) -> Expr:
    if isinstance(left, IntLit) and isinstance(right, IntLit):
        if op == "+":
            return IntLit(left.value + right.value)
        if op == "-":
            return IntLit(left.value - right.value)
        if op == "*":
            return IntLit(left.value * right.value)
        if op == "/" and right.value != 0:
            # FORTRAN/C integer division truncates toward zero.
            quotient = abs(left.value) // abs(right.value)
            if (left.value >= 0) != (right.value >= 0):
                quotient = -quotient
            return IntLit(quotient)
    if op == "+":
        if _is_zero(left):
            return right
        if _is_zero(right):
            return left
        # x + (-k)  ->  x - k  keeps printed programs tidy.
        if isinstance(right, IntLit) and right.value < 0:
            return BinOp("-", left, IntLit(-right.value))
    if op == "-":
        if _is_zero(right):
            return left
        if _is_zero(left) and isinstance(right, IntLit):
            return IntLit(-right.value)
    if op == "*":
        if _is_zero(left) or _is_zero(right):
            return IntLit(0)
        if _is_one(left):
            return right
        if _is_one(right):
            return left
    if op == "/" and _is_one(right):
        return left
    return BinOp(op, left, right)


def simplify(expr: Expr) -> Expr:
    """Affine simplification: cancel and collect terms where possible.

    Lowers the expression treating every name as a variable and re-renders
    it; expressions that are not affine in their names (calls, products of
    names beyond invariant*variable, derefs) are returned folded but
    otherwise unchanged.
    """
    from .affine import to_linexpr

    folded = fold(expr)
    # Lower with no loop variables: every name becomes a polynomial symbol,
    # so products of names are fine and everything collects into one Poly.
    lowered = to_linexpr(folded, set())
    if lowered is None:
        return folded
    return poly_to_expr(lowered.const)


def simplify_deep(expr: Expr) -> Expr:
    """Apply affine simplification inside subscripts and call arguments."""
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.array, tuple(simplify(s) for s in expr.subscripts))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(simplify(a) for a in expr.args))
    if isinstance(expr, Deref):
        return Deref(simplify(expr.pointer))
    if isinstance(expr, Compare):
        return Compare(expr.op, simplify(expr.left), simplify(expr.right))
    if isinstance(expr, BinOp):
        rebuilt = BinOp(expr.op, simplify_deep(expr.left), simplify_deep(expr.right))
        return simplify(rebuilt)
    if isinstance(expr, UnaryOp):
        return simplify(UnaryOp(expr.op, simplify_deep(expr.operand)))
    return expr


def poly_to_expr(poly) -> Expr:
    """Render a Poly back into an IR expression."""
    result: Expr | None = None
    # Constants render last ("i + 10*j + 5", matching the paper's style).
    for mono, coeff in sorted(poly.terms.items(), key=lambda t: (t[0] == (), t[0])):
        term: Expr | None = None
        for sym, exp in mono:
            for _ in range(exp):
                term = Name(sym) if term is None else BinOp("*", term, Name(sym))
        if term is None:
            term = IntLit(coeff)
        elif coeff != 1:
            term = BinOp("*", IntLit(coeff), term)
        result = term if result is None else _add(result, term)
    return result if result is not None else IntLit(0)


def _add(left: Expr, right: Expr) -> Expr:
    if isinstance(right, IntLit) and right.value < 0:
        return BinOp("-", left, IntLit(-right.value))
    if isinstance(right, UnaryOp):
        return BinOp("-", left, right.operand)
    return BinOp("+", left, right)


def _is_zero(expr: Expr) -> bool:
    return isinstance(expr, IntLit) and expr.value == 0


def _is_one(expr: Expr) -> bool:
    return isinstance(expr, IntLit) and expr.value == 1

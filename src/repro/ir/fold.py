"""Constant folding and light simplification of IR expressions.

Keeps transformed programs (normalization, pointer conversion, induction
substitution) readable and helps the affine lowering by collapsing literal
arithmetic.  Folding is purely local and semantics-preserving.
"""

from __future__ import annotations

from .expr import (
    _COMPARISONS,
    BinOp,
    Compare,
    Expr,
    IntLit,
    Name,
    UnaryOp,
    map_expr,
)


def fold(expr: Expr) -> Expr:
    """Recursively fold constants and algebraic identities."""
    if isinstance(expr, (IntLit, Name)):
        return expr  # most calls fold a bare bound or step
    return map_expr(expr, _fold_node)


def _fold_node(expr: Expr) -> Expr:
    """Fold one node whose children are already folded."""
    if isinstance(expr, BinOp):
        return _fold_binop(expr)
    if isinstance(expr, Compare):
        left, right = expr.left, expr.right
        if isinstance(left, IntLit) and isinstance(right, IntLit):
            return IntLit(int(_COMPARISONS[expr.op](left.value, right.value)))
    elif isinstance(expr, UnaryOp):
        inner = expr.operand
        if isinstance(inner, IntLit):
            return IntLit(-inner.value)
        if isinstance(inner, UnaryOp):
            return inner.operand
    return expr


def _fold_binop(expr: BinOp) -> Expr:
    op, left, right = expr.op, expr.left, expr.right
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
    return expr


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
    """Apply affine simplification to every arithmetic subexpression,
    including those inside subscripts and call arguments."""
    return map_expr(expr, _simplify_arithmetic)


def _simplify_arithmetic(expr: Expr) -> Expr:
    return simplify(expr) if isinstance(expr, (BinOp, UnaryOp)) else expr


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

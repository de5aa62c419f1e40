"""Lowering scalar expressions to affine form.

Subscript functions must be *linear functions of loop variables* (paper
eqs. (3)-(4)); coefficients may be loop-invariant symbolic expressions
(Section 4, "Symbolics handling").  This module checks that property and
produces :class:`~repro.symbolic.linexpr.LinExpr` values, or ``None`` when an
expression is not affine (calls, products of loop variables, non-exact
division...).
"""

from __future__ import annotations

from ..symbolic import LinExpr, Poly
from .expr import ArrayRef, BinOp, Call, Compare, Deref, Expr, IntLit, Name, UnaryOp


def to_linexpr(expr: Expr, loop_vars: set[str]) -> LinExpr | None:
    """Lower ``expr`` to affine form over ``loop_vars``.

    Names outside ``loop_vars`` become symbolic parameters (Poly symbols).
    Returns ``None`` when the expression is not affine in the loop variables.
    """
    if isinstance(expr, IntLit):
        return LinExpr.const_expr(expr.value)
    if isinstance(expr, Name):
        if expr.name in loop_vars:
            return LinExpr.var(expr.name)
        return LinExpr.const_expr(Poly.symbol(expr.name))
    if isinstance(expr, UnaryOp):
        inner = to_linexpr(expr.operand, loop_vars)
        return None if inner is None else -inner
    if isinstance(expr, BinOp):
        return _lower_binop(expr, loop_vars)
    if isinstance(expr, (Call, ArrayRef, Deref, Compare)):
        return None
    raise TypeError(f"unknown expression {type(expr).__name__}")


def _lower_binop(expr: BinOp, loop_vars: set[str]) -> LinExpr | None:
    left = to_linexpr(expr.left, loop_vars)
    right = to_linexpr(expr.right, loop_vars)
    if left is None or right is None:
        return None
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        # At most one side may involve loop variables.
        if left.is_constant():
            return right * left.const
        if right.is_constant():
            return left * right.const
        return None
    # Division: only exact division of every coefficient by an integer.
    if not right.is_constant() or not right.const.is_constant():
        return None
    divisor = right.const.as_int()
    if divisor == 0:
        return None
    try:
        coeffs = {
            name: coeff.exact_div(divisor) for name, coeff in left.coeffs.items()
        }
        const = left.const.exact_div(divisor)
    except ValueError:
        return None
    return LinExpr(coeffs, const)


def to_poly(expr: Expr) -> Poly | None:
    """Lower a loop-invariant expression to a polynomial (None if not)."""
    lowered = to_linexpr(expr, set())
    if lowered is None or not lowered.is_constant():
        return None
    return lowered.const


"""Loop normalization and iteration-space rectangularization.

The paper (Section 2) assumes every DO loop runs from 0 to its upper bound by
step 1, and that loop bounds are constants — non-constant bounds are replaced
by their maximum over the enclosing iteration space ("rectangular extension",
footnote 1) or kept as symbolic parameters.

``normalize_program`` rewrites a program so that every loop has lower bound 0
and step 1; the original induction variable ``v`` is substituted by
``lower + step * v`` throughout the loop body (including inner loop bounds).

``rectangular_bounds`` then computes, outside-in, a loop-invariant upper
bound polynomial for every normalized loop variable.  Affine bounds take
``b0 + sum(bi+ * Xi)``; anything non-affine becomes a fresh symbolic
parameter (paper Section 4: "we have to perform symbolic calculations").
"""

from __future__ import annotations

from ..ir import (
    Assignment,
    BinOp,
    CallStmt,
    Expr,
    If,
    IntLit,
    Loop,
    Program,
    Stmt,
    substitute_name,
    to_linexpr,
)
from ..ir.fold import fold, simplify, simplify_deep
from ..symbolic import Poly


class NormalizationError(ValueError):
    """A loop cannot be brought to normalized form (an input error)."""

    #: The program being normalized, when attached (``driver.front_end``).
    program: Program | None = None


def normalize_program(program: Program) -> Program:
    """Return an equivalent program whose loops run ``0..U`` step 1."""
    normalized = Program(
        decls=dict(program.decls),
        equivalences=list(program.equivalences),
        body=_normalize_stmts(program.body),
        name=program.name,
        commons=list(program.commons),
        subroutines=dict(program.subroutines),
    )
    normalized.number_statements()
    return normalized


def _normalize_stmts(stmts: list[Stmt]) -> list[Stmt]:
    out: list[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, Loop):
            out.append(_normalize_loop(stmt))
        elif isinstance(stmt, Assignment):
            out.append(Assignment(stmt.lhs, stmt.rhs, stmt.label, span=stmt.span))
        elif isinstance(stmt, If):
            out.append(
                If(
                    stmt.cond,
                    _normalize_stmts(stmt.then_body),
                    _normalize_stmts(stmt.else_body),
                    span=stmt.span,
                )
            )
        elif isinstance(stmt, CallStmt):
            out.append(
                CallStmt(stmt.name, stmt.args, stmt.label, span=stmt.span)
            )
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")
    return out


def _normalize_loop(loop: Loop) -> Loop:
    body = _normalize_stmts(loop.body)
    step = fold(loop.step)
    if isinstance(step, IntLit) and step.value <= 0:
        raise NormalizationError(
            f"loop {loop.var}: non-positive step {step} unsupported"
        )
    is_trivial = (
        isinstance(loop.lower, IntLit)
        and loop.lower.value == 0
        and isinstance(step, IntLit)
        and step.value == 1
    )
    if is_trivial:
        return Loop(
            loop.var, loop.lower, fold(loop.upper), body, IntLit(1),
            span=loop.span,
        )
    # v_old = lower + step * v_new;  v_new in [0, (upper - lower) / step].
    replacement = fold(
        BinOp("+", loop.lower, BinOp("*", step, _var(loop.var)))
    )
    new_upper = simplify(
        BinOp("/", BinOp("-", loop.upper, loop.lower), step)
    )
    new_body: list[Stmt] = []
    for stmt in body:
        new_body.append(_substitute_stmt(stmt, loop.var, replacement))
    return Loop(
        loop.var, IntLit(0), new_upper, new_body, IntLit(1), span=loop.span
    )


def _substitute_stmt(stmt: Stmt, name: str, replacement: Expr) -> Stmt:
    if isinstance(stmt, Assignment):
        return Assignment(
            simplify_deep(substitute_name(stmt.lhs, name, replacement)),
            simplify_deep(substitute_name(stmt.rhs, name, replacement)),
            stmt.label,
            span=stmt.span,
        )
    if isinstance(stmt, Loop):
        if stmt.var == name:
            # Inner loop shadows the variable: bounds still see the outer
            # value, body does not.  Shadowing does not occur in practice
            # (FORTRAN forbids it); treat it as an error to stay safe.
            raise NormalizationError(f"loop variable {name} shadowed")
        return Loop(
            stmt.var,
            simplify(substitute_name(stmt.lower, name, replacement)),
            simplify(substitute_name(stmt.upper, name, replacement)),
            [_substitute_stmt(s, name, replacement) for s in stmt.body],
            stmt.step,
            span=stmt.span,
        )
    if isinstance(stmt, If):
        return If(
            substitute_name(stmt.cond, name, replacement),
            [_substitute_stmt(s, name, replacement) for s in stmt.then_body],
            [_substitute_stmt(s, name, replacement) for s in stmt.else_body],
            span=stmt.span,
        )
    if isinstance(stmt, CallStmt):
        return CallStmt(
            stmt.name,
            tuple(
                simplify_deep(substitute_name(a, name, replacement))
                for a in stmt.args
            ),
            stmt.label,
            span=stmt.span,
        )
    raise TypeError(f"unknown statement {type(stmt).__name__}")


def _var(name: str):
    from ..ir import Name

    return Name(name)


def rectangular_bounds(program: Program) -> dict[str, Poly]:
    """Loop-invariant upper bound (inclusive) per loop variable.

    The program must be normalized.  Bounds referencing outer loop variables
    are maximized over the outer rectangle; non-affine bounds become fresh
    symbols named ``_ub_<var>``.  When the same variable name is used by
    several loops (disjoint nests), the looser bound wins — the iteration
    space extension is still sound.
    """
    bounds: dict[str, Poly] = {}
    _collect_bounds(program.body, [], bounds)
    return bounds


def _collect_bounds(
    stmts: list[Stmt],
    outer: list[tuple[str, Poly]],
    bounds: dict[str, Poly],
) -> None:
    for stmt in stmts:
        if isinstance(stmt, If):
            _collect_bounds(stmt.then_body, outer, bounds)
            _collect_bounds(stmt.else_body, outer, bounds)
            continue
        if not isinstance(stmt, Loop):
            continue
        upper = _maximize(stmt.upper, outer, stmt.var)
        if stmt.var in bounds and bounds[stmt.var] != upper:
            upper = _loosen(bounds[stmt.var], upper, stmt.var)
        bounds[stmt.var] = upper
        _collect_bounds(stmt.body, outer + [(stmt.var, upper)], bounds)


def _maximize(
    upper: Expr, outer: list[tuple[str, Poly]], var: str
) -> Poly:
    loop_vars = {name for name, _ in outer}
    lowered = to_linexpr(upper, loop_vars)
    if lowered is None:
        return Poly.symbol(f"_ub_{var}")
    result = lowered.const
    outer_bounds = dict(outer)
    for name, coeff in lowered.coeffs.items():
        if coeff.is_constant():
            value = coeff.as_int()
            if value > 0:
                result = result + coeff * outer_bounds[name]
            # Negative coefficients contribute at x = 0: nothing to add.
            continue
        # Symbolic coefficient of unknown sign: fall back to a fresh symbol.
        return Poly.symbol(f"_ub_{var}")
    return result


def _loosen(a: Poly, b: Poly, var: str) -> Poly:
    """A common upper bound for two uses of one variable name."""
    if a.is_constant() and b.is_constant():
        return a if a.as_int() >= b.as_int() else b
    return Poly.symbol(f"_ub_{var}")

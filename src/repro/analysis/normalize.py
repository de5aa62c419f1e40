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
    BinOp,
    Expr,
    IntLit,
    Loop,
    Name,
    Program,
    rewrite_statements,
    substitute_name,
    summarize,
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
    return program.with_body(
        rewrite_statements(program.body, loop=_normalize_loop)
    )


def _normalize_loop(loop: Loop) -> Loop:
    body = rewrite_statements(loop.body, loop=_normalize_loop)
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
        BinOp("+", loop.lower, BinOp("*", step, Name(loop.var)))
    )
    new_upper = simplify(
        BinOp("/", BinOp("-", loop.upper, loop.lower), step)
    )

    def shadowed(inner: Loop) -> None:
        # An inner loop reusing the variable would see the outer value in
        # its bounds but not in its body.  FORTRAN forbids it; refuse it.
        if inner.var == loop.var:
            raise NormalizationError(f"loop variable {loop.var} shadowed")

    def substitute(expr: Expr) -> Expr:
        return simplify_deep(substitute_name(expr, loop.var, replacement))

    new_body = rewrite_statements(body, substitute, shadowed)
    return Loop(
        loop.var, IntLit(0), new_upper, new_body, IntLit(1), span=loop.span
    )


def rectangular_bounds(program: Program) -> dict[str, Poly]:
    """Loop-invariant upper bound (inclusive) per loop variable.

    The program must be normalized.  Bounds referencing outer loop variables
    are maximized over the outer rectangle; non-affine bounds become fresh
    symbols named ``_ub_<var>``.  When the same variable name is used by
    several loops (disjoint nests), the looser bound wins — the iteration
    space extension is still sound.

    The bounds are computed once per program and kept with its statement
    summary (:func:`repro.ir.summarize`); each call returns a fresh dict.
    """
    summary = summarize(program)
    if summary.bounds is None:
        summary.bounds = {}
        of_loop: dict[int, Poly] = {}  # each loop's bound, by identity
        for entry in summary.loop_table.entries:
            loop = entry.loop
            outer = [(o.var, of_loop[id(o)]) for o in entry.outer]
            upper = _maximize(loop.upper, outer, loop.var)
            known = summary.bounds.get(loop.var)
            if known is not None and known != upper:
                upper = _loosen(known, upper, loop.var)
            summary.bounds[loop.var] = of_loop[id(loop)] = upper
    return dict(summary.bounds)


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

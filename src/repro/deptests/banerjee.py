"""Banerjee inequalities [AK87, WB87].

For each equation the left-hand side ``c0 + sum(ck * zk)`` with
``zk in [0, Zk]`` ranges over the real interval

    [c0 + sum(ck^- * Zk),  c0 + sum(ck^+ * Zk)]

where ``c^+ = max(c, 0)`` and ``c^- = min(c, 0)``.  If 0 lies outside the
interval the equation (hence the dependence) is impossible.  The test is
exact over the *reals* for a single equation, which is precisely why it
cannot disprove the paper's intro equation (1): that equation has real
solutions but no integer ones.

The bounds are computed over ``(coefficient, upper bound)`` terms plus a
constant (:func:`term_bounds`).  The whole-equation test passes the
equation's own terms; the per-direction refinement of
:mod:`repro.core.groups` passes, for each direction vector, the terms that
the substitution of :meth:`DependenceProblem.with_direction` would leave —
which is algebraically identical to the textbook per-direction bound
formulas — without building the substituted problem.

Symbolic coefficients are supported when their signs are provable from the
problem's :class:`~repro.symbolic.assumptions.Assumptions`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..symbolic import Assumptions, LinExpr, Poly
from .problem import BoundedVar, DependenceProblem, Verdict


def banerjee_test(problem: DependenceProblem) -> Verdict:
    """Banerjee inequalities over every equation of the problem."""
    for equation in problem.equations:
        verdict = equation_banerjee_verdict(
            equation, problem.variables, problem.assumptions
        )
        if verdict is Verdict.INDEPENDENT:
            return Verdict.INDEPENDENT
    return Verdict.MAYBE


def equation_bounds(
    equation: LinExpr,
    variables: dict[str, BoundedVar],
    assumptions: Assumptions,
) -> tuple[Poly, Poly] | None:
    """The (lower, upper) range of the equation's left-hand side.

    Returns None when a coefficient's sign (or the sign of an upper bound)
    cannot be proven, making the extreme values unknown.
    """
    return term_bounds(
        _terms(equation, variables), equation.const, assumptions
    )


def term_bounds(
    terms: Iterable[tuple[Poly, Poly]],
    constant: Poly,
    assumptions: Assumptions,
) -> tuple[Poly, Poly] | None:
    """The (lower, upper) range of ``constant + sum(c * z)``, ``z in [0, Z]``.

    ``terms`` holds one ``(c, Z)`` per variable, with ``c`` non-zero.
    Returns None when the sign of some ``c`` or ``Z`` cannot be proven.
    """
    lower = upper = constant
    for coeff, bound in terms:
        if assumptions.is_nonneg(bound) is None:
            return None
        sign = assumptions.sign(coeff)
        if sign is None:
            return None
        if sign > 0:
            upper = upper + coeff * bound
        elif sign < 0:
            lower = lower + coeff * bound
    return lower, upper


def equation_banerjee_verdict(
    equation: LinExpr,
    variables: dict[str, BoundedVar],
    assumptions: Assumptions | None = None,
) -> Verdict:
    """Banerjee verdict for a single equation."""
    return banerjee_verdict(
        _terms(equation, variables),
        equation.const,
        assumptions or Assumptions.empty(),
    )


def banerjee_verdict(
    terms: Iterable[tuple[Poly, Poly]],
    constant: Poly,
    assumptions: Assumptions,
) -> Verdict:
    """Banerjee verdict for ``constant + sum(c * z) = 0`` (see :func:`term_bounds`)."""
    bounds = term_bounds(terms, constant, assumptions)
    if bounds is None:
        return Verdict.MAYBE
    lower, upper = bounds
    if assumptions.is_pos(lower) or assumptions.is_neg(upper):
        return Verdict.INDEPENDENT
    return Verdict.MAYBE


def _terms(
    equation: LinExpr, variables: dict[str, BoundedVar]
) -> Iterator[tuple[Poly, Poly]]:
    for name, coeff in equation.coeffs.items():
        yield coeff, variables[name].upper


def gcd_banerjee_test(problem: DependenceProblem) -> Verdict:
    """GCD test and Banerjee inequalities combined.

    This is the precision the paper proves its algorithm achieves "on the
    fly" for each separated dimension.
    """
    from .gcd import gcd_test

    if gcd_test(problem) is Verdict.INDEPENDENT:
        return Verdict.INDEPENDENT
    return banerjee_test(problem)

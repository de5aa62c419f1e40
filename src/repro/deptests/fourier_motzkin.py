"""Fourier-Motzkin elimination [DE73, MHL91], with optional Pugh tightening.

The problem's equations and bounds become a system of integer-coefficient
inequalities ``sum(a_i * z_i) <= c``; variables are eliminated one at a time
by combining every lower bound with every upper bound.  An inconsistent
constant constraint (``0 <= c`` with ``c < 0``) proves independence.

Plain FM decides *real* feasibility, so — like Banerjee — it cannot disprove
the paper's intro equation (1).  With ``tighten=True`` every inequality is
normalized the way Pugh's Omega test does [Pug91]: divide by the gcd of the
variable coefficients and floor the constant.  That normalization is sound
only over the integers and is exactly the step the paper credits with making
FM able to return "independent" on equation (1).

Cost control: elimination can square the constraint count, so the routine
gives up (MAYBE) beyond :data:`MAX_CONSTRAINTS`.
"""

from __future__ import annotations

import math
from typing import Iterable

from .problem import DependenceProblem, Verdict

#: One inequality: (coeffs, c) meaning sum(coeffs[v] * v) <= c.
Inequality = tuple[tuple[tuple[str, int], ...], int]

#: Constraint count past which an elimination step answers MAYBE.
MAX_CONSTRAINTS = 20_000


def fourier_motzkin_test(
    problem: DependenceProblem,
    tighten: bool = False,
) -> Verdict:
    """Eliminate all variables; INDEPENDENT on derived contradiction."""
    if not problem.is_concrete():
        return Verdict.MAYBE
    system: set[Inequality] = set()
    for eq in problem.equations:
        coeffs = {n: c.as_int() for n, c in eq.coeffs.items()}
        constant = eq.const.as_int()
        for sign in (1, -1):
            ineq = _normalize(
                {n: sign * c for n, c in coeffs.items()}, -sign * constant, tighten
            )
            if ineq is None:
                return Verdict.INDEPENDENT
            if ineq:
                system.add(ineq)
    for name, var in problem.variables.items():
        upper = var.upper.as_int()
        for coeffs, bound in (({name: 1}, upper), ({name: -1}, 0)):
            ineq = _normalize(coeffs, bound, tighten)
            if ineq is None:
                return Verdict.INDEPENDENT
            if ineq:
                system.add(ineq)

    remaining = set(problem.variables)
    while remaining:
        variable = _cheapest_variable(system, remaining)
        remaining.discard(variable)
        lowers, uppers, others = _partition(system, variable)
        if len(lowers) * len(uppers) + len(others) > MAX_CONSTRAINTS:
            return Verdict.MAYBE
        system = set(others)
        for lower in lowers:
            for upper in uppers:
                derived = _eliminate(lower, upper, variable, tighten)
                if derived is None:
                    return Verdict.INDEPENDENT
                if derived:
                    system.add(derived)
    return Verdict.MAYBE


def _normalize(
    coeffs: dict[str, int], bound: int, tighten: bool
) -> Inequality | None | tuple[()]:
    """Canonicalize an inequality.

    Returns None for a contradiction (``0 <= negative``), the empty tuple for
    a trivially true constraint, or the normalized inequality.
    """
    live = {n: c for n, c in coeffs.items() if c}
    if not live:
        return None if bound < 0 else ()
    if tighten:
        gcd = math.gcd(*(abs(c) for c in live.values()))
        if gcd > 1:
            live = {n: c // gcd for n, c in live.items()}
            bound = _floor_div(bound, gcd)
    return tuple(sorted(live.items())), bound


def _partition(
    system: Iterable[Inequality], variable: str
) -> tuple[list[Inequality], list[Inequality], list[Inequality]]:
    lowers, uppers, others = [], [], []
    for ineq in system:
        coeff = dict(ineq[0]).get(variable, 0)
        if coeff > 0:
            uppers.append(ineq)  # a*v <= ...  bounds v from above
        elif coeff < 0:
            lowers.append(ineq)
        else:
            others.append(ineq)
    return lowers, uppers, others


def _eliminate(
    lower: Inequality, upper: Inequality, variable: str, tighten: bool
) -> Inequality | None | tuple[()]:
    """Combine one lower and one upper bound on ``variable``."""
    lower_map, lower_bound = dict(lower[0]), lower[1]
    upper_map, upper_bound = dict(upper[0]), upper[1]
    scale_lower = upper_map[variable]  # > 0
    scale_upper = -lower_map[variable]  # > 0
    merged: dict[str, int] = {}
    for n, c in lower_map.items():
        merged[n] = merged.get(n, 0) + c * scale_lower
    for n, c in upper_map.items():
        merged[n] = merged.get(n, 0) + c * scale_upper
    merged.pop(variable, None)
    return _normalize(
        merged, lower_bound * scale_lower + upper_bound * scale_upper, tighten
    )


def _cheapest_variable(system: set[Inequality], remaining: set[str]) -> str:
    """Pick the elimination variable minimizing new-constraint count."""
    best, best_cost = None, None
    for variable in sorted(remaining):
        lowers = uppers = 0
        for coeffs, _ in system:
            coeff = dict(coeffs).get(variable, 0)
            if coeff > 0:
                uppers += 1
            elif coeff < 0:
                lowers += 1
        cost = lowers * uppers - lowers - uppers
        if best_cost is None or cost < best_cost:
            best, best_cost = variable, cost
    assert best is not None
    return best


def _floor_div(a: int, b: int) -> int:
    return a // b

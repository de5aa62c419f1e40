"""The GCD test [AK87, Ban88].

A linear equation ``c0 + sum(ck * zk) = 0`` has integer solutions (ignoring
bounds) iff ``gcd(c1..cn)`` divides ``c0``.  The test proves independence
when the divisibility fails; it never proves dependence (bounds are ignored).

The test applies to concrete (integer) problems; symbolic coefficients make
divisibility undecidable without value knowledge, so such problems answer
MAYBE (the delinearization core handles symbolic cases soundly instead).

:func:`gcd_verdict` takes the coefficients and the constant as they are, so
callers that assemble an equation from pieces (the per-direction refinement
of :mod:`repro.core.groups`) test it without building a
:class:`~repro.symbolic.LinExpr`.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..symbolic import LinExpr, Poly
from .problem import DependenceProblem, Verdict


def gcd_test(problem: DependenceProblem) -> Verdict:
    """Run the GCD test on every equation; any failure proves independence."""
    for equation in problem.equations:
        if equation_gcd_verdict(equation) is Verdict.INDEPENDENT:
            return Verdict.INDEPENDENT
    return Verdict.MAYBE


def equation_gcd_verdict(equation: LinExpr) -> Verdict:
    """GCD verdict for one equation (MAYBE when symbolic or divisible)."""
    return gcd_verdict(equation.coeffs.values(), equation.const)


def gcd_verdict(coefficients: Iterable[Poly], constant: Poly) -> Verdict:
    """GCD verdict for ``constant + sum(c * z) = 0`` over non-zero ``c``."""
    if not constant.is_constant():
        return Verdict.MAYBE
    divisor = 0
    for coeff in coefficients:
        if not coeff.is_constant():
            return Verdict.MAYBE
        divisor = math.gcd(divisor, coeff.as_int())
    remainder = constant.as_int() if divisor == 0 else constant.as_int() % divisor
    return Verdict.INDEPENDENT if remainder != 0 else Verdict.MAYBE

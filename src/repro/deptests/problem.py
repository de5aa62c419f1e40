"""The dependence problem representation shared by all tests.

A :class:`DependenceProblem` is the constrained system of the paper's
equation (2)/(5): a conjunction of linear equations over iteration variables
``z_k`` in normalized ranges ``[0, Z_k]``, together with the bookkeeping that
maps variables back to (loop level, reference side) so direction vectors can
be reported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import product as _iterproduct
from typing import Iterator, Mapping, Sequence

from ..dirvec.vectors import D_EQ, D_GT, D_LT, DirElem, DirVec
from ..symbolic import Assumptions, LinExpr, Poly, PolyLike


class Verdict(Enum):
    """Outcome of a dependence test."""

    INDEPENDENT = "independent"
    DEPENDENT = "dependent"
    MAYBE = "maybe"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class BoundedVar:
    """An iteration variable with normalized range ``[0, upper]``.

    ``level`` is the 1-based loop level and ``side`` identifies which of the
    two references the variable belongs to (0 = first, 1 = second).  Both are
    None for auxiliary variables introduced by transformations.
    """

    name: str
    upper: Poly
    level: int | None = None
    side: int | None = None

    @classmethod
    def make(
        cls,
        name: str,
        upper: PolyLike,
        level: int | None = None,
        side: int | None = None,
    ) -> "BoundedVar":
        return cls(name, Poly.coerce(upper), level, side)

    def __str__(self) -> str:
        return f"{self.name} in [0, {self.upper}]"


class DependenceProblem:
    """A conjunction of linear dependence equations with bounded variables."""

    def __init__(
        self,
        equations: Sequence[LinExpr],
        variables: Sequence[BoundedVar],
        common_levels: int = 0,
        assumptions: Assumptions | None = None,
    ):
        self.equations = list(equations)
        self.variables: dict[str, BoundedVar] = {}
        for var in variables:
            if var.name in self.variables:
                raise ValueError(f"duplicate variable {var.name}")
            self.variables[var.name] = var
        self.common_levels = common_levels
        self.assumptions = assumptions or Assumptions.empty()
        for eq in self.equations:
            missing = eq.variables() - set(self.variables)
            if missing:
                raise ValueError(f"equation {eq} uses unbound {sorted(missing)}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def single(
        cls,
        coefficients: Mapping[str, int],
        constant: int,
        bounds: Mapping[str, int],
        common_levels: int = 0,
        pairs: Sequence[tuple[str, str]] = (),
    ) -> "DependenceProblem":
        """Build a one-equation problem from plain integers.

        ``pairs`` optionally lists ``(side0_var, side1_var)`` per common
        level, in order, to enable direction-vector queries.
        """
        expr = LinExpr(dict(coefficients), constant)
        variables = []
        pair_index: dict[str, tuple[int, int]] = {}
        for level, (a, b) in enumerate(pairs, start=1):
            pair_index[a] = (level, 0)
            pair_index[b] = (level, 1)
        for name, upper in bounds.items():
            level, side = pair_index.get(name, (None, None))
            variables.append(BoundedVar.make(name, upper, level, side))
        return cls([expr], variables, common_levels=len(pairs) or common_levels)

    # -- inspection ----------------------------------------------------------

    def is_concrete(self) -> bool:
        """True when all coefficients, constants and bounds are integers."""
        return all(eq.is_integer_concrete() for eq in self.equations) and all(
            v.upper.is_constant() for v in self.variables.values()
        )

    def level_pair(self, level: int) -> tuple[BoundedVar, BoundedVar] | None:
        """The (side-0, side-1) variables of a common loop level."""
        first = second = None
        for var in self.variables.values():
            if var.level == level:
                if var.side == 0:
                    first = var
                elif var.side == 1:
                    second = var
        if first is None or second is None:
            return None
        return first, second

    def level_pairs(self) -> list[tuple[BoundedVar, BoundedVar]]:
        out = []
        for level in range(1, self.common_levels + 1):
            pair = self.level_pair(level)
            if pair is None:
                raise ValueError(f"common level {level} has no variable pair")
            out.append(pair)
        return out

    def iteration_count(self) -> int:
        """Number of integer points in the (concrete) bound box."""
        total = 1
        for var in self.variables.values():
            upper = var.upper.as_int()
            if upper < 0:
                return 0
            total *= upper + 1
        return total

    # -- evaluation -----------------------------------------------------------

    def is_solution(
        self,
        assignment: Mapping[str, int],
        sym_values: Mapping[str, int] | None = None,
    ) -> bool:
        """Check a candidate integer assignment against equations and bounds."""
        for var in self.variables.values():
            value = assignment[var.name]
            if not 0 <= value <= var.upper.evaluate(sym_values or {}):
                return False
        return all(
            eq.evaluate(assignment, sym_values) == 0 for eq in self.equations
        )

    def enumerate_solutions(
        self, sym_values: Mapping[str, int] | None = None
    ) -> Iterator[dict[str, int]]:
        """Brute-force enumeration (concrete problems; use with care)."""
        sym_values = sym_values or {}
        names = list(self.variables)
        ranges = [
            range(self.variables[n].upper.evaluate(sym_values) + 1) for n in names
        ]
        for point in _iterproduct(*ranges):
            assignment = dict(zip(names, point))
            if all(
                eq.evaluate(assignment, sym_values) == 0 for eq in self.equations
            ):
                yield assignment

    # -- transformations ---------------------------------------------------------

    def with_direction(self, dirvec: DirVec) -> "DependenceProblem":
        """Constrain the problem to an (atomic or composite) direction vector.

        Implemented by variable substitution, which reduces the
        direction-constrained Banerjee bounds to the plain ones:

        * ``=``: the side-1 variable is replaced by the side-0 variable;
        * ``<`` (alpha < beta): ``beta := alpha + 1 + t`` with fresh
          ``t in [0, Z-1]`` and ``alpha in [0, Z-1]``;
        * ``>``: symmetric;
        * composite elements (``*``, ``<=`` ...) leave the level unconstrained.
        """
        if len(dirvec) != self.common_levels:
            raise ValueError(
                f"direction vector {dirvec} has {len(dirvec)} elements, "
                f"problem has {self.common_levels} common levels"
            )
        equations = list(self.equations)
        variables = dict(self.variables)
        for level, elem in enumerate(dirvec, start=1):
            pair = self.level_pair(level)
            if pair is None:
                raise ValueError(f"level {level} has no variable pair")
            alpha, beta = pair
            if elem == D_EQ:
                equations = [
                    eq.substitute_var(beta.name, LinExpr.var(alpha.name))
                    for eq in equations
                ]
                variables.pop(beta.name, None)
                # Shared range: the tighter of the two upper bounds if they
                # differ (they normally agree: same loop).
                shared = alpha.upper
                if alpha.upper.is_constant() and beta.upper.is_constant():
                    if beta.upper.as_int() < alpha.upper.as_int():
                        shared = beta.upper
                variables[alpha.name] = replace(
                    variables[alpha.name], upper=shared
                )
            elif elem in (D_LT, D_GT):
                lo, hi = (alpha, beta) if elem == D_LT else (beta, alpha)
                # hi := lo + 1 + t with t in [0, Z_hi - 1] and
                # lo in [0, min(Z_lo, Z_hi - 1)].  The coupling constraint
                # lo + t <= Z_hi - 1 is not box-representable and is dropped:
                # this is the rectangular over-approximation the paper's
                # footnote 1 adopts (sound: it can only add points).
                t_name = f"_t{level}"
                while t_name in variables:
                    t_name += "_"
                replacement = LinExpr.var(lo.name) + LinExpr.var(t_name) + 1
                equations = [
                    eq.substitute_var(hi.name, replacement) for eq in equations
                ]
                variables.pop(hi.name, None)
                lo_upper = hi.upper - 1
                if lo.upper.is_constant() and hi.upper.is_constant():
                    lo_upper = Poly.const(
                        min(lo.upper.as_int(), hi.upper.as_int() - 1)
                    )
                elif lo.upper != hi.upper:
                    # Distinct symbolic bounds: keep the declared bound (a
                    # further over-approximation, still sound).
                    lo_upper = lo.upper
                variables[lo.name] = replace(
                    variables[lo.name], upper=lo_upper
                )
                variables[t_name] = BoundedVar(t_name, hi.upper - 1)
            # Composite elements: no constraint added.
        # Every variable is kept: a variable whose transformed range is
        # empty (upper < 0) makes the whole problem infeasible even when it
        # no longer appears in any equation.
        return DependenceProblem(
            equations, list(variables.values()), self.common_levels, self.assumptions
        )

    def direction_of_solution(self, assignment: Mapping[str, int]) -> DirVec:
        """The atomic direction vector realized by a solution point."""
        elems: list[DirElem] = []
        for alpha, beta in self.level_pairs():
            a_val = assignment[alpha.name]
            b_val = assignment[beta.name]
            if a_val < b_val:
                elems.append(D_LT)
            elif a_val == b_val:
                elems.append(D_EQ)
            else:
                elems.append(D_GT)
        return DirVec(elems)

    def restrict_to_equation(self, index: int) -> "DependenceProblem":
        """A sub-problem containing a single equation (with its variables)."""
        eq = self.equations[index]
        kept = [self.variables[name] for name in self.variables if name in eq.variables()]
        return DependenceProblem([eq], kept, self.common_levels, self.assumptions)

    def __str__(self) -> str:
        eqs = "; ".join(f"{eq} = 0" for eq in self.equations)
        bounds = ", ".join(str(v) for v in self.variables.values())
        return f"{eqs} with {bounds}"

    def __repr__(self) -> str:
        return f"DependenceProblem({self})"

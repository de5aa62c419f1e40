"""Building dependence problems from pairs of array references.

This is the bridge between the IR world (statements, loops, subscript
expressions) and the solver world (equations over bounded variables): for a
pair of references to the same array it constructs the system (2)/(5) of the
paper, renaming the two sides' iteration variables apart and recording which
loop levels are common (for direction vectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..deptests.problem import BoundedVar, DependenceProblem
from ..ir import RefContext, common_loop_count, to_linexpr
from ..symbolic import Assumptions, LinExpr, Poly


@dataclass
class PairProblem:
    """A dependence problem plus provenance for one reference pair."""

    source: RefContext
    sink: RefContext
    problem: DependenceProblem | None  # None: nothing analyzable
    common_levels: int
    analyzable_dims: int = 0
    unknown_dims: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def fully_analyzable(self) -> bool:
        return self.problem is not None and self.unknown_dims == 0


def side_subscripts(ref: RefContext, side: int) -> tuple[LinExpr | None, ...]:
    """``ref``'s subscripts as affine functions, renamed for one side of a pair.

    Loop variable ``i`` becomes ``i#1`` on the first side and ``i#2`` on the
    second; a subscript that is not affine is None.  Each subscript is
    lowered once and each side renamed once, on :attr:`RefContext.memo`, so
    every pair the reference is in shares them.
    """
    memo = ref.memo
    key = f"subscripts#{side}"
    if key not in memo:
        if "subscripts" not in memo:
            loop_vars = set(ref.loop_vars)
            memo["subscripts"] = tuple(
                to_linexpr(sub, loop_vars) for sub in ref.ref.subscripts
            )
        rename = {name: f"{name}#{side}" for name in ref.loop_vars}
        memo[key] = tuple(
            None if form is None else form.rename_vars(rename)
            for form in memo["subscripts"]
        )
    return memo[key]


def build_pair_problem(
    ref_a: RefContext,
    ref_b: RefContext,
    bounds: dict[str, Poly],
    assumptions: Assumptions | None = None,
) -> PairProblem:
    """Construct the dependence system for two references.

    ``bounds`` maps loop variable names to loop-invariant inclusive upper
    bounds (see :func:`repro.analysis.normalize.rectangular_bounds`); the
    enclosing loops are assumed normalized.
    """
    if ref_a.ref.array != ref_b.ref.array:
        raise ValueError(
            f"references to different arrays: "
            f"{ref_a.ref.array} vs {ref_b.ref.array}"
        )
    assumptions = assumptions or Assumptions.empty()
    n_common = common_loop_count(ref_a, ref_b)

    notes: list[str] = []
    equations: list[LinExpr] = []
    unknown = 0
    rank_a = len(ref_a.ref.subscripts)
    rank_b = len(ref_b.ref.subscripts)
    if rank_a != rank_b:
        notes.append("rank mismatch: no analyzable dimensions")
        return PairProblem(ref_a, ref_b, None, n_common, 0, max(rank_a, rank_b), notes)
    forms = zip(side_subscripts(ref_a, 1), side_subscripts(ref_b, 2))
    for dim, (f_a, f_b) in enumerate(forms, start=1):
        if f_a is None or f_b is None:
            unknown += 1
            notes.append(f"dimension {dim}: non-affine subscript")
            continue
        equations.append(f_a - f_b)

    if not equations:
        return PairProblem(
            ref_a, ref_b, None, n_common, 0, unknown, notes
        )

    variables: list[BoundedVar] = []
    for side, ref in enumerate((ref_a, ref_b)):
        for level, var in enumerate(ref.loop_vars, start=1):
            if var not in bounds:
                raise KeyError(f"no bound recorded for loop variable {var!r}")
            variables.append(
                BoundedVar(
                    f"{var}#{side + 1}",
                    bounds[var],
                    level if level <= n_common else None,
                    side if level <= n_common else None,
                )
            )

    used: set[str] = set()
    for equation in equations:
        used |= equation.variables()
    # Keep common-level pairs even when unused (direction queries); drop
    # other unused variables to keep problems small.
    kept = [
        v
        for v in variables
        if v.name in used or (v.level is not None and v.level <= n_common)
    ]
    problem = DependenceProblem(
        equations, kept, common_levels=n_common, assumptions=assumptions
    )
    return PairProblem(
        ref_a, ref_b, problem, n_common, len(equations), unknown, notes
    )

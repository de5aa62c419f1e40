"""Static semantic checks: rank, bounds, shadowing diagnostics.

The paper leans on the ANSI rule that subscripts stay within their declared
bounds ("subscript-out-of-range check is not performed by most C compilers
and this requirement is unknown to majority of users") — dependence
analysis is only meaningful for conforming programs.  This checker reports
the violations it can decide statically:

* references whose rank disagrees with the declaration (``DL002``);
* affine subscripts whose value range provably leaves the declared bounds,
  using the rectangularized iteration space (``DL003``/``DL004``/``DL005``);
* loop variables that shadow an outer loop's variable (``DL006``);
* loops whose (constant) ranges are empty (``DL007``).

Diagnostics are advisory: analysis remains sound for conforming programs,
and the checker is how a user finds out their program is not one.  Findings
are :class:`repro.lint.Diagnostic` values — coded, severity-tagged and
anchored to source spans when the program came from text — and are returned
in a deterministic order (by span, then code).
"""

from __future__ import annotations

from ..ir import If, Loop, Program, summarize, to_poly
from ..lint import codes
from ..lint.diagnostics import Diagnostic, sort_diagnostics
from ..symbolic import Assumptions, LinExpr, Poly
from .normalize import rectangular_bounds

__all__ = ["Diagnostic", "check_program"]


def check_program(
    program: Program, assumptions: Assumptions | None = None
) -> list[Diagnostic]:
    """Run all checks on a *normalized* program."""
    assumptions = assumptions or Assumptions.empty()
    diagnostics: list[Diagnostic] = []
    bounds = rectangular_bounds(program)
    _check_loops(program.body, set(), diagnostics)
    dims_of: dict[str, list] = {}  # each dimension with its bounds lowered
    for summary in summarize(program).statements:
        stmt = summary.stmt
        for ref in summary.refs:
            decl = program.array(ref.ref.array)
            if decl is None or not decl.dims:
                continue  # implicit array: nothing known to check against
            if ref.ref.rank != decl.rank:
                diagnostics.append(
                    Diagnostic.make(
                        codes.DL002,
                        f"{ref.ref}: rank {ref.ref.rank} does not match "
                        f"declared rank {decl.rank} of {decl.name}",
                        statement=stmt.label,
                        span=stmt.span,
                    )
                )
                continue
            if decl.name not in dims_of:
                dims_of[decl.name] = [
                    (dim, to_poly(dim.lower), to_poly(dim.upper))
                    for dim in decl.dims
                ]
            dims = zip(ref.forms, dims_of[decl.name])
            for dim_index, (form, dim) in enumerate(dims, start=1):
                _check_subscript_range(
                    stmt, ref.ref, dim_index, form, dim, bounds, assumptions,
                    diagnostics,
                )
    return sort_diagnostics(diagnostics)


def _check_loops(
    stmts: list, active: set[str], diagnostics: list[Diagnostic]
) -> None:
    for stmt in stmts:
        if isinstance(stmt, If):
            _check_loops(stmt.then_body, active, diagnostics)
            _check_loops(stmt.else_body, active, diagnostics)
            continue
        if not isinstance(stmt, Loop):
            continue
        if stmt.var in active:
            diagnostics.append(
                Diagnostic.make(
                    codes.DL006,
                    f"loop variable {stmt.var} shadows an enclosing loop",
                    span=stmt.span,
                )
            )
        upper = to_poly(stmt.upper)
        if upper is not None and upper.is_constant() and upper.as_int() < 0:
            diagnostics.append(
                Diagnostic.make(
                    codes.DL007,
                    f"loop {stmt.var}: empty range (upper bound {upper})",
                    span=stmt.span,
                )
            )
        _check_loops(stmt.body, active | {stmt.var}, diagnostics)


def _check_subscript_range(
    stmt,
    ref,
    dim_index: int,
    lowered: LinExpr | None,
    declared: tuple,
    bounds: dict[str, Poly],
    assumptions: Assumptions,
    diagnostics: list[Diagnostic],
) -> None:
    if lowered is None:
        return  # opaque subscript: not checkable
    dim, lower_decl, upper_decl = declared
    if lower_decl is None or upper_decl is None:
        return
    # Range of the subscript over the rectangular iteration space.
    minimum = lowered.const
    maximum = lowered.const
    for name, coeff in lowered.coeffs.items():
        bound = bounds.get(name)
        if bound is None or assumptions.is_nonneg(bound) is None:
            return
        sign = assumptions.sign(coeff)
        if sign is None:
            return
        if sign > 0:
            maximum = maximum + coeff * bound
        elif sign < 0:
            minimum = minimum + coeff * bound
    if assumptions.is_lt(maximum, lower_decl) or assumptions.is_lt(
        upper_decl, minimum
    ):
        diagnostics.append(
            Diagnostic.make(
                codes.DL003,
                f"{ref}: dimension {dim_index} never intersects its "
                f"declared bounds {dim}",
                statement=stmt.label,
                span=stmt.span,
            )
        )
        return
    if assumptions.is_lt(minimum, lower_decl):
        diagnostics.append(
            Diagnostic.make(
                codes.DL004,
                f"{ref}: dimension {dim_index} can underrun its declared "
                f"bounds {dim} (minimum {minimum})",
                statement=stmt.label,
                span=stmt.span,
            )
        )
    if assumptions.is_lt(upper_decl, maximum):
        diagnostics.append(
            Diagnostic.make(
                codes.DL005,
                f"{ref}: dimension {dim_index} can overrun its declared "
                f"bounds {dim} (maximum {maximum})",
                statement=stmt.label,
                span=stmt.span,
            )
        )

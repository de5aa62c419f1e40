"""Rendering a vectorization plan as FORTRAN-90-style source text.

Vector loops whose subscripts are affine in a single vector variable per
subscript position become array sections ``A(lo:hi:stride)``; vector loops
that cannot be expressed as sections (e.g. linearized subscripts combining
two vector variables in one position) are emitted as explicit ``DOALL``
loops — semantically a parallel loop, which is what the dependence analysis
licensed.  Serial loops stay ``DO``.
"""

from __future__ import annotations

from ..ir import (
    BinOp,
    Call,
    CallStmt,
    Expr,
    Loop,
    UnaryOp,
    substitute_name,
    summarize,
    to_linexpr,
    to_poly,
)
from ..ir.expr import ArrayRef
from ..ir.fold import fold, poly_to_expr, simplify
from ..ir.summary import ProgramSummary, StmtSummary
from ..symbolic import LinExpr, Poly
from .allen_kennedy import VectorizationResult, VectorLoop


def emit_program(result: VectorizationResult, indent: str = "  ") -> str:
    """Render the full transformed program (declarations + schedule)."""
    lines: list[str] = []
    for decl in result.program.decls.values():
        if not decl.dims:
            continue  # implicit declaration: shape unknown
        dims = ", ".join(str(d) for d in decl.dims)
        lines.append(f"{decl.elem_type} {decl.name}({dims})")
    summary = summarize(result.program)
    lines.extend(_emit_nodes(result.schedule, 0, indent, summary))
    return "\n".join(lines) + "\n"


def _emit_nodes(
    nodes: list, depth: int, indent: str, summary: ProgramSummary
) -> list[str]:
    lines: list[str] = []
    pad = indent * depth
    for node in nodes:
        if node[0] == "loop":
            _, loop, _level, children = node
            lines.append(pad + f"DO {loop.var} = {loop.lower}, {loop.upper}")
            lines.extend(_emit_nodes(children, depth + 1, indent, summary))
            lines.append(pad + "ENDDO")
        elif node[0] == "if":
            _, stmt, then_children, else_children = node
            lines.append(pad + f"IF ({stmt.cond}) THEN")
            lines.extend(
                _emit_nodes(then_children, depth + 1, indent, summary)
            )
            if else_children:
                lines.append(pad + "ELSE")
                lines.extend(
                    _emit_nodes(else_children, depth + 1, indent, summary)
                )
            lines.append(pad + "ENDIF")
        else:
            _, entry = node
            lines.extend(
                _emit_statement(entry, depth, indent, summary.of(entry.stmt))
            )
    return lines


def _emit_statement(
    entry: VectorLoop, depth: int, indent: str, summary: StmtSummary
) -> list[str]:
    pad = indent * depth
    if isinstance(entry.stmt, CallStmt):
        label = f"  ! {entry.stmt.label}" if entry.stmt.label else ""
        return [f"{pad}{entry.stmt}{label}"]
    vector_vars = {
        entry.loops[level - 1].var: entry.loops[level - 1]
        for level in entry.vector_levels
    }
    sectionable = _sectionable_vars(summary, set(vector_vars))
    doall_vars = [v for v in vector_vars if v not in sectionable]

    lines = []
    extra = 0
    for var in doall_vars:
        loop = vector_vars[var]
        lines.append(
            (pad + indent * extra)
            + f"DOALL {loop.var} = {loop.lower}, {loop.upper}"
        )
        extra += 1
    body_pad = pad + indent * extra
    sections = {
        var: vector_vars[var] for var in sectionable if var in vector_vars
    }
    refs = {id(ref.ref): ref for ref in summary.refs}
    lhs = _render(entry.stmt.lhs, sections, refs)
    rhs = _render(entry.stmt.rhs, sections, refs)
    label = f"  ! {entry.stmt.label}" if entry.stmt.label else ""
    lines.append(f"{body_pad}{lhs} = {rhs}{label}")
    for _ in doall_vars:
        extra -= 1
        lines.append((pad + indent * extra) + "ENDDO")
    return lines


def _sectionable_vars(summary: StmtSummary, vector_vars: set[str]) -> set[str]:
    """Vector variables expressible as array sections in this statement.

    A variable qualifies when every subscript mentioning it is affine and
    mentions no *other* vector variable (one vector variable per subscript
    position).  Scalar assignments cannot take sections.
    """
    if not isinstance(summary.stmt.lhs, ArrayRef):
        return set()
    good = set(vector_vars)
    for ref in summary.refs:
        for sub, form, names in zip(ref.ref.subscripts, ref.forms, ref.names):
            mentioned = names & vector_vars
            # Affine over all loop variables implies affine over a subset
            # with the same coefficients: only a subscript that is not, such
            # as i*j with j serial, is lowered again.
            if len(mentioned) > 1 or (
                mentioned
                and form is None
                and to_linexpr(sub, mentioned) is None
            ):
                good -= mentioned
    # RHS scalar names are fine (broadcast); vector vars appearing outside
    # any subscript (e.g. X(i) = i) cannot be sectioned.
    return good - summary.bare


def _render(expr: Expr, sections: dict[str, Loop], refs: dict) -> str:
    if isinstance(expr, ArrayRef):
        ref = refs[id(expr)]
        rendered = []
        for sub, form, names in zip(expr.subscripts, ref.forms, ref.names):
            mentioned = names & set(sections)
            if mentioned:
                (var,) = mentioned
                rendered.append(_section(sub, form, sections[var]))
            else:
                rendered.append(str(fold(sub)))
        return f"{expr.array}({', '.join(rendered)})"
    if isinstance(expr, BinOp):
        left = _render(expr.left, sections, refs)
        right = _render(expr.right, sections, refs)
        return f"{left}{expr.op}{right}" if _simple(expr) else f"({left}){expr.op}({right})"
    if isinstance(expr, UnaryOp):
        return f"-{_render(expr.operand, sections, refs)}"
    if isinstance(expr, Call):
        args = ", ".join(_render(a, sections, refs) for a in expr.args)
        return f"{expr.func}({args})"
    return str(expr)


def _simple(expr: BinOp) -> bool:
    return not (
        isinstance(expr.left, BinOp)
        and expr.op in ("*", "/")
        or isinstance(expr.right, BinOp)
        and expr.op in ("*", "/", "-")
    )


def _section(sub: Expr, form: LinExpr | None, loop: Loop) -> str:
    """Render ``sub`` over the loop range as ``lo:hi[:stride]``."""
    first = _at(sub, form, loop.var, loop.lower)
    last = _at(sub, form, loop.var, loop.upper)
    lowered = form if form is not None else to_linexpr(sub, {loop.var})
    stride = lowered.coeff(loop.var) if lowered is not None else None
    if stride is not None and stride.is_constant():
        value = stride.as_int()
        if value != 1:
            # Iteration order is preserved: a descending subscript emits a
            # reversed range with its negative stride (D(9:0:-1)).
            return f"{first}:{last}:{value}"
    return f"{first}:{last}"


def _at(sub: Expr, form: LinExpr | None, var: str, value: Expr) -> Expr:
    """``sub`` with ``var := value``, simplified.

    The stored affine form gives the polynomial that ``simplify`` would
    build from the substituted tree (every other name a symbol); a
    subscript without one, or a bound that does not lower, is substituted
    and simplified as a tree.
    """
    bound = to_poly(value) if form is not None else None
    if bound is None:
        return simplify(substitute_name(sub, var, value))
    poly = form.const + form.coeff(var) * bound
    for name, coeff in form.coeffs.items():
        if name != var:
            poly = poly + coeff * Poly.symbol(name)
    return poly_to_expr(poly)

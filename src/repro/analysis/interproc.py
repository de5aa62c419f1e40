"""Interprocedural summaries and parameter-alias analysis for CALL sites.

FORTRAN passes every argument by reference, so a CALL is a bundle of array
accesses happening in the caller's storage: ``CALL UPD(A, B, I)`` against
``SUBROUTINE UPD(X, Y, K)`` with body ``X(K) = Y(K) + 1`` writes ``A(I)``
and reads ``B(I)``.  This module computes, per subroutine, a *mod/ref +
subscript-translation summary* (:func:`summarize_subroutine`) and applies it
at each call site (:func:`resolve_calls`), materializing the translated
references onto :attr:`repro.ir.CallStmt.resolved_refs` where the dependence
machinery picks them up like any other reference.

Translation is exact when a summarized subscript uses only scalar formals
and constants — substituting the actual argument expressions then yields a
caller-scope affine subscript (``X(K)`` -> ``A(I)`` above).  Anything else
(callee loop variables, mutated formals, nested CALLs, unknown callees)
degrades to a *whole-array* reference with opaque subscripts: they lower to
``None`` in :func:`repro.ir.to_linexpr`, so every pair involving them gets
the sound assumed all-``*`` edge.  Degradations are RS-coded; aliasing
findings are AL-coded:

* ``AL001`` — a CALL provably associates two formals with one caller array
  (same name, or EQUIVALENCE-associated) and at least one is written;
* ``AL002`` — a call's effect on an array could not be translated exactly,
  so possible aliasing forces conservative whole-array edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..ir import (
    ArrayRef,
    Assignment,
    BinOp,
    Call,
    CallStmt,
    Expr,
    If,
    IntLit,
    Loop,
    Name,
    Program,
    Stmt,
    Subroutine,
    UnaryOp,
    substitute_name,
)
from ..ir.fold import fold, simplify_deep
from ..lint import codes
from ..lint.diagnostics import Diagnostic, sort_diagnostics
from .linearize import alias_groups

__all__ = [
    "ArrayAccess",
    "SubroutineSummary",
    "ensure_calls_resolved",
    "resolve_calls",
    "summarize_subroutine",
]

#: Function name marking an opaque ("any element") subscript; it never
#: lowers to a linear expression, so such references always pair up as
#: assumed all-``*`` dependences.
OPAQUE_SUBSCRIPT = "_any"


@dataclass(frozen=True)
class ArrayAccess:
    """One summarized array access through a formal parameter.

    ``subscripts`` is ``None`` for a whole-array (opaque) access; otherwise
    it is the access's subscript tuple *in callee terms*, guaranteed to
    mention scalar formals and constants only.
    """

    formal: str
    subscripts: tuple[Expr, ...] | None
    is_write: bool


@dataclass(frozen=True)
class SubroutineSummary:
    """Mod/ref + subscript-translation summary of one subroutine."""

    name: str
    params: tuple[str, ...]
    #: Formals (scalar or array) the subroutine may write.
    mod: frozenset[str]
    #: Formals the subroutine may read.
    ref: frozenset[str]
    #: Array accesses through array formals, in deterministic body order.
    accesses: tuple[ArrayAccess, ...]
    #: False when the body defeated summarization (nested CALLs); every
    #: array formal is then an opaque read+write access.
    exact: bool = True


def summarize_subroutine(sub: Subroutine) -> SubroutineSummary:
    """Compute the mod/ref and access summary of one subroutine body."""
    params = set(sub.params)
    scan = _BodyScan(params, {p for p in params if p in sub.decls})
    scan.visit(sub.body)
    mod, ref, accesses = scan.mod, scan.ref, scan.accesses
    if not scan.exact:
        mod |= params
        ref |= params
        accesses = [
            ArrayAccess(formal, None, is_write)
            for formal in sub.params
            if formal in scan.array_formals
            for is_write in (False, True)
        ]
    else:
        # A scalar formal mutated before an access invalidates substituting
        # its actual expression: degrade the accesses that read it.
        accesses = [
            access
            if access.subscripts is None
            or not any(
                name in mod
                for sub_expr in access.subscripts
                for name in sub_expr.names()
            )
            else ArrayAccess(access.formal, None, access.is_write)
            for access in accesses
        ]
    return SubroutineSummary(
        sub.name,
        sub.params,
        frozenset(mod),
        frozenset(ref),
        tuple(accesses),
        scan.exact,
    )


class _BodyScan:
    """What a subroutine body reads and writes through its formals.
    (Methods, not closures: a recursive closure is a reference cycle that
    would keep the body's accesses alive until the next collection.)"""

    def __init__(self, params: set[str], array_formals: set[str]):
        self.array_formals = array_formals
        self.scalar_formals = params - array_formals
        self.mod: set[str] = set()
        self.ref: set[str] = set()
        self.accesses: list[ArrayAccess] = []
        self.exact = True

    def visit(self, stmts: Iterable[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assignment):
                if isinstance(stmt.lhs, Name):
                    if stmt.lhs.name in self.scalar_formals:
                        self.mod.add(stmt.lhs.name)
                elif isinstance(stmt.lhs, ArrayRef):
                    self.note_array_ref(stmt.lhs, is_write=True)
                    for sub_expr in stmt.lhs.subscripts:
                        self.note_expr_reads(sub_expr)
                self.note_expr_reads(stmt.rhs)
            elif isinstance(stmt, Loop):
                for expr in (stmt.lower, stmt.upper, stmt.step):
                    self.note_expr_reads(expr)
                self.visit(stmt.body)
            elif isinstance(stmt, If):
                self.note_expr_reads(stmt.cond)
                self.visit(stmt.then_body)
                self.visit(stmt.else_body)
            else:
                # Nested calls defeat one-level summarization.
                self.exact = False

    def note_expr_reads(self, expr: Expr) -> None:
        for node in expr.walk():
            if isinstance(node, Name) and node.name in self.scalar_formals:
                self.ref.add(node.name)
        for node in expr.walk():
            if isinstance(node, ArrayRef):
                self.note_array_ref(node, is_write=False)

    def note_array_ref(self, expr_ref: ArrayRef, is_write: bool) -> None:
        if expr_ref.array not in self.array_formals:
            return  # callee-local storage: invisible to the caller
        self.accesses.append(
            ArrayAccess(
                expr_ref.array,
                self.classify_subscripts(expr_ref.subscripts),
                is_write,
            )
        )
        (self.mod if is_write else self.ref).add(expr_ref.array)

    def classify_subscripts(
        self, subscripts: tuple[Expr, ...]
    ) -> tuple[Expr, ...] | None:
        """Exact subscripts, or None when translation must go opaque."""
        for sub_expr in subscripts:
            for node in sub_expr.walk():
                if isinstance(node, Name):
                    if node.name not in self.scalar_formals:
                        return None  # callee-local / loop variable
                elif not isinstance(node, (IntLit, BinOp, UnaryOp)):
                    return None  # nested call, deref, array ref...
        return subscripts


def resolve_calls(program: Program) -> list[Diagnostic]:
    """Fill ``resolved_refs`` on every CALL; return AL/RS diagnostics.

    Safe to run on any program shape (raw, normalized, rewritten); the
    translation only depends on each call's argument expressions and the
    callee summaries.  Re-running overwrites previous resolutions.
    """
    summaries = {
        name: summarize_subroutine(sub)
        for name, sub in program.subroutines.items()
    }
    groups = alias_groups(program)
    group_of: dict[str, int] = {}
    for index, group in enumerate(groups):
        for member in group:
            group_of[member] = index
    diagnostics: list[Diagnostic] = []
    for stmt, _loops in program.walk_statements():
        if isinstance(stmt, CallStmt):
            diagnostics.extend(
                _resolve_one(stmt, program, summaries, group_of)
            )
    return sort_diagnostics(diagnostics)


def ensure_calls_resolved(program: Program) -> list[Diagnostic]:
    """Idempotent :func:`resolve_calls`: no-op when already resolved."""
    calls = [
        stmt
        for stmt, _loops in program.walk_statements()
        if isinstance(stmt, CallStmt)
    ]
    if not calls:
        return []
    if all(stmt.resolved_refs is not None for stmt in calls):
        return []
    return resolve_calls(program)


def _opaque_ref(program: Program, array: str) -> ArrayRef:
    """A whole-array reference: one opaque subscript per declared dimension."""
    decl = program.array(array)
    rank = decl.rank if decl is not None and decl.dims else 1
    return ArrayRef(
        array,
        tuple(Call(OPAQUE_SUBSCRIPT, (IntLit(d),)) for d in range(1, rank + 1)),
    )


def _base_array(program: Program, arg: Expr) -> str | None:
    """The caller array an argument expression associates with, if any."""
    if isinstance(arg, Name) and program.array(arg.name) is not None:
        return arg.name
    if isinstance(arg, ArrayRef):
        return arg.array
    return None


def _conservative_refs(
    stmt: CallStmt, program: Program
) -> list[tuple[ArrayRef, bool]]:
    """Whole-array read+write for every array argument (unknown callee)."""
    refs: list[tuple[ArrayRef, bool]] = []
    for arg in stmt.args:
        base = _base_array(program, arg)
        if base is None:
            continue
        opaque = _opaque_ref(program, base)
        refs.append((opaque, False))
        refs.append((opaque, True))
    return refs


def _resolve_one(
    stmt: CallStmt,
    program: Program,
    summaries: dict[str, SubroutineSummary],
    group_of: dict[str, int],
) -> list[Diagnostic]:
    summary = summaries.get(stmt.name)
    if summary is None or len(stmt.args) != len(summary.params):
        stmt.resolved_refs = _conservative_refs(stmt, program)
        reason = (
            "no subroutine definition"
            if summary is None
            else f"arity mismatch ({len(stmt.args)} arguments, "
            f"{len(summary.params)} formals)"
        )
        return [
            Diagnostic.make(
                codes.RS003,
                f"CALL {stmt.name}: {reason}; assuming every array "
                f"argument is read and written",
                statement=stmt.label,
                span=stmt.span,
            )
        ]
    sub = program.subroutines[stmt.name]
    actual_of = dict(zip(summary.params, stmt.args))
    diagnostics: list[Diagnostic] = []
    refs: list[tuple[ArrayRef, bool]] = []
    seen: set[tuple[ArrayRef, bool]] = set()
    opaque_arrays: list[str] = []

    def emit(ref: ArrayRef, is_write: bool) -> None:
        key = (ref, is_write)
        if key not in seen:
            seen.add(key)
            refs.append((ref, is_write))

    for access in summary.accesses:
        actual = actual_of[access.formal]
        base = _base_array(program, actual)
        if base is None:
            # An expression actual cannot associate with an array formal;
            # there is no caller storage to record.
            continue
        translated = _translate_access(
            access, actual, sub, actual_of, summary
        )
        if translated is None:
            opaque = _opaque_ref(program, base)
            if base not in opaque_arrays:
                opaque_arrays.append(base)
            emit(opaque, access.is_write)
        else:
            emit(translated, access.is_write)
    stmt.resolved_refs = refs

    for array in opaque_arrays:
        diagnostics.append(
            Diagnostic.make(
                codes.AL002,
                f"CALL {stmt.name}: effect on {array} not exactly "
                f"translatable; conservative whole-array edges assumed",
                statement=stmt.label,
                span=stmt.span,
            )
        )
    diagnostics.extend(_alias_findings(stmt, summary, program, group_of))
    return diagnostics


def _translate_access(
    access: ArrayAccess,
    actual: Expr,
    sub: Subroutine,
    actual_of: dict[str, Expr],
    summary: SubroutineSummary,
) -> ArrayRef | None:
    """The caller-scope reference of one summarized access, or None."""
    if access.subscripts is None:
        return None
    substituted = []
    for sub_expr in access.subscripts:
        expr = sub_expr
        for formal in summary.params:
            if formal in sub.decls:
                continue  # array formals cannot appear in exact subscripts
            expr = substitute_name(expr, formal, actual_of[formal])
        substituted.append(simplify_deep(expr))
    if isinstance(actual, Name):
        return ArrayRef(actual.name, tuple(substituted))
    if isinstance(actual, ArrayRef):
        # Element-base association: X(k) over CALL(A(e)) reads A(e + k - lo).
        decl = sub.decls.get(access.formal)
        if (
            len(actual.subscripts) != 1
            or len(substituted) != 1
            or decl is None
            or len(decl.dims) != 1
        ):
            return None
        lower = decl.dims[0].lower
        shifted = fold(actual.subscripts[0] + (substituted[0] - lower))
        return ArrayRef(actual.array, (shifted,))
    return None


def _alias_findings(
    stmt: CallStmt,
    summary: SubroutineSummary,
    program: Program,
    group_of: dict[str, int],
) -> list[Diagnostic]:
    """AL001 for provably aliased array formals at this call."""
    diagnostics: list[Diagnostic] = []
    bases: list[tuple[str, str]] = []  # (formal, caller base array)
    actual_of = dict(zip(summary.params, stmt.args))
    for formal in summary.params:
        base = _base_array(program, actual_of[formal])
        if base is not None and formal in (summary.mod | summary.ref):
            bases.append((formal, base))
    for i, (formal_a, base_a) in enumerate(bases):
        for formal_b, base_b in bases[i + 1 :]:
            same = base_a == base_b or (
                base_a in group_of
                and group_of.get(base_a) == group_of.get(base_b)
            )
            if not same:
                continue
            if formal_a in summary.mod or formal_b in summary.mod:
                how = (
                    "the same array"
                    if base_a == base_b
                    else f"EQUIVALENCE-associated storage ({base_a}, {base_b})"
                )
                diagnostics.append(
                    Diagnostic.make(
                        codes.AL001,
                        f"CALL {stmt.name}: formals {formal_a} and "
                        f"{formal_b} are associated with {how} and at "
                        f"least one is written",
                        statement=stmt.label,
                        span=stmt.span,
                    )
                )
    return diagnostics


"""Multi-loop induction variable recognition and substitution.

The paper's BOAST fragment::

    IB = -1
    DO 1 I = 0, II-1
    DO 1 J = 0, JJ-1
    DO 1 K = 0, KK-1
        IB = IB + 1
        C(J) = C(J) + 1
    1   B(IB) = B(IB) + Q

has an induction variable controlled by *three* loops.  "Existing techniques
treat it as controlled by only the innermost loop"; recognizing all three
controlling loops lets ``IB`` be replaced by its closed form
``K + J*KK + I*KK*JJ`` — a linearized subscript that delinearization then
splits back into dimensions.

Recognition pattern (on a *normalized* program):

* an initialization ``v = c0`` directly preceding a loop nest;
* exactly one update ``v = v + c`` (or ``v = c + v``) in the innermost body
  of a perfectly nested path of that nest, with ``c`` loop-invariant;
* no other assignment to ``v`` anywhere;
* every enclosing loop's trip count is loop-invariant (guaranteed after
  rectangularization of bounds — symbolic bounds are fine).

The closed form at the update point (after executing it) is::

    v = c0 + c * (1 + k + sum_l x_l * prod_{inner of l} trip)

Uses of ``v`` textually after the update inside the innermost body see that
value; uses before it see one ``c`` less.  Both the initialization and the
update statement are removed from the rewritten program, so a variable read
after the nest is left as written.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import (
    Assignment,
    BinOp,
    CallStmt,
    Expr,
    If,
    IntLit,
    Loop,
    Name,
    Program,
    Stmt,
    substitute_name,
)
from ..ir.fold import fold, simplify, simplify_deep


@dataclass
class InductionVariable:
    """A recognized multi-loop induction variable."""

    name: str
    init: Expr
    step: Expr
    loops: tuple[Loop, ...]  # controlling loops, outermost first
    update_index: int  # position of the update in the innermost body

    @property
    def depth(self) -> int:
        return len(self.loops)


def find_induction_variables(program: Program) -> list[InductionVariable]:
    """Recognize induction variables of the supported pattern."""
    out: list[InductionVariable] = []
    assignment_counts = _scalar_assignment_counts(program)
    body = program.body
    for index, stmt in enumerate(body):
        if not isinstance(stmt, Assignment) or not isinstance(stmt.lhs, Name):
            continue
        name = stmt.lhs.name
        if index + 1 >= len(body) or not isinstance(body[index + 1], Loop):
            continue
        if assignment_counts.get(name, 0) != 2:  # init + single update
            continue
        found = _find_update(body[index + 1], name, ())
        if found is None:
            continue
        loops, update_index, step = found
        if any(name in _expr_names(loop.upper) for loop in loops):
            continue
        out.append(
            InductionVariable(name, stmt.rhs, step, loops, update_index)
        )
    return out


def _find_update(
    loop: Loop, name: str, outer: tuple[Loop, ...]
) -> tuple[tuple[Loop, ...], int, Expr] | None:
    """Locate the unique ``v = v + c`` update beneath ``loop``."""
    loops = outer + (loop,)
    for index, stmt in enumerate(loop.body):
        if isinstance(stmt, Loop):
            found = _find_update(stmt, name, loops)
            if found is not None:
                return found
        elif isinstance(stmt, Assignment):
            step = _match_update(stmt, name)
            if step is not None:
                return loops, index, step
    return None


def _match_update(stmt: Assignment, name: str) -> Expr | None:
    if not isinstance(stmt.lhs, Name) or stmt.lhs.name != name:
        return None
    rhs = stmt.rhs
    if isinstance(rhs, BinOp) and rhs.op == "+":
        if isinstance(rhs.left, Name) and rhs.left.name == name:
            return rhs.right if name not in _expr_names(rhs.right) else None
        if isinstance(rhs.right, Name) and rhs.right.name == name:
            return rhs.left if name not in _expr_names(rhs.left) else None
    return None


def substitute_induction_variables(program: Program) -> Program:
    """Rewrite recognized induction variables to closed form.

    The program must be normalized (loops 0..U step 1).  Unsupported uses
    (outside the innermost body of the recognized nest) leave the variable
    untouched.
    """
    if not find_induction_variables(program):
        return program
    rewritten = Program(
        decls=dict(program.decls),
        equivalences=list(program.equivalences),
        body=_deep_copy_stmts(program.body),
        name=program.name,
        commons=list(program.commons),
        subroutines=dict(program.subroutines),
    )
    # Re-recognize on the copy so loop references point into it.
    ivs = find_induction_variables(rewritten)
    for iv in ivs:
        if not _uses_confined_to_innermost(iv) or _read_after_nest(
            rewritten.body, iv
        ):
            continue
        closed_after = _closed_form(iv, after_update=True)
        closed_before = _closed_form(iv, after_update=False)
        innermost = iv.loops[-1]
        new_body: list[Stmt] = []
        for index, stmt in enumerate(innermost.body):
            if index == iv.update_index:
                continue  # drop the update
            replacement = closed_after if index > iv.update_index else closed_before
            if isinstance(stmt, Assignment):
                new_body.append(
                    Assignment(
                        simplify_deep(
                            substitute_name(stmt.lhs, iv.name, replacement)
                        ),
                        simplify_deep(
                            substitute_name(stmt.rhs, iv.name, replacement)
                        ),
                        stmt.label,
                        span=stmt.span,
                    )
                )
            else:
                new_body.append(stmt)
        innermost.body[:] = new_body
        rewritten.body = [
            s
            for s in rewritten.body
            if not (
                isinstance(s, Assignment)
                and isinstance(s.lhs, Name)
                and s.lhs.name == iv.name
                and s.rhs is iv.init
            )
        ]
    rewritten.number_statements()
    return rewritten


def _closed_form(iv: InductionVariable, after_update: bool) -> Expr:
    """``init + step * (executions so far)`` as an expression."""
    executed: Expr = IntLit(1) if after_update else IntLit(0)
    # Iterations completed before (x_1, ..., x_d): sum of x_l * inner trips.
    for level, loop in enumerate(iv.loops):
        factor: Expr = Name(loop.var)
        for inner in iv.loops[level + 1 :]:
            trips = BinOp("+", inner.upper, IntLit(1))
            factor = BinOp("*", factor, trips)
        executed = BinOp("+", executed, factor)
    value = BinOp("+", iv.init, BinOp("*", iv.step, executed))
    return simplify(value)


def _uses_confined_to_innermost(iv: InductionVariable) -> bool:
    """Check no use of the variable escapes the innermost loop body.

    Uses under control flow (IF branches, CALL arguments) are never
    substituted, so any such mention anywhere in the nest disqualifies the
    variable.
    """
    for level, loop in enumerate(iv.loops):
        for stmt in loop.body:
            if isinstance(stmt, (If, CallStmt)) and _stmt_mentions(
                stmt, iv.name
            ):
                return False
            if isinstance(stmt, Loop):
                continue
            if level == len(iv.loops) - 1:
                continue  # innermost body handled by substitution
            if isinstance(stmt, Assignment) and iv.name in (
                _expr_names(stmt.lhs) | _expr_names(stmt.rhs)
            ):
                return False
    return True


def _read_after_nest(body: list[Stmt], iv: InductionVariable) -> bool:
    """Does a statement after the nest mention the variable?  Substitution
    drops the update, so such a read would see no value."""
    nest = next(i for i, stmt in enumerate(body) if stmt is iv.loops[0])
    return any(_stmt_mentions(stmt, iv.name) for stmt in body[nest + 1 :])


def _stmt_mentions(stmt: Stmt, name: str) -> bool:
    if isinstance(stmt, Assignment):
        return name in (_expr_names(stmt.lhs) | _expr_names(stmt.rhs))
    if isinstance(stmt, CallStmt):
        return any(name in _expr_names(a) for a in stmt.args)
    if isinstance(stmt, If):
        if name in _expr_names(stmt.cond):
            return True
        return any(
            _stmt_mentions(s, name)
            for s in (*stmt.then_body, *stmt.else_body)
        )
    if isinstance(stmt, Loop):
        if name in (_expr_names(stmt.lower) | _expr_names(stmt.upper)):
            return True
        return any(_stmt_mentions(s, name) for s in stmt.body)
    return False


def _deep_copy_stmts(stmts: list[Stmt]) -> list[Stmt]:
    out: list[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, Loop):
            out.append(
                Loop(
                    stmt.var,
                    stmt.lower,
                    stmt.upper,
                    _deep_copy_stmts(stmt.body),
                    stmt.step,
                    span=stmt.span,
                )
            )
        elif isinstance(stmt, Assignment):
            out.append(Assignment(stmt.lhs, stmt.rhs, stmt.label, span=stmt.span))
        elif isinstance(stmt, If):
            out.append(
                If(
                    stmt.cond,
                    _deep_copy_stmts(stmt.then_body),
                    _deep_copy_stmts(stmt.else_body),
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


def _scalar_assignment_counts(program: Program) -> dict[str, int]:
    counts: dict[str, int] = {}
    for stmt in program.assignments():
        if isinstance(stmt.lhs, Name):
            counts[stmt.lhs.name] = counts.get(stmt.lhs.name, 0) + 1
    return counts


def _expr_names(expr: Expr) -> set[str]:
    return expr.names()

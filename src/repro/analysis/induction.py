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
  of a perfectly nested path of that nest;
* no other assignment to ``v`` anywhere;
* ``c0`` (apart from ``v``), ``c`` and the upper bounds of the controlling
  loops inside the outermost one read no variable of the nest's loops and
  no scalar the nest assigns (its loop table): the closed form reads
  them anywhere in the nest.  Symbolic parameters are fine; a loop-variant
  step or a triangular nest is left alone.

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
    loop_table,
    rewrite_statements,
    substitute_name,
)
from ..ir.fold import simplify, simplify_deep


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
        # The closed form reads the init, the step and the inner trip
        # counts anywhere in the nest, so none of them may change there:
        # no loop variable of the nest, no scalar it assigns.
        varying = loop_table([loops[0]]).assigned
        reads = (stmt.rhs.names() - {name}) | step.names()
        for loop in loops[1:]:
            reads |= loop.upper.names()
        if name in loops[0].upper.names() or reads & varying:
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
            return rhs.right if name not in rhs.right.names() else None
        if isinstance(rhs.right, Name) and rhs.right.name == name:
            return rhs.left if name not in rhs.left.names() else None
    return None


def substitute_induction_variables(program: Program) -> Program:
    """Rewrite recognized induction variables to closed form.

    The program must be normalized (loops 0..U step 1).  Unsupported uses
    (outside the innermost body of the recognized nest) leave the variable
    untouched; a program in which nothing is substituted is returned as is.
    """
    body = program.body
    ivs = [
        iv
        for iv in find_induction_variables(program)
        if _uses_confined_to_innermost(iv) and not _read_after_nest(body, iv)
    ]
    if not ivs:
        return program
    # One variable per nest: its initialization directly precedes it.
    inits = {id(body[_nest_index(body, iv) - 1]) for iv in ivs}
    of_innermost = {id(iv.loops[-1]): iv for iv in ivs}

    def substitute(loop: Loop) -> Loop | None:
        iv = of_innermost.get(id(loop))
        if iv is None:
            return None
        before = loop.body[: iv.update_index]
        after = loop.body[iv.update_index + 1 :]  # the update is dropped
        closed_before = _closed_form(iv, after_update=False)
        closed_after = _closed_form(iv, after_update=True)
        new_body = [
            *_substitute(before, iv.name, closed_before),
            *_substitute(after, iv.name, closed_after),
        ]
        return Loop(
            loop.var, loop.lower, loop.upper, new_body, loop.step,
            span=loop.span,
        )

    kept = [stmt for stmt in body if id(stmt) not in inits]
    return program.with_body(rewrite_statements(kept, loop=substitute))


def _substitute(stmts: list[Stmt], name: str, value: Expr) -> list[Stmt]:
    return rewrite_statements(
        stmts, lambda expr: simplify_deep(substitute_name(expr, name, value))
    )


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

    Any other statement of an enclosing loop, a sibling loop included,
    would read the variable after its update is dropped.  Uses under
    control flow (IF branches, CALL arguments) are never substituted, so
    any such mention anywhere in the nest disqualifies the variable.
    """
    last = len(iv.loops) - 1
    for level, loop in enumerate(iv.loops):
        for stmt in loop.body:
            substituted = level == last and not isinstance(stmt, (If, CallStmt))
            on_path = level < last and stmt is iv.loops[level + 1]
            if not (substituted or on_path) and _stmt_mentions(stmt, iv.name):
                return False
    return True


def _read_after_nest(body: list[Stmt], iv: InductionVariable) -> bool:
    """Does a statement after the nest mention the variable?  Substitution
    drops the update, so such a read would see no value."""
    nest = _nest_index(body, iv)
    return any(_stmt_mentions(stmt, iv.name) for stmt in body[nest + 1 :])


def _nest_index(body: list[Stmt], iv: InductionVariable) -> int:
    return next(i for i, stmt in enumerate(body) if stmt is iv.loops[0])


def _stmt_mentions(stmt: Stmt, name: str) -> bool:
    if isinstance(stmt, Assignment):
        return name in stmt.lhs.names() or name in stmt.rhs.names()
    if isinstance(stmt, CallStmt):
        return any(name in a.names() for a in stmt.args)
    if isinstance(stmt, If):
        if name in stmt.cond.names():
            return True
        return any(
            _stmt_mentions(s, name)
            for s in (*stmt.then_body, *stmt.else_body)
        )
    if isinstance(stmt, Loop):
        if name in stmt.lower.names() or name in stmt.upper.names():
            return True
        return any(_stmt_mentions(s, name) for s in stmt.body)
    return False


def _scalar_assignment_counts(program: Program) -> dict[str, int]:
    counts: dict[str, int] = {}
    for stmt in program.assignments():
        if isinstance(stmt.lhs, Name):
            counts[stmt.lhs.name] = counts.get(stmt.lhs.name, 0) + 1
    return counts

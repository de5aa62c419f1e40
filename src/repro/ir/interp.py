"""A reference interpreter for the loop-nest IR.

Executes programs over a concrete memory (one dict per array, keyed by
subscript tuples), with FORTRAN semantics: inclusive DO bounds, truncating
integer division, reads of never-written cells defaulting to zero.

Purpose: *semantic validation*.  The vectorizer's output is checked against
this interpreter (see :mod:`repro.vectorizer.execute`): whatever the
dependence analysis licensed must leave memory byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .expr import (
    ArrayRef,
    BinOp,
    Call,
    Compare,
    Deref,
    Expr,
    IntLit,
    Name,
    UnaryOp,
    _COMPARISONS,
    map_expr,
)
from .nodes import (
    Assignment,
    CallStmt,
    If,
    Loop,
    Program,
    Stmt,
    Subroutine,
    rewrite_statements,
)


class InterpreterError(Exception):
    """The program cannot be executed (opaque call, missing value...)."""


@dataclass
class Store:
    """Concrete memory: arrays plus scalar bindings.

    When ``trace`` is set, every array access is appended to it as
    ``(statement label, "r" | "w", array, indices)`` — the raw material the
    dependence-oracle tests pair up into empirically observed dependences.
    """

    arrays: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)
    scalars: dict[str, int] = field(default_factory=dict)
    trace: list | None = field(default=None, repr=False, compare=False)
    current_label: str | None = field(default=None, repr=False, compare=False)

    def read(self, array: str, indices: tuple[int, ...]) -> int:
        if self.trace is not None:
            self.trace.append((self.current_label, "r", array, indices))
        return self.arrays.get(array, {}).get(indices, 0)

    def write(self, array: str, indices: tuple[int, ...], value: int) -> None:
        if self.trace is not None:
            self.trace.append((self.current_label, "w", array, indices))
        self.arrays.setdefault(array, {})[indices] = value

    def snapshot(self) -> dict[str, dict[tuple[int, ...], int]]:
        return {
            name: dict(cells) for name, cells in self.arrays.items() if cells
        }


def run_program(
    program: Program,
    env: Mapping[str, int] | None = None,
    max_steps: int = 2_000_000,
    trace: list | None = None,
) -> Store:
    """Execute a program; ``env`` supplies symbolic parameters/initials."""
    store = Store(scalars=dict(env or {}), trace=trace)
    budget = [max_steps]
    _exec_stmts(program.body, store, {}, budget, program.subroutines)
    return store


def _exec_stmts(
    stmts: list[Stmt],
    store: Store,
    loops: dict[str, int],
    budget: list[int],
    subroutines: Mapping[str, Subroutine],
) -> None:
    for stmt in stmts:
        if isinstance(stmt, Loop):
            lower = eval_expr(stmt.lower, store, loops)
            upper = eval_expr(stmt.upper, store, loops)
            step = eval_expr(stmt.step, store, loops)
            if step <= 0:
                raise InterpreterError(f"loop {stmt.var}: step {step}")
            value = lower
            while value <= upper:
                _exec_stmts(
                    stmt.body, store, {**loops, stmt.var: value}, budget,
                    subroutines,
                )
                value += step
        elif isinstance(stmt, If):
            if eval_expr(stmt.cond, store, loops) != 0:
                _exec_stmts(stmt.then_body, store, loops, budget, subroutines)
            else:
                _exec_stmts(stmt.else_body, store, loops, budget, subroutines)
        elif isinstance(stmt, CallStmt):
            budget[0] -= 1
            if budget[0] < 0:
                raise InterpreterError("step budget exceeded")
            execute_call(stmt, store, loops, budget, subroutines)
        elif isinstance(stmt, Assignment):
            budget[0] -= 1
            if budget[0] < 0:
                raise InterpreterError("step budget exceeded")
            store.current_label = stmt.label
            execute_assignment(stmt, store, loops)
        else:
            raise InterpreterError(f"unknown statement {type(stmt).__name__}")


def execute_call(
    stmt: CallStmt,
    store: Store,
    loops: Mapping[str, int],
    budget: list[int],
    subroutines: Mapping[str, Subroutine],
) -> None:
    """Execute ``CALL name(args)`` with FORTRAN parameter association.

    Array actuals associate by reference (whole arrays, or an element base
    for rank-1 actuals); scalar Name actuals are writable, any other scalar
    actual is passed by value and must not be assigned by the callee.  The
    callee body is rewritten into the caller's frame and executed directly,
    so traced accesses attribute to the CALL statement's label.
    """
    sub = subroutines.get(stmt.name)
    if sub is None:
        raise InterpreterError(f"CALL {stmt.name}: no such subroutine")
    if len(stmt.args) != len(sub.params):
        raise InterpreterError(
            f"CALL {stmt.name}: expected {len(sub.params)} arguments, "
            f"got {len(stmt.args)}"
        )
    body = _bind_call(sub, stmt.args, store, loops)
    if store.trace is not None:
        store.current_label = stmt.label
    _exec_stmts(body, store, {}, budget, subroutines)


def _bind_call(
    sub: Subroutine,
    args: tuple[Expr, ...],
    store: Store,
    loops: Mapping[str, int],
) -> list[Stmt]:
    """Rewrite the callee body into the caller's frame for one call."""
    array_map: dict[str, tuple[str, int]] = {}  # formal -> (actual, shift)
    scalar_map: dict[str, Expr] = {}
    mutated = _assigned_scalar_names(sub.body)
    for param, arg in zip(sub.params, args):
        decl = sub.decls.get(param)
        if decl is not None:
            if isinstance(arg, Name):
                array_map[param] = (arg.name, 0)
            elif isinstance(arg, ArrayRef):
                if len(arg.subscripts) != 1 or (decl.dims and len(decl.dims) != 1):
                    raise InterpreterError(
                        f"CALL {sub.name}: element-base association for "
                        f"{param} requires rank-1 arrays"
                    )
                base = eval_expr(arg.subscripts[0], store, loops)
                lower = 0
                if decl.dims:
                    lower = eval_expr(decl.dims[0].lower, store, {})
                array_map[param] = (arg.array, base - lower)
            else:
                raise InterpreterError(
                    f"CALL {sub.name}: cannot associate array {param} "
                    f"with {arg}"
                )
        elif isinstance(arg, Name):
            if arg.name in loops:
                # A caller loop variable: the callee runs outside the
                # caller's loop frame, so bind its current value.  FORTRAN
                # forbids the callee from redefining it anyway.
                if param in mutated:
                    raise InterpreterError(
                        f"CALL {sub.name}: assigns formal {param} bound to "
                        f"loop variable {arg.name}"
                    )
                scalar_map[param] = IntLit(loops[arg.name])
            else:
                scalar_map[param] = arg
        else:
            if param in mutated:
                raise InterpreterError(
                    f"CALL {sub.name}: assigns formal {param} bound to "
                    f"expression {arg}"
                )
            scalar_map[param] = IntLit(eval_expr(arg, store, loops))
    # Non-formal scalars and arrays are callee-local: prefix their names so
    # distinct subroutines (and the caller) never collide in the store.
    for name in mutated:
        if name not in sub.params:
            scalar_map.setdefault(name, Name(f"{sub.name}${name}"))
    for name in sub.decls:
        if name not in sub.params and name not in array_map:
            array_map[name] = (f"{sub.name}${name}", 0)
    return _rewrite_call_stmts(sub.body, array_map, scalar_map)


def _assigned_scalar_names(stmts: list[Stmt]) -> set[str]:
    out: set[str] = set()
    stack = list(stmts)
    while stack:
        node = stack.pop()
        if isinstance(node, Assignment) and isinstance(node.lhs, Name):
            out.add(node.lhs.name)
        elif isinstance(node, Loop):
            stack.extend(node.body)
        elif isinstance(node, If):
            stack.extend(node.then_body)
            stack.extend(node.else_body)
    return out


def _rewrite_call_stmts(
    stmts: list[Stmt],
    array_map: dict[str, tuple[str, int]],
    scalar_map: dict[str, Expr],
) -> list[Stmt]:
    def rename(node: Expr) -> Expr:
        if isinstance(node, Name):
            return scalar_map.get(node.name, node)
        if isinstance(node, ArrayRef) and node.array in array_map:
            actual, shift = array_map[node.array]
            subs = node.subscripts
            if shift:
                subs = (BinOp("+", subs[0], IntLit(shift)),) + subs[1:]
            return ArrayRef(actual, subs)
        return node

    def rewrite(expr: Expr) -> Expr:
        return map_expr(expr, rename)

    def loop(stmt: Loop) -> Loop:
        # A callee's loop may step by a formal, so its step is mapped too.
        return Loop(
            stmt.var,
            rewrite(stmt.lower),
            rewrite(stmt.upper),
            rewrite_statements(stmt.body, rewrite, loop),
            rewrite(stmt.step),
            span=stmt.span,
        )

    return rewrite_statements(stmts, rewrite, loop)


def execute_assignment(
    stmt: Assignment, store: Store, loops: Mapping[str, int]
) -> None:
    value = eval_expr(stmt.rhs, store, loops)
    if isinstance(stmt.lhs, ArrayRef):
        indices = tuple(
            eval_expr(s, store, loops) for s in stmt.lhs.subscripts
        )
        store.write(stmt.lhs.array, indices, value)
    elif isinstance(stmt.lhs, Name):
        store.scalars[stmt.lhs.name] = value
    else:
        raise InterpreterError(f"cannot assign to {stmt.lhs}")


def eval_expr(
    expr: Expr, store: Store, loops: Mapping[str, int]
) -> int:
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Name):
        if expr.name in loops:
            return loops[expr.name]
        if expr.name in store.scalars:
            return store.scalars[expr.name]
        raise InterpreterError(f"no value for {expr.name!r}")
    if isinstance(expr, ArrayRef):
        indices = tuple(eval_expr(s, store, loops) for s in expr.subscripts)
        return store.read(expr.array, indices)
    if isinstance(expr, UnaryOp):
        return -eval_expr(expr.operand, store, loops)
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, store, loops)
        right = eval_expr(expr.right, store, loops)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if right == 0:
            raise InterpreterError(f"division by zero in {expr}")
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    if isinstance(expr, Compare):
        left = eval_expr(expr.left, store, loops)
        right = eval_expr(expr.right, store, loops)
        return int(_COMPARISONS[expr.op](left, right))
    if isinstance(expr, (Call, Deref)):
        raise InterpreterError(f"cannot evaluate {expr}")
    raise InterpreterError(f"unknown expression {type(expr).__name__}")

"""The program summary's loop table against the walkers it replaced.

``assigned_scalars``, ``_collect_bounds``, ``_check_loops``,
``_bound_invariance`` and ``loop_variables`` below are the former
:func:`repro.lint.dataflow.assigned_scalars`, the bound collector behind
:func:`repro.analysis.normalize.rectangular_bounds`, the DL006/DL007 walk of
:func:`repro.analysis.check.check_program`, the DF003 walk of
:func:`repro.lint.dataflow.check_bound_invariance` and
``Program.loop_variables``, kept verbatim (``loop_variables`` takes the
program as an argument, and imports are absolute).  ``walk_guarded`` is the
former ``Program.walk_statements_guarded`` walk.  On generated programs with
IF arms, CALLs, empty loops, shadowed loop variables and triangular bounds,
on ``examples/`` and on corpus programs, the loop table and every reader of
it must agree with them.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_program, rectangular_bounds
from repro.analysis.normalize import _loosen, _maximize
from repro.corpus.generator import generate_program
from repro.frontend import parse_c, parse_fortran
from repro.ir import (
    ArrayRef,
    Assignment,
    BinOp,
    CallStmt,
    Compare,
    Guard,
    If,
    IntLit,
    Loop,
    Name,
    Program,
    Stmt,
    loop_table,
    summarize,
    to_poly,
)
from repro.ir import summary as summary_module
from repro.lint import codes
from repro.lint.dataflow import check_bound_invariance
from repro.lint.diagnostics import Diagnostic, sort_diagnostics
from repro.lint.engine import lint_source
from repro.symbolic import Poly

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


# -- the references: the former walkers, verbatim ----------------------------


def assigned_scalars(stmts: list[Stmt]) -> set[str]:
    """Scalars assigned (or used as a loop variable) within a statement list.

    Scalars passed by name to a CALL count as assigned: the callee may
    mutate them, and "possibly mutated" must be treated as mutated here.
    """
    out: set[str] = set()
    stack = list(stmts)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, Loop):
            out.add(stmt.var)
            stack.extend(stmt.body)
        elif isinstance(stmt, Assignment) and isinstance(stmt.lhs, Name):
            out.add(stmt.lhs.name)
        elif isinstance(stmt, If):
            stack.extend(stmt.then_body)
            stack.extend(stmt.else_body)
        elif isinstance(stmt, CallStmt):
            out |= {
                arg.name for arg in stmt.args if isinstance(arg, Name)
            }
    return out


def _collect_bounds(
    stmts: list[Stmt],
    outer: list[tuple[str, Poly]],
    bounds: dict[str, Poly],
) -> None:
    for stmt in stmts:
        if isinstance(stmt, If):
            _collect_bounds(stmt.then_body, outer, bounds)
            _collect_bounds(stmt.else_body, outer, bounds)
            continue
        if not isinstance(stmt, Loop):
            continue
        upper = _maximize(stmt.upper, outer, stmt.var)
        if stmt.var in bounds and bounds[stmt.var] != upper:
            upper = _loosen(bounds[stmt.var], upper, stmt.var)
        bounds[stmt.var] = upper
        _collect_bounds(stmt.body, outer + [(stmt.var, upper)], bounds)


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


def _bound_invariance(stmts: list[Stmt], diags: list[Diagnostic]) -> None:
    """DF003 for the loops of one statement list, outside-in.  (Not a
    closure: a recursive closure is a reference cycle that would keep the
    diagnostics alive until the next collection.)"""
    for stmt in stmts:
        if isinstance(stmt, If):
            _bound_invariance(stmt.then_body, diags)
            _bound_invariance(stmt.else_body, diags)
        if not isinstance(stmt, Loop):
            continue
        mutated = assigned_scalars(stmt.body) - {stmt.var}
        for which, expr in (
            ("lower", stmt.lower),
            ("upper", stmt.upper),
            ("step", stmt.step),
        ):
            bad = sorted(
                n.name
                for n in expr.walk()
                if isinstance(n, Name) and n.name in mutated
            )
            for name in bad:
                diags.append(
                    Diagnostic.make(
                        codes.DF003,
                        f"{which} bound of loop {stmt.var} reads {name}, "
                        f"which the loop body modifies",
                        span=stmt.span,
                    )
                )
        _bound_invariance(stmt.body, diags)


def loop_variables(self) -> set[str]:
    out: set[str] = set()
    stack = list(self.body)
    while stack:
        node = stack.pop()
        if isinstance(node, Loop):
            out.add(node.var)
            stack.extend(node.body)
        elif isinstance(node, If):
            stack.extend(node.then_body)
            stack.extend(node.else_body)
    return out


def walk_guarded(stmts, loops, guards):
    for stmt in stmts:
        if isinstance(stmt, Assignment):
            yield stmt, loops, guards
        elif isinstance(stmt, CallStmt):
            yield stmt, loops, guards
        elif isinstance(stmt, Loop):
            yield from walk_guarded(stmt.body, loops + (stmt,), guards)
        elif isinstance(stmt, If):
            yield from walk_guarded(
                stmt.then_body, loops, guards + (Guard(stmt, True),)
            )
            yield from walk_guarded(
                stmt.else_body, loops, guards + (Guard(stmt, False),)
            )
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")


def nests(stmts, outer=()):
    """Each loop with its enclosing loops, in textual pre-order."""
    for stmt in stmts:
        if isinstance(stmt, Loop):
            yield stmt, outer
            yield from nests(stmt.body, outer + (stmt,))
        elif isinstance(stmt, If):
            yield from nests(stmt.then_body, outer)
            yield from nests(stmt.else_body, outer)


# -- the comparison ----------------------------------------------------------


def ids(loops):
    return tuple(id(loop) for loop in loops)


def guard_key(guards):
    return tuple((id(guard.node), guard.branch) for guard in guards)


def assert_table_matches(program: Program) -> None:
    summary = summarize(program)
    expected = [(id(loop), ids(outer)) for loop, outer in nests(program.body)]
    for table in (summary.loop_table, loop_table(program.body)):
        assert [
            (id(entry.loop), ids(entry.outer)) for entry in table.entries
        ] == expected
        for entry in table.entries:
            assert entry.assigned == assigned_scalars(entry.loop.body)
            assert table.of(entry.loop) is entry
        assert table.assigned == assigned_scalars(program.body)
        assert table.loop_vars == loop_variables(program)

    assert [
        (id(s.stmt), ids(s.loops), guard_key(s.guards))
        for s in summary.statements
    ] == [
        (id(stmt), ids(loops), guard_key(guards))
        for stmt, loops, guards in walk_guarded(program.body, (), ())
    ]

    bounds: dict[str, Poly] = {}
    _collect_bounds(program.body, [], bounds)
    assert rectangular_bounds(program) == bounds

    loop_diags: list[Diagnostic] = []
    _check_loops(program.body, set(), loop_diags)
    assert [
        d for d in check_program(program) if d.code in (codes.DL006, codes.DL007)
    ] == sort_diagnostics(loop_diags)

    bound_diags: list[Diagnostic] = []
    _bound_invariance(program.body, bound_diags)
    assert check_bound_invariance(program) == bound_diags


# -- generated programs ------------------------------------------------------

_LOOP_VARS = ("i", "j", "k")
_SCALARS = ("x", "y")


def _names(loop_vars):
    return st.sampled_from(sorted({*loop_vars, *_SCALARS, "N"}))


def _exprs(loop_vars):
    leaf = st.builds(IntLit, st.integers(-2, 6)) | st.builds(
        Name, _names(loop_vars)
    )
    return leaf | st.builds(BinOp, st.sampled_from("+-*"), leaf, leaf)


@st.composite
def _blocks(draw, loop_vars, depth):
    body: list[Stmt] = []
    for _ in range(draw(st.integers(0 if depth else 1, 3))):
        kind = draw(
            st.sampled_from(["loop", "loop", "if", "call", "assign", "store"])
        )
        if kind == "loop" and depth < 3:
            # Any variable: reusing an enclosing one shadows it.
            var = draw(st.sampled_from(_LOOP_VARS))
            # Constant (possibly empty), symbolic, scalar or triangular.
            upper = draw(_exprs(loop_vars))
            lower = draw(st.sampled_from([IntLit(0), IntLit(1), Name("x")]))
            step = draw(st.sampled_from([IntLit(1), IntLit(2), Name("y")]))
            inner = draw(_blocks(loop_vars + (var,), depth + 1))
            body.append(Loop(var, lower, upper, inner, step))
        elif kind == "if" and depth < 3:
            cond = Compare(">", draw(_exprs(loop_vars)), IntLit(0))
            then_body = draw(_blocks(loop_vars, depth + 1))
            else_body = draw(_blocks(loop_vars, depth + 1))
            body.append(If(cond, then_body, else_body))
        elif kind == "call":
            args = draw(
                st.lists(
                    _exprs(loop_vars)
                    | st.builds(
                        lambda e: ArrayRef("A", (e,)), _exprs(loop_vars)
                    ),
                    max_size=3,
                )
            )
            body.append(CallStmt("F", tuple(args)))
        elif kind == "store":
            target = ArrayRef("A", (draw(_exprs(loop_vars)),))
            body.append(Assignment(target, draw(_exprs(loop_vars))))
        else:
            target = Name(draw(st.sampled_from(_SCALARS + _LOOP_VARS)))
            body.append(Assignment(target, draw(_exprs(loop_vars))))
    return body


@st.composite
def programs(draw):
    program = Program(body=draw(_blocks((), 0)))
    program.number_statements()
    return program


@given(programs())
@settings(max_examples=200, deadline=None)
def test_generated_programs_match_reference_walkers(program):
    assert_table_matches(program)


# -- examples and corpus programs --------------------------------------------


def _example_programs():
    for path in sorted(EXAMPLES.glob("*.f")):
        text = path.read_text()
        yield f"{path.name}:parsed", parse_fortran(text)
        yield f"{path.name}:linted", lint_source(text, audit=False).program
    for path in sorted(EXAMPLES.glob("*.c")):
        text = path.read_text()
        yield f"{path.name}:parsed", parse_c(text)[0]
        yield f"{path.name}:linted", lint_source(
            text, language="c", audit=False
        ).program


@pytest.mark.parametrize(
    "program",
    [program for _, program in _example_programs()],
    ids=[name for name, _ in _example_programs()],
)
def test_examples_match_reference_walkers(program):
    assert program is not None
    assert_table_matches(program)


@pytest.mark.parametrize("seed", range(7))
def test_corpus_programs_match_reference_walkers(seed):
    source = generate_program(
        f"R{seed}", lines=150, linearized_nests=12, seed=seed
    ).source
    assert_table_matches(parse_fortran(source))
    program = lint_source(source, audit=False).program
    assert program is not None
    assert_table_matches(program)


# -- explicit cases ----------------------------------------------------------


def test_loop_table_lowers_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the loop table lowered a subscript")

    monkeypatch.setattr(summary_module, "to_linexpr", refuse)
    source = "IB = 0\nDO i = 0, 9\nDO j = 0, i\nIB = IB + 1\nA(IB) = j\nENDDO\nENDDO\n"
    table = loop_table(parse_fortran(source).body)
    assert [entry.loop.var for entry in table.entries] == ["i", "j"]
    assert table.assigned == {"IB", "i", "j"}


def test_call_arguments_and_inner_loop_variables_are_assigned():
    source = (
        "DO i = 0, 9\nIF (X > 0) THEN\nCALL F(M, A(i), 3)\nELSE\n"
        "DO j = 0, i\nB(j) = K\nENDDO\nENDIF\nENDDO\n"
    )
    table = loop_table(parse_fortran(source).body)
    outer, inner = table.entries
    assert outer.assigned == {"M", "j"}
    assert inner.outer == (outer.loop,)
    assert inner.assigned == frozenset()
    assert table.loop_vars == {"i", "j"}


def test_bounds_read_each_enclosing_loop_not_its_name():
    # The inner ``i`` loosens the bound of the name ``i`` to a symbol, but
    # ``j`` runs inside the outer ``i`` loop, whose bound is still 5.
    program = parse_fortran(
        "DO i = 0, 5\nDO i = 0, N\nA(i) = 0\nENDDO\n"
        "DO j = 0, i\nA(j) = 1\nENDDO\nENDDO\n"
    )
    assert_table_matches(program)
    bounds = rectangular_bounds(program)
    assert bounds["i"] == Poly.symbol("_ub_i")
    assert bounds["j"] == 5


def test_shadowing_counts_every_enclosing_loop():
    program = parse_fortran(
        "DO i = 0, 5\nDO j = 0, 5\nDO i = 0, 2\nA(i) = j\n"
        "ENDDO\nENDDO\nENDDO\n"
    )
    assert_table_matches(program)
    assert [d.code for d in check_program(program)] == [codes.DL006]

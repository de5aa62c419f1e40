"""The IR's one mapper and statement rewriter against the copies they replaced.

``substitute_name``, ``_map_children`` and ``_rewrite_with`` below are the
former :func:`repro.ir.expr.substitute_name` and the expression and statement
rewriters of :mod:`repro.analysis.linearize`, kept verbatim (only their
relative imports are made absolute).  Over generated expression trees of every
:class:`~repro.ir.Expr` class and statement lists of every
:class:`~repro.ir.Stmt` class, :func:`repro.ir.map_expr`,
:func:`repro.ir.substitute_name` and :func:`repro.ir.rewrite_statements` must
give equal results, keep every label and span, build every statement anew and
return an expression unchanged by the identity mapping as the same object.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ir as ir
from repro.ir import (
    ArrayRef,
    Assignment,
    BinOp,
    Call,
    CallStmt,
    Compare,
    Deref,
    Expr,
    If,
    IntLit,
    Loop,
    Name,
    Span,
    Stmt,
    UnaryOp,
)

# -- the references: the former rewriters, verbatim -------------------------


def substitute_name(expr: Expr, name: str, replacement: Expr) -> Expr:
    """Return ``expr`` with every occurrence of ``Name(name)`` replaced."""
    if isinstance(expr, Name):
        return replacement if expr.name == name else expr
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            substitute_name(expr.left, name, replacement),
            substitute_name(expr.right, name, replacement),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, substitute_name(expr.operand, name, replacement))
    if isinstance(expr, Call):
        return Call(
            expr.func,
            tuple(substitute_name(a, name, replacement) for a in expr.args),
        )
    if isinstance(expr, Compare):
        return Compare(
            expr.op,
            substitute_name(expr.left, name, replacement),
            substitute_name(expr.right, name, replacement),
        )
    if isinstance(expr, ArrayRef):
        return ArrayRef(
            expr.array,
            tuple(substitute_name(s, name, replacement) for s in expr.subscripts),
        )
    if isinstance(expr, Deref):
        return Deref(substitute_name(expr.pointer, name, replacement))
    return expr


def _rewrite_with(stmts: list[Stmt], rewrite_expr) -> list[Stmt]:
    from repro.ir import CallStmt, If

    out: list[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, Assignment):
            out.append(
                Assignment(
                    rewrite_expr(stmt.lhs),
                    rewrite_expr(stmt.rhs),
                    stmt.label,
                    span=stmt.span,
                )
            )
        elif isinstance(stmt, Loop):
            out.append(
                Loop(
                    stmt.var,
                    rewrite_expr(stmt.lower),
                    rewrite_expr(stmt.upper),
                    _rewrite_with(stmt.body, rewrite_expr),
                    stmt.step,
                    span=stmt.span,
                )
            )
        elif isinstance(stmt, If):
            out.append(
                If(
                    rewrite_expr(stmt.cond),
                    _rewrite_with(stmt.then_body, rewrite_expr),
                    _rewrite_with(stmt.else_body, rewrite_expr),
                    span=stmt.span,
                )
            )
        elif isinstance(stmt, CallStmt):
            out.append(
                CallStmt(
                    stmt.name,
                    tuple(rewrite_expr(a) for a in stmt.args),
                    stmt.label,
                    span=stmt.span,
                )
            )
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")
    return out


def _map_children(expr: Expr, rewrite) -> Expr:
    from repro.ir import Call, Compare, Deref, UnaryOp

    if isinstance(expr, BinOp):
        return BinOp(expr.op, rewrite(expr.left), rewrite(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, rewrite(expr.operand))
    if isinstance(expr, Compare):
        return Compare(expr.op, rewrite(expr.left), rewrite(expr.right))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(rewrite(a) for a in expr.args))
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.array, tuple(rewrite(s) for s in expr.subscripts))
    if isinstance(expr, Deref):
        return Deref(rewrite(expr.pointer))
    return expr


def reference_map(expr: Expr, fn) -> Expr:
    """How each former pass applied a node rewrite: children first."""
    return fn(_map_children(expr, lambda child: reference_map(child, fn)))


# -- generated trees ---------------------------------------------------------

NAMES = ("i", "j", "n", "p")
ARRAYS = ("A", "B")

leaves = st.one_of(
    st.integers(-3, 12).map(IntLit), st.sampled_from(NAMES).map(Name)
)


def _compound(children):
    some = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(UnaryOp, st.just("-"), children),
        st.builds(
            Compare,
            st.sampled_from(("<", "<=", ">", ">=", "==", "!=")),
            children,
            children,
        ),
        st.builds(Call, st.just("F"), some | st.just(())),
        st.builds(ArrayRef, st.sampled_from(ARRAYS), some),
        st.builds(Deref, children),
    )


exprs = st.recursive(leaves, _compound, max_leaves=12)
small_exprs = st.recursive(leaves, _compound, max_leaves=4)
spans = st.builds(Span, st.integers(1, 99), st.integers(1, 20)) | st.none()
labels = st.sampled_from(("S1", "S2", "S7")) | st.none()
targets = st.sampled_from(NAMES).map(Name) | st.builds(
    ArrayRef,
    st.sampled_from(ARRAYS),
    st.lists(small_exprs, min_size=1, max_size=2).map(tuple),
)

simple_stmts = st.one_of(
    st.builds(Assignment, targets, small_exprs, labels, span=spans),
    st.builds(
        CallStmt,
        st.just("SUB"),
        st.lists(small_exprs, max_size=2).map(tuple),
        labels,
        span=spans,
    ),
)


def _nested(bodies):
    return st.one_of(
        st.builds(
            Loop,
            st.sampled_from(NAMES),
            small_exprs,
            small_exprs,
            bodies,
            small_exprs,
            span=spans,
        ),
        st.builds(If, small_exprs, bodies, bodies, span=spans),
    )


stmt_lists = st.lists(
    st.recursive(
        simple_stmts,
        lambda inner: _nested(st.lists(inner, max_size=3)),
        max_leaves=6,
    ),
    max_size=3,
)


def _rename_i(node: Expr) -> Expr:
    return Name("k") if node == Name("i") else node


def _bump_literals(node: Expr) -> Expr:
    return IntLit(node.value + 1) if isinstance(node, IntLit) else node


def _linearize_a(node: Expr) -> Expr:
    # The shape of a storage rewrite: A(s...) -> STOR(s1 + s2 + ...).
    if isinstance(node, ArrayRef) and node.array == "A":
        total = node.subscripts[0]
        for sub in node.subscripts[1:]:
            total = BinOp("+", total, sub)
        return ArrayRef("STOR", (total,))
    return node


def _deref_to_element(node: Expr) -> Expr:
    return ArrayRef("P", (node.pointer,)) if isinstance(node, Deref) else node


NODE_FNS = st.sampled_from(
    (
        lambda node: node,
        _rename_i,
        _bump_literals,
        _linearize_a,
        _deref_to_element,
    )
)


def _pairs(new: list[Stmt], old: list[Stmt]):
    """Statements of two rewritten lists side by side, recursively."""
    assert len(new) == len(old)
    for a, b in zip(new, old):
        yield a, b
        for field in ("body", "then_body", "else_body"):
            if hasattr(a, field):
                yield from _pairs(getattr(a, field), getattr(b, field))


def _all_statements(stmts: list[Stmt]):
    for stmt in stmts:
        yield stmt
        for field in ("body", "then_body", "else_body"):
            yield from _all_statements(getattr(stmt, field, []))


# -- properties --------------------------------------------------------------


@settings(max_examples=200)
@given(exprs, NODE_FNS)
def test_map_expr_matches_the_reference(expr, fn):
    assert ir.map_expr(expr, fn) == reference_map(expr, fn)


@settings(max_examples=200)
@given(exprs, st.sampled_from(NAMES), exprs)
def test_substitute_name_matches_the_reference(expr, name, replacement):
    assert ir.substitute_name(expr, name, replacement) == substitute_name(
        expr, name, replacement
    )


@given(exprs)
def test_identity_mapping_returns_the_same_object(expr):
    assert ir.map_expr(expr, lambda node: node) is expr
    assert ir.substitute_name(expr, "absent", IntLit(0)) is expr


@given(stmt_lists, NODE_FNS)
def test_rewrite_statements_matches_the_reference(stmts, fn):
    def rewrite(expr):
        return ir.map_expr(expr, fn)

    new = ir.rewrite_statements(stmts, rewrite)
    old = _rewrite_with(stmts, lambda expr: reference_map(expr, fn))
    assert new == old
    for a, b in _pairs(new, old):
        assert type(a) is type(b)
        assert getattr(a, "label", None) == getattr(b, "label", None)
        assert a.span == b.span
        if isinstance(a, Loop):
            assert a.step is b.step


@given(stmt_lists)
def test_every_rewritten_statement_is_new(stmts):
    new = ir.rewrite_statements(stmts)
    assert new == stmts
    before = {id(stmt) for stmt in _all_statements(stmts)}
    assert not before & {id(stmt) for stmt in _all_statements(new)}
    for a, b in _pairs(new, stmts):
        assert getattr(a, "label", None) == getattr(b, "label", None)
        assert a.span == b.span


@given(stmt_lists)
def test_loop_hook_replaces_loops(stmts):
    def empty(loop: Loop) -> Loop:
        return Loop(loop.var, IntLit(0), IntLit(0), [], span=loop.span)

    new = ir.rewrite_statements(stmts, loop=empty)
    for stmt in _all_statements(new):
        if isinstance(stmt, Loop):
            assert stmt.body == [] and stmt.upper == IntLit(0)


# -- every node kind is handled ----------------------------------------------

EXPR_SAMPLES = {
    IntLit: IntLit(3),
    Name: Name("i"),
    BinOp: BinOp("+", Name("i"), IntLit(1)),
    UnaryOp: UnaryOp("-", Name("i")),
    Compare: Compare("<", Name("i"), Name("n")),
    Call: Call("F", (Name("i"), IntLit(2))),
    ArrayRef: ArrayRef("A", (Name("i"), Name("j"))),
    Deref: Deref(BinOp("+", Name("p"), IntLit(1))),
}

SPAN = Span(4, 2)
STMT_SAMPLES = {
    Assignment: Assignment(
        ArrayRef("A", (Name("i"),)), Name("i"), "S1", span=SPAN
    ),
    Loop: Loop("j", Name("i"), Name("n"), [], IntLit(2), span=SPAN),
    If: If(Compare(">", Name("i"), IntLit(0)), [], [], span=SPAN),
    CallStmt: CallStmt("SUB", (Name("i"),), "S2", span=SPAN),
}


def test_every_expression_class_is_rebuilt():
    assert set(Expr.__subclasses__()) == set(EXPR_SAMPLES)
    for cls, node in EXPR_SAMPLES.items():
        children = node.children()
        assert node.with_children(children) == node, cls
        renamed = ir.substitute_name(node, "i", Name("k"))
        assert type(renamed) is cls
        assert renamed == substitute_name(node, "i", Name("k")), cls


def test_every_statement_class_is_rewritten():
    assert set(Stmt.__subclasses__()) == set(STMT_SAMPLES)
    for cls, stmt in STMT_SAMPLES.items():
        (new,) = ir.rewrite_statements(
            [stmt], lambda expr: ir.substitute_name(expr, "i", Name("k"))
        )
        assert type(new) is cls and new is not stmt
        assert new.span == SPAN
        assert "k" in str(new) and "i" not in str(new).replace("IF", ""), cls

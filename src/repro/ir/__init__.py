"""Loop-nest intermediate representation.

Expressions (:mod:`repro.ir.expr`), statements and programs
(:mod:`repro.ir.nodes`) with the one way every pass rebuilds them
(:func:`map_expr`, :func:`rewrite_statements`, :meth:`Program.with_body`),
affine lowering (:mod:`repro.ir.affine`), the per-statement access
summaries every pass reads (:mod:`repro.ir.summary`) and source-text
rendering (:mod:`repro.ir.pprint`).
"""

from .affine import to_linexpr, to_poly
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
    evaluate_expr,
    map_expr,
    substitute_name,
)
from .nodes import (
    ArrayDecl,
    CommonBlock,
    ArrayDim,
    Assignment,
    CallStmt,
    Equivalence,
    Guard,
    If,
    Loop,
    Program,
    RefContext,
    Stmt,
    Subroutine,
    common_loop_count,
    has_control_flow,
    mutually_exclusive,
    rewrite_statements,
)
from .interp import InterpreterError, Store, run_program
from .pprint import format_program, format_statements
from .span import Span
from .summary import collect_refs, loop_table, scalar_conflicts, summarize

__all__ = [
    "ArrayDecl",
    "ArrayDim",
    "ArrayRef",
    "Assignment",
    "BinOp",
    "Call",
    "CallStmt",
    "CommonBlock",
    "Compare",
    "Deref",
    "Equivalence",
    "Expr",
    "Guard",
    "If",
    "IntLit",
    "InterpreterError",
    "Loop",
    "Name",
    "Program",
    "RefContext",
    "Span",
    "Stmt",
    "Store",
    "Subroutine",
    "UnaryOp",
    "collect_refs",
    "common_loop_count",
    "evaluate_expr",
    "format_program",
    "format_statements",
    "has_control_flow",
    "loop_table",
    "map_expr",
    "mutually_exclusive",
    "rewrite_statements",
    "run_program",
    "scalar_conflicts",
    "substitute_name",
    "summarize",
    "to_linexpr",
    "to_poly",
]

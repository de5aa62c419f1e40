"""C pointer traversal -> integer index conversion.

The paper: "to make analysis in the presence of pointers possible [the]
translator should treat [a] pointer which is used to traverse some array as
[an] index in the linearized version of that array".  For::

    float d[100];
    float *i, *j;
    for (j = d; j <= d + 90; j += 10)
        for (i = j; i < j + 5; i++)
            *i = *(i + 5);

the pointers become integer indices over ``d``::

    for (j = 0; j <= 90; j += 10)
        for (i = j; i <= j + 4; i++)
            d(i) = d(i + 5)

(loop normalization then removes the non-unit step and the loop-variant
lower bound, producing the classic linearized subscripts ``d(10j + i)``).

Recognized pointer loops: ``for (p = base; ...)`` where ``base`` is a
declared 1-D array name (optionally ``+ offset``) or an already-converted
pointer index over the same array.  Every ``*expr`` whose expression is a
converted pointer (± loop-invariant offset) becomes an ArrayRef.
"""

from __future__ import annotations

from ..frontend.c import CParseInfo
from ..ir import (
    ArrayRef,
    BinOp,
    Deref,
    Expr,
    IntLit,
    Loop,
    Name,
    Program,
    Stmt,
    map_expr,
    rewrite_statements,
    substitute_name,
)
from ..ir.fold import simplify


class PointerConversionError(Exception):
    """A pointer use cannot be converted to index form."""


def convert_pointers(program: Program, info: CParseInfo) -> Program:
    """Rewrite pointer-traversal loops and dereferences to array indexing."""
    converter = _Converter(program, info)
    return program.with_body(converter.convert(program.body, {}))


class _Converter:
    def __init__(self, program: Program, info: CParseInfo):
        self.program = program
        self.info = info

    def convert(
        self, stmts: list[Stmt], pointer_bases: dict[str, str]
    ) -> list[Stmt]:
        """``stmts`` with the pointers of ``pointer_bases`` (pointer ->
        array) and of the pointer loops inside them as indices."""
        return rewrite_statements(
            stmts,
            lambda expr: self.convert_expr(expr, pointer_bases),
            lambda loop: self.convert_loop(loop, pointer_bases),
        )

    def convert_loop(
        self, loop: Loop, pointer_bases: dict[str, str]
    ) -> Loop | None:
        """A pointer loop as a loop over its array's indices (``None`` for
        any other loop)."""
        if loop.var not in self.info.pointers:
            return None
        base = self.base_array_of(loop.lower, pointer_bases)
        if base is None:
            raise PointerConversionError(
                f"pointer loop {loop.var}: base of {loop.lower} unknown"
            )
        inner = {**pointer_bases, loop.var: base}
        return Loop(
            loop.var,
            self.strip_base(loop.lower, base, inner),
            self.strip_base(loop.upper, base, inner),
            self.convert(loop.body, inner),
            loop.step,
            span=loop.span,
        )

    def base_array_of(
        self, expr: Expr, pointer_bases: dict[str, str]
    ) -> str | None:
        """The array a pointer-valued expression points into."""
        if isinstance(expr, Name):
            if expr.name in pointer_bases:
                return pointer_bases[expr.name]
            decl = self.program.array(expr.name)
            if decl is not None:
                if decl.rank > 1:
                    raise PointerConversionError(
                        f"pointer into multi-dimensional array {expr.name}"
                    )
                return expr.name
            return None
        if isinstance(expr, BinOp) and expr.op in ("+", "-"):
            return self.base_array_of(
                expr.left, pointer_bases
            ) or self.base_array_of(expr.right, pointer_bases)
        return None

    def strip_base(
        self, expr: Expr, base: str, pointer_bases: dict[str, str]
    ) -> Expr:
        """Turn a pointer-valued expression into an index expression.

        Replaces the base array name by 0 (its index origin); names of
        already-converted pointers are already indices and stay.
        """
        stripped = substitute_name(expr, base, IntLit(0))
        return simplify(self.convert_expr(stripped, pointer_bases))

    def convert_expr(
        self, expr: Expr, pointer_bases: dict[str, str]
    ) -> Expr:
        """``expr`` with every dereference as an element of its array."""

        def convert(node: Expr) -> Expr:
            if not isinstance(node, Deref):
                return node
            base = self.base_array_of(node.pointer, pointer_bases)
            if base is None:
                raise PointerConversionError(
                    f"cannot resolve base array of {node}"
                )
            index = self.strip_base(node.pointer, base, pointer_bases)
            return ArrayRef(base, (index,))

        return map_expr(expr, convert)

"""Array linearization and EQUIVALENCE alias resolution.

FORTRAN maps multi-dimensional arrays to 1-D storage column-major::

    A(s1, ..., sl)  ->  offset = sum_i (s_i - lo_i) * prod_{j<i} extent_j

The ANSI rule the paper quotes — associated (EQUIVALENCE'd) arrays are
considered linearized — means references to differently-shaped aliases can
only be compared through their storage offsets.  ``linearize_program``
rewrites every reference of each alias group to a single 1-D storage array;
delinearization then recovers the analyzable dimension structure.

``partially_linearize`` supports the paper's 4-D example: linearizing only a
*prefix* of the dimensions (those whose shapes differ between aliases),
leaving well-behaved trailing subscripts intact — "it is wise to linearize
(and then delinearize) i and j subscripts and leave k and l subscripts as
they are".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import (
    ArrayDecl,
    ArrayDim,
    ArrayRef,
    Assignment,
    BinOp,
    Expr,
    IntLit,
    Loop,
    Program,
    Stmt,
    summarize,
    to_linexpr,
    to_poly,
)
from ..ir.fold import fold
from ..symbolic import LinExpr, Poly


class LinearizationError(Exception):
    """An array cannot be linearized (unknown shape, rank mismatch...)."""


@dataclass(frozen=True)
class StorageLayout:
    """Column-major layout facts for one declared array."""

    decl: ArrayDecl
    extents: tuple[Expr, ...]  # per-dimension extent expressions

    @property
    def rank(self) -> int:
        return len(self.extents)

    def size(self) -> Expr:
        total: Expr = IntLit(1)
        for extent in self.extents:
            total = fold(BinOp("*", total, extent))
        return total

    def offset(self, subscripts: tuple[Expr, ...]) -> Expr:
        """The storage offset expression of a reference."""
        if len(subscripts) != self.rank:
            raise LinearizationError(
                f"{self.decl.name}: reference has {len(subscripts)} "
                f"subscripts, declared rank is {self.rank}"
            )
        total: Expr = IntLit(0)
        stride: Expr = IntLit(1)
        for sub, dim, extent in zip(subscripts, self.decl.dims, self.extents):
            normalized = fold(BinOp("-", sub, dim.lower))
            total = fold(BinOp("+", total, BinOp("*", normalized, stride)))
            stride = fold(BinOp("*", stride, extent))
        return total


def layout_of(decl: ArrayDecl) -> StorageLayout:
    if not decl.dims:
        raise LinearizationError(
            f"{decl.name}: implicit declaration has no known shape"
        )
    extents = tuple(
        fold(BinOp("+", BinOp("-", dim.upper, dim.lower), IntLit(1)))
        for dim in decl.dims
    )
    return StorageLayout(decl, extents)


def alias_groups(program: Program) -> list[set[str]]:
    """Union-find over EQUIVALENCE statements."""
    parent: dict[str, str] = {}

    def find(name: str) -> str:
        parent.setdefault(name, name)
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for equiv in program.equivalences:
        first = equiv.arrays[0]
        for other in equiv.arrays[1:]:
            root_a, root_b = find(first), find(other)
            if root_a != root_b:
                parent[root_a] = root_b
    groups: dict[str, set[str]] = {}
    for name in parent:
        groups.setdefault(find(name), set()).add(name)
    return [g for g in groups.values() if len(g) > 1]


def linearize_program(
    program: Program,
    arrays: set[str] | None = None,
) -> Program:
    """Rewrite references to 1-D storage form.

    Without ``arrays``, every EQUIVALENCE alias group is linearized (each
    group onto one shared storage array, sized to the largest member).  With
    ``arrays``, exactly those are linearized, each onto its own storage.
    """
    mapping: dict[str, str] = {}
    storages: dict[str, ArrayDecl] = {}
    counter = 0
    if arrays is None:
        for group in alias_groups(program):
            counter += 1
            storage = f"_stor{counter}"
            size = _group_size(program, group)
            storages[storage] = ArrayDecl(
                storage, (ArrayDim(IntLit(0), fold(BinOp("-", size, IntLit(1)))),)
            )
            for name in group:
                mapping[name] = storage
    else:
        for name in sorted(arrays):
            counter += 1
            storage = f"_stor{counter}"
            decl = program.array(name)
            if decl is None:
                raise LinearizationError(f"unknown array {name}")
            size = layout_of(decl).size()
            storages[storage] = ArrayDecl(
                storage, (ArrayDim(IntLit(0), fold(BinOp("-", size, IntLit(1)))),)
            )
            mapping[name] = storage

    layouts = {
        name: layout_of(program.decls[name])
        for name in mapping
        if name in program.decls
    }
    missing = set(mapping) - set(layouts)
    if missing:
        raise LinearizationError(f"cannot linearize undeclared {sorted(missing)}")

    decls = {
        name: decl for name, decl in program.decls.items() if name not in mapping
    }
    decls.update(storages)
    rewritten = Program(
        decls=decls,
        equivalences=[
            e
            for e in program.equivalences
            if not set(e.arrays) <= set(mapping)
        ],
        body=_rewrite_stmts(program.body, mapping, layouts),
        name=program.name,
        commons=list(program.commons),
        subroutines=dict(program.subroutines),
    )
    rewritten.number_statements()
    return rewritten


def partially_linearize(program: Program, array: str, ndims: int) -> Program:
    """Linearize the first ``ndims`` dimensions of one array.

    ``A(s1, ..., sk, rest...)`` becomes
    ``A'(offset(s1..sk), rest...)`` — the paper's treatment of the 4-D
    EQUIVALENCE example where only the differently-shaped leading dimensions
    need the storage view.
    """
    decl = program.array(array)
    if decl is None or not decl.dims:
        raise LinearizationError(f"unknown or shapeless array {array}")
    if not 1 <= ndims <= decl.rank:
        raise LinearizationError(
            f"cannot linearize {ndims} of {decl.rank} dimensions"
        )
    prefix_layout = layout_of(
        ArrayDecl(decl.name, decl.dims[:ndims], decl.elem_type)
    )
    new_name = f"{array}_lin"
    new_dims = (
        ArrayDim(
            IntLit(0), fold(BinOp("-", prefix_layout.size(), IntLit(1)))
        ),
    ) + decl.dims[ndims:]

    def rewrite(ref: ArrayRef) -> ArrayRef:
        offset = prefix_layout.offset(ref.subscripts[:ndims])
        return ArrayRef(new_name, (offset,) + ref.subscripts[ndims:])

    decls = {n: d for n, d in program.decls.items() if n != array}
    decls[new_name] = ArrayDecl(new_name, new_dims, decl.elem_type)
    rewritten = Program(
        decls=decls,
        equivalences=list(program.equivalences),
        body=_rewrite_custom(program.body, array, rewrite),
        name=program.name,
        commons=list(program.commons),
        subroutines=dict(program.subroutines),
    )
    rewritten.number_statements()
    return rewritten


def linearize_common(program: Program, block: str | None = None) -> Program:
    """Rewrite COMMON-block member references onto the block's storage.

    FORTRAN storage association lays the members of a COMMON block out
    sequentially; a reference ``A(s...)`` to member A at cumulative offset
    ``base_A`` becomes ``storage(base_A + offset_A(s...))``.  Scalar members
    occupy one element.  Without ``block``, every block is linearized.
    """
    selected = [
        cb
        for cb in program.commons
        if block is None or cb.name == block
    ]
    if block is not None and not selected:
        raise LinearizationError(f"no COMMON block named {block!r}")
    if not selected:
        return program

    # Multiple COMMON statements naming one block concatenate their members.
    merged: dict[str, list[str]] = {}
    for cb in selected:
        merged.setdefault(cb.name, []).extend(cb.members)

    mapping: dict[str, tuple[str, Expr, StorageLayout | None]] = {}
    storages: dict[str, ArrayDecl] = {}
    for block_name, members in merged.items():
        storage = f"_common_{block_name or 'blank'}"
        base: Expr = IntLit(0)
        for member in members:
            decl = program.array(member)
            if decl is not None and decl.dims:
                layout = layout_of(decl)
                mapping[member] = (storage, base, layout)
                base = fold(BinOp("+", base, layout.size()))
            else:
                mapping[member] = (storage, base, None)  # scalar member
                base = fold(BinOp("+", base, IntLit(1)))
        storages[storage] = ArrayDecl(
            storage, (ArrayDim(IntLit(0), fold(BinOp("-", base, IntLit(1)))),)
        )

    from ..ir import Name

    def rewrite_expr(expr: Expr) -> Expr:
        if isinstance(expr, ArrayRef) and expr.array in mapping:
            storage, base, layout = mapping[expr.array]
            if layout is None:
                raise LinearizationError(
                    f"{expr.array} subscripted but declared scalar in COMMON"
                )
            offset = layout.offset(
                tuple(rewrite_expr(s) for s in expr.subscripts)
            )
            return ArrayRef(storage, (fold(BinOp("+", base, offset)),))
        if isinstance(expr, Name) and expr.name in mapping:
            storage, base, layout = mapping[expr.name]
            if layout is None:
                return ArrayRef(storage, (base,))
            return expr  # whole-array name outside a reference: keep
        return _map_children(expr, rewrite_expr)

    decls = {
        name: decl
        for name, decl in program.decls.items()
        if name not in mapping
    }
    decls.update(storages)
    rewritten = Program(
        decls=decls,
        equivalences=list(program.equivalences),
        body=_rewrite_with(program.body, rewrite_expr),
        name=program.name,
        commons=[cb for cb in program.commons if cb not in selected],
        subroutines=dict(program.subroutines),
    )
    rewritten.number_statements()
    return rewritten


def _group_size(program: Program, group: set[str]) -> Expr:
    """Size of the shared storage: the largest member (when comparable)."""
    best: Expr | None = None
    best_poly: Poly | None = None
    for name in sorted(group):
        decl = program.array(name)
        if decl is None or not decl.dims:
            raise LinearizationError(f"cannot size undeclared array {name}")
        size = layout_of(decl).size()
        poly = to_poly(size)
        if best is None:
            best, best_poly = size, poly
        elif (
            poly is not None
            and best_poly is not None
            and poly.is_constant()
            and best_poly.is_constant()
            and poly.as_int() > best_poly.as_int()
        ):
            best, best_poly = size, poly
    assert best is not None
    return best


def _rewrite_stmts(
    stmts: list[Stmt],
    mapping: dict[str, str],
    layouts: dict[str, StorageLayout],
) -> list[Stmt]:
    def rewrite_expr(expr: Expr) -> Expr:
        if isinstance(expr, ArrayRef) and expr.array in mapping:
            layout = layouts[expr.array]
            offset = layout.offset(
                tuple(rewrite_expr(s) for s in expr.subscripts)
            )
            return ArrayRef(mapping[expr.array], (offset,))
        return _map_children(expr, rewrite_expr)

    return _rewrite_with(stmts, rewrite_expr)


def _rewrite_custom(
    stmts: list[Stmt], array: str, rewrite_ref
) -> list[Stmt]:
    def rewrite_expr(expr: Expr) -> Expr:
        if isinstance(expr, ArrayRef) and expr.array == array:
            mapped = ArrayRef(
                expr.array, tuple(rewrite_expr(s) for s in expr.subscripts)
            )
            return rewrite_ref(mapped)
        return _map_children(expr, rewrite_expr)

    return _rewrite_with(stmts, rewrite_expr)


def _rewrite_with(stmts: list[Stmt], rewrite_expr) -> list[Stmt]:
    from ..ir import CallStmt, If

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
    from ..ir import Call, Compare, Deref, UnaryOp

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


def is_linearized_subscript(expr: Expr, loop_vars: set[str]) -> bool:
    """Heuristic detector: a subscript mixing several loop variables.

    This is the detector behind the Figure-1 style census: a reference is
    *linearized* when a single subscript position is an affine function of
    two or more loop variables (e.g. ``C(i + 10*j)``), the shape produced by
    hand linearization, run-time dimensioning, and induction variables
    controlled by several loops.
    """
    return is_linearized(to_linexpr(expr, loop_vars))


def is_linearized(form: LinExpr | None) -> bool:
    """:func:`is_linearized_subscript` of a subscript already lowered over
    its loop variables (a :attr:`RefContext.forms` entry)."""
    return form is not None and len(form.variables()) >= 2


def count_linearized_nests(program: Program) -> int:
    """Number of outermost loop nests containing a linearized reference."""
    nests = {
        id(s.loops[0])
        for s in summarize(program).statements
        if s.loops and isinstance(s.stmt, Assignment)
        and any(is_linearized(f) for ref in s.refs for f in ref.forms)
    }
    return sum(1 for stmt in program.body if id(stmt) in nests)

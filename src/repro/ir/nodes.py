"""Loop-nest IR: programs, declarations, loops, statements.

This mirrors the program model of the paper's Section 2 (Background): nests of
DO loops around assignment statements whose array subscripts are (after
lowering) linear functions of the loop variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from .expr import ArrayRef, Expr, IntLit
from .span import Span

if TYPE_CHECKING:
    from ..symbolic import LinExpr
    from .summary import ProgramSummary, StmtSummary


@dataclass(frozen=True)
class ArrayDim:
    """One declared dimension ``lower:upper`` (FORTRAN style, inclusive)."""

    lower: Expr
    upper: Expr

    def __str__(self) -> str:
        return f"{self.lower}:{self.upper}"


@dataclass(frozen=True)
class ArrayDecl:
    """A declared array with element type and dimensions."""

    name: str
    dims: tuple[ArrayDim, ...]
    elem_type: str = "REAL"

    @property
    def rank(self) -> int:
        return len(self.dims)

    def __str__(self) -> str:
        dims = ", ".join(str(d) for d in self.dims)
        return f"{self.elem_type} {self.name}({dims})"


@dataclass(frozen=True)
class CommonBlock:
    """FORTRAN ``COMMON /name/ A, B``: members laid out sequentially.

    Storage association through COMMON is the second aliasing mechanism the
    paper names; a member reference maps to the block's linear storage at
    the member's cumulative offset.
    """

    name: str  # "" for blank COMMON
    members: tuple[str, ...]

    def __str__(self) -> str:
        label = f"/{self.name}/" if self.name else ""
        return f"COMMON {label}{', '.join(self.members)}"


@dataclass(frozen=True)
class Equivalence:
    """FORTRAN ``EQUIVALENCE (A, B)``: the named arrays share storage.

    We support the common first-element association; both arrays are then
    considered linearized over the shared storage (the ANSI requirement the
    paper quotes).
    """

    arrays: tuple[str, ...]

    def __str__(self) -> str:
        return f"EQUIVALENCE ({', '.join(self.arrays)})"


class Stmt:
    """Base class of executable statements."""


@dataclass
class Assignment(Stmt):
    """``lhs = rhs`` where lhs is an array element or a scalar."""

    lhs: Expr  # ArrayRef or Name
    rhs: Expr
    label: str | None = None  # statement id, e.g. "S1"; assigned by Program
    span: Span | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass
class Loop(Stmt):
    """A DO loop ``DO var = lower, upper, step`` with a statement body."""

    var: str
    lower: Expr
    upper: Expr
    body: list[Stmt] = field(default_factory=list)
    step: Expr = field(default_factory=lambda: IntLit(1))
    span: Span | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        head = f"DO {self.var} = {self.lower}, {self.upper}"
        if self.step != IntLit(1):
            head += f", {self.step}"
        return head


@dataclass
class If(Stmt):
    """A structured ``IF (cond) THEN ... ELSE ... ENDIF`` block.

    References inside either branch are *control dependent* on the
    condition; the dependence graph records them with a guard (see
    :class:`Guard`) instead of refusing to analyze the program.
    """

    cond: Expr
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)
    span: Span | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"IF ({self.cond}) THEN"


@dataclass
class CallStmt(Stmt):
    """A subroutine invocation ``CALL name(args)``.

    ``resolved_refs`` is filled by the interprocedural summary analysis
    (:mod:`repro.analysis.interproc`): the call's array effects translated
    into the caller's frame.  Until resolution runs the call contributes no
    references (see :mod:`repro.ir.summary`);
    :func:`repro.analysis.interproc.ensure_calls_resolved` is invoked by
    every dependence-graph entry point so an unresolved call can never
    silently reach pair analysis.
    """

    name: str
    args: tuple[Expr, ...] = field(default_factory=tuple)
    label: str | None = None
    span: Span | None = field(default=None, compare=False, repr=False)
    #: filled in by interprocedural resolution; excluded from equality so
    #: structurally identical calls stay equal before/after resolution.
    resolved_refs: list[tuple[ArrayRef, bool]] | None = field(
        default=None, compare=False, repr=False
    )

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"CALL {self.name}({args})"


@dataclass
class Subroutine:
    """A subroutine definition: ``SUBROUTINE name(params) ... END``.

    Bodies are kept unanalyzed; the interprocedural pass summarizes their
    array effects per formal parameter and translates them at each CALL.
    """

    name: str
    params: tuple[str, ...] = field(default_factory=tuple)
    decls: dict[str, ArrayDecl] = field(default_factory=dict)
    body: list[Stmt] = field(default_factory=list)
    span: Span | None = field(default=None, compare=False, repr=False)

    def array(self, name: str) -> ArrayDecl | None:
        return self.decls.get(name)

    def __str__(self) -> str:
        return f"SUBROUTINE {self.name}({', '.join(self.params)})"


@dataclass(frozen=True, eq=False)
class Guard:
    """One control-dependence qualifier: a branch of a specific ``IF``.

    Identity semantics (``eq=False``): two guards are the same guard only
    when they refer to the *same* IF node instance.  Within one program
    object — including a worker's unpickled copy — instance identity is
    consistent, which is what mutual-exclusion reasoning needs.
    """

    node: If
    branch: bool  # True = THEN branch, False = ELSE branch

    @property
    def cond(self) -> Expr:
        return self.node.cond

    def __str__(self) -> str:
        if self.branch:
            return f"({self.cond})"
        return f"!({self.cond})"


def mutually_exclusive(a: tuple[Guard, ...], b: tuple[Guard, ...]) -> bool:
    """True when the two guard sets cannot both hold in one iteration:
    they take opposite branches of the same IF instance."""
    return any(
        ga.node is gb.node and ga.branch != gb.branch for ga in a for gb in b
    )


@dataclass
class Program:
    """A whole analyzable unit: declarations plus a statement list."""

    decls: dict[str, ArrayDecl] = field(default_factory=dict)
    equivalences: list[Equivalence] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    name: str = "MAIN"
    commons: list[CommonBlock] = field(default_factory=list)
    subroutines: dict[str, Subroutine] = field(default_factory=dict)
    #: The statement summaries (:func:`repro.ir.summary.summarize`), made
    #: on first use; a pass that rewrites the program builds a new one.
    _summary: "ProgramSummary | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def array(self, name: str) -> ArrayDecl | None:
        return self.decls.get(name)

    # -- traversal ----------------------------------------------------------

    def walk_statements(
        self,
    ) -> Iterator[tuple["Assignment | CallStmt", tuple[Loop, ...]]]:
        """Yield every assignment/call with its enclosing loop tuple, in
        order (recursing through IF branches)."""
        for stmt, loops, _ in _walk(self.body, (), ()):
            yield stmt, loops

    def walk_statements_guarded(
        self,
    ) -> Iterator[tuple["Assignment | CallStmt", tuple[Loop, ...], tuple[Guard, ...]]]:
        """Like :meth:`walk_statements`, additionally yielding the stack of
        IF-branch guards enclosing each statement."""
        yield from _walk(self.body, (), ())

    def assignments(self) -> list[Assignment]:
        return [
            stmt
            for stmt, _ in self.walk_statements()
            if isinstance(stmt, Assignment)
        ]

    def number_statements(self, prefix: str = "S") -> None:
        """Assign labels S1, S2, ... to statements in textual order."""
        for index, (stmt, _) in enumerate(self.walk_statements(), start=1):
            stmt.label = f"{prefix}{index}"

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

    def statement(self, label: str) -> "Assignment | CallStmt":
        for stmt, _ in self.walk_statements():
            if stmt.label == label:
                return stmt
        raise KeyError(f"no statement labelled {label!r}")


def _walk(
    stmts: Sequence[Stmt], loops: tuple[Loop, ...], guards: tuple[Guard, ...]
) -> Iterator[tuple["Assignment | CallStmt", tuple[Loop, ...], tuple[Guard, ...]]]:
    for stmt in stmts:
        if isinstance(stmt, Assignment):
            yield stmt, loops, guards
        elif isinstance(stmt, CallStmt):
            yield stmt, loops, guards
        elif isinstance(stmt, Loop):
            yield from _walk(stmt.body, loops + (stmt,), guards)
        elif isinstance(stmt, If):
            yield from _walk(
                stmt.then_body, loops, guards + (Guard(stmt, True),)
            )
            yield from _walk(
                stmt.else_body, loops, guards + (Guard(stmt, False),)
            )
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")


def has_control_flow(stmts: Sequence[Stmt]) -> bool:
    """True when the statement list contains an IF or a CALL anywhere."""
    stack = list(stmts)
    while stack:
        node = stack.pop()
        if isinstance(node, (If, CallStmt)):
            return True
        if isinstance(node, Loop):
            stack.extend(node.body)
    return False


@dataclass(frozen=True)
class RefContext:
    """An array reference in context: statement, nest, read/write, guards.

    :mod:`repro.ir.summary` makes a program's references once, with each
    subscript's affine form over :attr:`loop_vars` (``forms``, ``None``
    where not affine) and the names each subscript mentions (``names``).
    """

    ref: ArrayRef
    stmt: "Assignment | CallStmt"
    loops: tuple[Loop, ...]
    is_write: bool
    guards: tuple[Guard, ...] = ()
    forms: "tuple[LinExpr | None, ...]" = field(
        default=(), compare=False, repr=False
    )
    names: tuple[frozenset[str], ...] = field(
        default=(), compare=False, repr=False
    )

    @property
    def loop_vars(self) -> tuple[str, ...]:
        return tuple(loop.var for loop in self.loops)

    @property
    def guarded(self) -> bool:
        """The reference only executes on specific IF branches."""
        return bool(self.guards)

    def __str__(self) -> str:
        kind = "write" if self.is_write else "read"
        return f"{self.stmt.label}:{self.ref} ({kind})"


def common_loop_count(
    a: "RefContext | StmtSummary", b: "RefContext | StmtSummary"
) -> int:
    """Number of shared outermost loops (n0 in the paper) of two references
    or statements."""
    count = 0
    for loop_a, loop_b in zip(a.loops, b.loops):
        if loop_a is loop_b:
            count += 1
        else:
            break
    return count

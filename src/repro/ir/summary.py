"""One summary of each statement's accesses, made once per program.

The Figure-4 scan needs a subscript only as a coefficient vector over its
enclosing loops (paper Section 2, eqs. (3)-(5)).  :func:`summarize` scans
each statement of a program once, in its nest, and the checks, the
dataflow and interval passes, pair construction, the scalar conflicts and
the emitter read the result instead of walking expression trees.  It is
kept on the program object, so it dies with the program.

The same walk makes the program's loop table (:class:`LoopTable`): each
loop with its enclosing loops and the scalars its body assigns, which the
rectangularized bounds (Section 2), the loop checks, the invariance passes
and induction-variable recognition read.  :func:`loop_table` makes one
for a bare statement list without lowering anything.

A CALL's references are filled in by interprocedural resolution
(:attr:`~repro.ir.nodes.CallStmt.resolved_refs`) after some passes have
read the program, so a CALL's summary is remade whenever that list is not
the one it was made from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .affine import to_linexpr
from .expr import ArrayRef, Deref, Expr, Name
from .nodes import Assignment, CallStmt, Guard, If, Loop, Program, RefContext, Stmt


@dataclass(frozen=True, eq=False)
class StmtSummary:
    """What one statement reads and writes, in its nest."""

    stmt: Assignment | CallStmt
    loops: tuple[Loop, ...]
    guards: tuple[Guard, ...]
    #: Array references in textual pre-order, subscripts lowered.
    refs: tuple[RefContext, ...]
    #: Every name the statement reads, array names included.
    reads: frozenset[str]
    #: Names read outside any array subscript.
    bare: frozenset[str]
    #: Scalars written: the assigned one, or every name passed to a CALL
    #: (the callee may assign it), repeats kept.
    writes: tuple[str, ...]
    #: The ``resolved_refs`` list a CALL's ``refs`` were made from.
    resolved: list | None = None


@dataclass(frozen=True, eq=False)
class LoopSummary:
    """One loop in its nest."""

    loop: Loop
    #: The enclosing loops, outermost first.
    outer: tuple[Loop, ...]
    #: Scalars the body assigns: assignment targets, the variables of
    #: nested loops and every name passed to a CALL (the callee may
    #: assign it).
    assigned: frozenset[str]


class LoopTable:
    """Every loop of a statement list, in textual pre-order through IF
    arms, and what the whole list assigns."""

    def __init__(self, entries: list[LoopSummary], assigned: set[str]):
        self.entries = tuple(entries)
        self._of = {id(entry.loop): entry for entry in entries}
        #: Scalars the statement list assigns, loop variables included.
        self.assigned = frozenset(assigned)
        self.loop_vars = frozenset(entry.loop.var for entry in entries)

    def of(self, loop: Loop) -> LoopSummary:
        """The entry of one loop of the statement list."""
        return self._of[id(loop)]


class ProgramSummary:
    """The summaries of a program's statements, in textual order, and its
    loop table."""

    def __init__(self, program: Program):
        statements: list = []
        entries: list = []
        assigned = _walk(program.body, (), (), statements, entries)
        lowered: dict = {}
        self._of = {
            id(stmt): _summarize(stmt, loops, guards, lowered)
            for stmt, loops, guards in statements
        }
        self.loop_table = LoopTable(entries, assigned)
        #: The loops' rectangular bounds, made by the first
        #: :func:`repro.analysis.normalize.rectangular_bounds` call.
        self.bounds: dict | None = None

    @property
    def statements(self) -> list[StmtSummary]:
        return [self.of(summary.stmt) for summary in list(self._of.values())]

    def of(self, stmt: Assignment | CallStmt) -> StmtSummary:
        """The summary of one statement of the program."""
        summary = self._of[id(stmt)]
        if isinstance(stmt, CallStmt) and summary.resolved is not stmt.resolved_refs:
            summary = _summarize(stmt, summary.loops, summary.guards, {})
            self._of[id(stmt)] = summary
        return summary


def summarize(program: Program) -> ProgramSummary:
    """The program's statement summaries, made on first use."""
    if program._summary is None:
        program._summary = ProgramSummary(program)
    return program._summary


def loop_table(stmts: list[Stmt]) -> LoopTable:
    """The loop table of a statement list, made without lowering anything."""
    entries: list = []
    assigned = _walk(stmts, (), (), [], entries)
    return LoopTable(entries, assigned)


def collect_refs(program: Program, array: str | None = None) -> list[RefContext]:
    """All array references of a program (optionally of one array), in order."""
    return [
        ref
        for summary in summarize(program).statements
        for ref in summary.refs
        if array is None or ref.ref.array == array
    ]


def scalar_conflicts(
    program: Program,
) -> Iterator[tuple[StmtSummary, bool, StmtSummary, bool]]:
    """Statement pairs touching one scalar, at least one of them writing it.

    Yields ``(a, a_writes, b, b_writes)`` with ``a`` at or before ``b`` in
    textual order.  Read from the program text alone: arrays are not
    scalars, nor are a statement's own enclosing loop variables, though
    the same name may be a scalar in another nest.  A CALL only writes.
    Codegen and the schedule verifier both call this function, so a
    conflict it misses is missed by both.
    """
    decls = set(program.decls)
    touched: dict[str, list[tuple[StmtSummary, bool]]] = {}
    for summary in summarize(program).statements:
        not_scalars = decls.union(loop.var for loop in summary.loops)
        if isinstance(summary.stmt, CallStmt):
            accesses = [
                (name, True) for name in summary.writes if name not in not_scalars
            ]
        else:
            # An assignment's own target counts whatever its name.
            accesses = [(name, True) for name in summary.writes]
            accesses += [
                (name, False) for name in summary.reads if name not in not_scalars
            ]
        for name, write in accesses:
            touched.setdefault(name, []).append((summary, write))
    for accesses in touched.values():
        if not any(write for _, write in accesses):
            continue
        for i, (a, write_a) in enumerate(accesses):
            for b, write_b in accesses[i:]:
                if write_a or write_b:
                    yield a, write_a, b, write_b


# -- building ------------------------------------------------------------------


def _walk(
    stmts: list[Stmt],
    loops: tuple[Loop, ...],
    guards: tuple[Guard, ...],
    statements: list,
    entries: list,
) -> set[str]:
    """Add each statement of ``stmts`` with its loops and guards to
    ``statements``, and each loop's entry to ``entries``, both in textual
    pre-order; return the scalars ``stmts`` assign."""
    assigned: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, Loop):
            index = len(entries)
            entries.append(None)  # placed before the entries of inner loops
            body = _walk(stmt.body, loops + (stmt,), guards, statements, entries)
            entries[index] = LoopSummary(stmt, loops, frozenset(body))
            assigned |= body
            assigned.add(stmt.var)
        elif isinstance(stmt, If):
            for branch, arm in ((True, stmt.then_body), (False, stmt.else_body)):
                arm_guards = guards + (Guard(stmt, branch),)
                assigned |= _walk(arm, loops, arm_guards, statements, entries)
        elif isinstance(stmt, (Assignment, CallStmt)):
            statements.append((stmt, loops, guards))
            assigned.update(_writes(stmt))
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")
    return assigned


def _writes(stmt: Assignment | CallStmt) -> tuple[str, ...]:
    """The scalars a statement writes: an assignment's named target, or
    every name passed to a CALL."""
    if isinstance(stmt, CallStmt):
        return tuple(arg.name for arg in stmt.args if isinstance(arg, Name))
    return (stmt.lhs.name,) if isinstance(stmt.lhs, Name) else ()


#
# ``lowered`` holds one program's subscripts lowered in their nests, keyed
# by the subscript's and the innermost loop's ids.


def _summarize(
    stmt: Assignment | CallStmt,
    loops: tuple[Loop, ...],
    guards: tuple[Guard, ...],
    lowered: dict,
) -> StmtSummary:
    refs: list[list] = []  # [ArrayRef, writes?, names per subscript]
    reads: set[str] = set()
    bare: set[str] = set()
    if isinstance(stmt, CallStmt):
        for arg in stmt.args:
            _scan(arg, [], reads, bare)
        for ref, is_write in stmt.resolved_refs or ():
            names = _subscript_names(ref, [], set())
            refs.append([ref, is_write, names])
    else:
        lhs = stmt.lhs
        if isinstance(lhs, ArrayRef):
            refs.append([lhs, True, ()])
        _scan(stmt.rhs, refs, reads, bare)
        if isinstance(lhs, ArrayRef):
            # The references inside the written one's subscripts are read,
            # and come after the right-hand side's.
            refs[0][2] = _subscript_names(lhs, refs, reads)
        elif isinstance(lhs, Deref):
            _scan(lhs.pointer, [], reads, bare)
    loop_vars = {loop.var for loop in loops}
    nest = id(loops[-1]) if loops else 0
    contexts = []
    for ref, is_write, names in refs:
        forms = []
        for sub in ref.subscripts:
            key = (id(sub), nest)
            if key not in lowered:
                lowered[key] = to_linexpr(sub, loop_vars)
            forms.append(lowered[key])
        contexts.append(
            RefContext(ref, stmt, loops, is_write, guards, tuple(forms), names)
        )
    resolved = stmt.resolved_refs if isinstance(stmt, CallStmt) else None
    return StmtSummary(
        stmt, loops, guards, tuple(contexts), frozenset(reads),
        frozenset(bare), _writes(stmt), resolved,
    )


def _scan(expr: Expr, refs: list, names: set[str], bare: set[str] | None):
    """Add the names in ``expr`` to ``names`` (and to ``bare`` those outside
    any subscript), and its array references to ``refs``, in pre-order."""
    if isinstance(expr, Name):
        names.add(expr.name)
        if bare is not None:
            bare.add(expr.name)
    elif isinstance(expr, ArrayRef):
        entry = [expr, False, ()]
        refs.append(entry)
        entry[2] = _subscript_names(expr, refs, names)
    else:
        for child in expr.children():
            _scan(child, refs, names, bare)


def _subscript_names(
    ref: ArrayRef, refs: list, names: set[str]
) -> tuple[frozenset[str], ...]:
    """The names of each subscript of ``ref``, also added to ``names``."""
    per_subscript = []
    for sub in ref.subscripts:
        mentioned: set[str] = set()
        _scan(sub, refs, mentioned, None)
        names |= mentioned
        per_subscript.append(frozenset(mentioned))
    return tuple(per_subscript)

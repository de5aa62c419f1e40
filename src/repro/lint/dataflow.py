"""A small dataflow framework over the loop-nest IR.

The IR is structured (statement lists, DO loops, block IFs and CALLs — no
arbitrary branches), so the control-flow graph stays simple: one node per
assignment or CALL, one header node per loop with a back edge from the end of
its body and a bypass edge for the zero-trip case, one branch node per IF
with an edge into each arm, plus synthetic entry/exit nodes.

:func:`solve` is the one forward worklist fixed-point solver of the lint
passes: reaching definitions here and the interval analysis of
:mod:`repro.lint.ranges` (which adds widening at loop headers) both run on
it, over one CFG per lint.  On top of it the module provides the passes
the lint engine needs:

* reaching definitions and use-def chains for scalars,
* maybe-uninitialized-read detection (``DF001``),
* loop-invariance classification of the symbols that appear in subscripts,
  loop bounds and user assumptions (``DF002``/``DF003``/``DF004``),
* control-dependent induction mutation detection (``CD002``), read off the
  IF-guard stack of each statement.

The invariance classification is what lets the dependence analysis treat a
symbolic coefficient such as ``N`` in ``A(N*N*k + N*j + i)`` as a genuine
parameter: :func:`invariant_symbols` proves the symbol is never assigned in
the program instead of assuming it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..ir import (
    Assignment,
    CallStmt,
    If,
    Loop,
    Name,
    Program,
    Stmt,
    summarize,
)
from . import codes
from .diagnostics import Diagnostic

#: Pseudo definition site for "defined before the program starts".
ENTRY_DEF = -1


@dataclass
class CFGNode:
    """One control-flow node: a statement, a loop/branch header, or entry/exit."""

    id: int
    kind: str  # "entry" | "exit" | "assign" | "loop" | "branch" | "call"
    stmt: Stmt | None = None
    loops: tuple[Loop, ...] = ()
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)
    #: Every name the node reads: its statement's (from the program's
    #: statement summary), a loop's bounds or a branch's condition.
    reads: frozenset[str] = frozenset()


@dataclass
class CFG:
    """Control-flow graph of a program; node 0 is entry, node 1 is exit."""

    nodes: list[CFGNode]

    @property
    def entry(self) -> CFGNode:
        return self.nodes[0]

    @property
    def exit(self) -> CFGNode:
        return self.nodes[1]


def build_cfg(program: Program) -> CFG:
    """Build the CFG; statement order is preserved in node ids."""
    nodes = [CFGNode(0, "entry"), CFGNode(1, "exit")]
    for tail in _lower_block(nodes, program.body, [nodes[0]], ()):
        _link(tail, nodes[1])
    summary = summarize(program)
    for node in nodes[2:]:
        stmt = node.stmt
        if isinstance(stmt, Loop):
            node.reads = frozenset(_bound_names(stmt))
        elif isinstance(stmt, If):
            node.reads = frozenset(stmt.cond.names())
        else:
            node.reads = summary.of(stmt).reads
    return CFG(nodes)


def _lower_block(
    nodes: list[CFGNode],
    stmts: list[Stmt],
    preds: list[CFGNode],
    loops: tuple[Loop, ...],
) -> list[CFGNode]:
    """Wire a statement list after ``preds``; returns the exit frontier.
    (Not a closure: a recursive closure is a reference cycle that would
    keep the nodes and their statements alive until the next collection.)"""
    for stmt in stmts:
        if isinstance(stmt, Loop):
            header = _add(nodes, "loop", stmt, loops)
            for pred in preds:
                _link(pred, header)
            tails = _lower_block(nodes, stmt.body, [header], loops + (stmt,))
            for tail in tails:
                if tail is not header:
                    _link(tail, header)  # back edge
            preds = [header]  # bypass edge: the loop may run zero times
        elif isinstance(stmt, If):
            branch = _add(nodes, "branch", stmt, loops)
            for pred in preds:
                _link(pred, branch)
            then_tails = _lower_block(nodes, stmt.then_body, [branch], loops)
            else_tails = _lower_block(nodes, stmt.else_body, [branch], loops)
            # An empty arm leaves the branch itself on the frontier: that
            # is the fall-through edge to whatever follows the ENDIF.
            preds = list({n.id: n for n in then_tails + else_tails}.values())
        elif isinstance(stmt, (Assignment, CallStmt)):
            kind = "assign" if isinstance(stmt, Assignment) else "call"
            node = _add(nodes, kind, stmt, loops)
            for pred in preds:
                _link(pred, node)
            preds = [node]
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")
    return preds


def _add(
    nodes: list[CFGNode], kind: str, stmt: Stmt, loops: tuple[Loop, ...]
) -> CFGNode:
    node = CFGNode(len(nodes), kind, stmt, loops)
    nodes.append(node)
    return node


def _link(src: CFGNode, dst: CFGNode) -> None:
    src.succs.append(dst.id)
    dst.preds.append(src.id)


# -- the fixed-point solver ---------------------------------------------------


def incoming_state(cfg: CFG, state: dict, node: CFGNode, transfer, join):
    """Join of what every reached predecessor sends along its edge to
    ``node``; ``None`` when no predecessor is reached (or every edge is
    infeasible, which ``transfer`` signals by returning ``None``)."""
    incoming = None
    for pred_id in node.preds:
        facts = state[pred_id]
        if facts is None:
            continue
        out = transfer(cfg.nodes[pred_id], facts, node)
        if out is not None:
            incoming = out if incoming is None else join(incoming, out)
    return incoming


def solve(
    cfg: CFG,
    *,
    boundary,
    transfer: Callable,
    join: Callable,
    widen: Callable | None = None,
) -> dict:
    """Forward worklist fixed-point solver; returns the IN state of every node.

    ``boundary`` seeds the entry node; ``None`` is the state of a node not
    (yet) reached.  ``transfer(pred, state, succ)`` is what ``pred`` sends
    along its edge to ``succ``, and ``join`` merges two states (neither is
    ever ``None``).  A loop header combines its previous state with the
    incoming one by ``join``, or by ``widen(old, new, visits)`` when given,
    ``visits`` counting the times the header has been recomputed.
    """
    entry = cfg.entry.id
    state: dict = {node.id: None for node in cfg.nodes}
    state[entry] = boundary
    visits: dict[int, int] = {}
    worklist = deque(node.id for node in cfg.nodes)
    queued = set(worklist)
    while worklist:
        nid = worklist.popleft()
        queued.discard(nid)
        node = cfg.nodes[nid]
        if nid != entry:
            incoming = incoming_state(cfg, state, node, transfer, join)
            old = state[nid]
            if node.kind == "loop":
                visits[nid] = visits.get(nid, 0) + 1
                if old is not None and incoming is not None:
                    if widen is None:
                        incoming = join(old, incoming)
                    else:
                        incoming = widen(old, incoming, visits[nid])
            if incoming == old:
                continue
            state[nid] = incoming
        for succ in node.succs:
            if succ not in queued:
                queued.add(succ)
                worklist.append(succ)
    return state


# -- scalar reaching definitions ----------------------------------------------


def _defined_name(node: CFGNode) -> str | None:
    """The scalar a node defines, if any."""
    if node.kind == "loop":
        assert isinstance(node.stmt, Loop)
        return node.stmt.var
    if node.kind == "assign":
        assert isinstance(node.stmt, Assignment)
        if isinstance(node.stmt.lhs, Name):
            return node.stmt.lhs.name
    return None


def _bound_names(loop: Loop) -> set[str]:
    """The names a loop's bounds and step read."""
    return loop.lower.names() | loop.upper.names() | loop.step.names()


def _scalar_reads(node: CFGNode, arrays: set[str]) -> set[str]:
    """Scalar names a node reads (subscripts, rhs, loop bounds, conditions)."""
    return {name for name in node.reads if name not in arrays}


@dataclass
class ReachingDefinitions:
    """Result of the reaching-definitions pass over scalars.

    Facts are ``(name, node_id)`` pairs; ``node_id`` is :data:`ENTRY_DEF`
    for the pseudo-definition "live at program entry".
    """

    cfg: CFG
    reach_in: dict[int, frozenset]
    defined_anywhere: set[str]

    def use_def(self, node: CFGNode) -> dict[str, set[int]]:
        """Definition sites reaching each scalar the node reads."""
        arrays = self._arrays
        chains: dict[str, set[int]] = {}
        for name in _scalar_reads(node, arrays):
            chains[name] = {
                def_id
                for def_name, def_id in self.reach_in[node.id]
                if def_name == name
            }
        return chains

    _arrays: set[str] = field(default_factory=set)


def reaching_definitions(program: Program, cfg: CFG | None = None) -> ReachingDefinitions:
    """Forward may-analysis: which scalar definitions reach each node."""
    if cfg is None:
        cfg = build_cfg(program)

    # Each node's effect, worked out once: the scalar it kills and the facts
    # it generates.  A callee may assign any scalar passed by name: gen
    # without kill (may-define) keeps the analysis sound on both outcomes.
    summary = summarize(program)
    effects: dict[int, tuple[str | None, frozenset]] = {}
    for node in cfg.nodes:
        if node.kind == "call":
            writes = summary.of(node.stmt).writes
            effects[node.id] = (
                None, frozenset((name, node.id) for name in writes)
            )
        elif (name := _defined_name(node)) is not None:
            effects[node.id] = (name, frozenset({(name, node.id)}))

    # Every scalar with at least one real definition gets an entry pseudo-def
    # so a read *before* the first definition is "maybe uninitialized", not
    # "definitely".  Scalars never defined at all are symbolic parameters.
    defined = {name for name, _ in effects.values() if name is not None}
    boundary = frozenset((name, ENTRY_DEF) for name in defined)
    # Every fact that can arise about each scalar: what an assignment kills.
    facts_of: dict[str, set] = {}
    for fact in boundary.union(*(gen for _, gen in effects.values())):
        facts_of.setdefault(fact[0], set()).add(fact)

    def transfer(node: CFGNode, facts: frozenset, _succ) -> frozenset:
        effect = effects.get(node.id)
        if effect is None:
            return facts
        killed, gen = effect
        if killed is not None:
            facts = facts - facts_of[killed]
        return facts | gen

    reach_in = solve(
        cfg, boundary=boundary, transfer=transfer, join=frozenset.union
    )
    result = ReachingDefinitions(cfg, reach_in, defined)
    result._arrays = set(program.decls)
    return result


# -- invariance classification ------------------------------------------------


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


def invariant_symbols(program: Program) -> set[str]:
    """Symbols proven invariant over the whole program.

    A symbol is a true parameter (``N``, ``Q``...) iff it is never assigned,
    never used as a loop variable, and never passed by name to a CALL; such
    symbols are safe to constrain in :class:`repro.symbolic.Assumptions` and
    to use as symbolic coefficients.
    """
    mentioned: set[str] = set()
    for summary in summarize(program).statements:
        mentioned |= summary.reads
        for loop in summary.loops:
            mentioned |= _bound_names(loop)
        for guard in summary.guards:
            mentioned |= guard.cond.names()
    return mentioned - assigned_scalars(program.body) - set(program.decls)


# -- diagnostic passes --------------------------------------------------------


def check_uninitialized_reads(
    program: Program, cfg: CFG | None = None
) -> list[Diagnostic]:
    """``DF001``: scalar reads that only the entry pseudo-definition reaches,
    for scalars the program does define somewhere (so they are not symbolic
    parameters)."""
    if cfg is None:
        cfg = build_cfg(program)
    rd = reaching_definitions(program, cfg)
    diags: list[Diagnostic] = []
    for node in cfg.nodes:
        if node.kind not in ("assign", "loop", "branch", "call"):
            continue
        for name, defs in sorted(rd.use_def(node).items()):
            if name not in rd.defined_anywhere:
                continue  # symbolic parameter
            if defs and defs != {ENTRY_DEF}:
                continue  # some real definition reaches (maybe-defined is ok)
            label = getattr(node.stmt, "label", None)
            span = getattr(node.stmt, "span", None)
            diags.append(
                Diagnostic.make(
                    codes.DF001,
                    f"scalar {name} may be read before it is assigned",
                    statement=label,
                    span=span,
                )
            )
    return diags


def check_subscript_invariance(program: Program) -> list[Diagnostic]:
    """``DF002``: a subscript uses a scalar that an enclosing loop modifies.

    Such subscripts are not affine functions of the loop variables, so the
    dependence analysis would silently treat the scalar as a constant.
    (Induction variables should be substituted away before this check.)
    """
    arrays = set(program.decls)
    diags: list[Diagnostic] = []
    for summary in summarize(program).statements:
        loops, stmt = summary.loops, summary.stmt
        if not loops:
            continue
        # Every enclosing loop's body lies inside the outermost one's.
        mutated = assigned_scalars(loops[0].body) - arrays
        mutated -= {loop.var for loop in loops}
        if not mutated:
            continue
        for ref in summary.refs:
            for names in ref.names:
                for name in sorted(names & mutated):
                    diags.append(
                        Diagnostic.make(
                            codes.DF002,
                            f"subscript of {ref.ref.array} uses {name}, which "
                            f"is modified inside an enclosing loop",
                            statement=stmt.label,
                            span=stmt.span,
                        )
                    )
    return diags


def check_bound_invariance(program: Program) -> list[Diagnostic]:
    """``DF003``: a loop bound reads a scalar that the loop body modifies."""
    diags: list[Diagnostic] = []

    def visit(stmts: list[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, If):
                visit(stmt.then_body)
                visit(stmt.else_body)
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
            visit(stmt.body)

    visit(program.body)
    return diags


def check_assumption_invariance(
    program: Program, assumption_symbols: set[str]
) -> list[Diagnostic]:
    """``DF004``: a user assumption constrains a non-invariant symbol.

    Assumptions such as ``N >= 5`` are only sound when ``N`` is a true
    parameter of the program; constraining a scalar the program assigns (or a
    loop variable) would let the dependence tests use stale facts.
    """
    mutated = assumption_symbols & assigned_scalars(program.body)
    return [
        Diagnostic.make(
            codes.DF004,
            f"assumption constrains {symbol}, which the program "
            f"modifies (not a loop-invariant parameter)",
        )
        for symbol in sorted(mutated)
    ]


def check_control_dependent_mutation(program: Program) -> list[Diagnostic]:
    """``CD002``: a subscript-feeding scalar is assigned under a guard.

    A scalar assigned inside an IF arm within a loop nest has no analyzable
    closed form — its value depends on how often the guard held, so the
    induction recognizer cannot substitute it and any subscript using it
    stays opaque.  This is the control-flow analogue of ``DF002``.
    """
    summaries = summarize(program).statements
    subscript_users: set[str] = set()
    for summary in summaries:
        for ref in summary.refs:
            subscript_users.update(*ref.names)
    subscript_users -= set(program.decls)
    diags: list[Diagnostic] = []
    for summary in summaries:
        stmt, loops, guards = summary.stmt, summary.loops, summary.guards
        if not guards or not loops:
            continue
        if (
            isinstance(stmt, Assignment)
            and isinstance(stmt.lhs, Name)
            and stmt.lhs.name in subscript_users
        ):
            diags.append(
                Diagnostic.make(
                    codes.CD002,
                    f"scalar {stmt.lhs.name} is assigned under guard "
                    f"{guards[-1]} inside loop {loops[-1].var} but feeds "
                    f"array subscripts; its sequence is not analyzable",
                    statement=stmt.label,
                    span=stmt.span,
                )
            )
    return diags


def run_dataflow_checks(
    program: Program,
    assumption_symbols: set[str] | None = None,
    cfg: CFG | None = None,
) -> list[Diagnostic]:
    """All DF/CD dataflow passes over one program, in code order.

    ``cfg`` is the program's CFG when the caller already built it.
    """
    diags = check_uninitialized_reads(program, cfg)
    diags += check_subscript_invariance(program)
    diags += check_bound_invariance(program)
    if assumption_symbols:
        diags += check_assumption_invariance(program, assumption_symbols)
    diags += check_control_dependent_mutation(program)
    return diags

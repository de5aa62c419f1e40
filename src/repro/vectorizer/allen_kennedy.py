"""Allen–Kennedy loop distribution and vectorization [AK87].

This is the consumer the paper implemented its test inside (the VIC
vectorizer): given the dependence graph, the classic ``codegen`` recursion
distributes loops around strongly connected components and rewrites
dependence-free statements as vector (FORTRAN-90 array) operations.

``codegen(R, k)``:

1. build the statement dependence graph restricted to edges that can be
   carried at level >= k or be loop independent;
2. find SCCs; process them in topological order (loop distribution +
   statement reordering);
3. a trivial SCC (single statement, no self edge) becomes a vector
   statement over its loops from level k inward;
4. a non-trivial SCC keeps a serial level-k loop; recurse at k+1 with the
   level-k carried edges removed.

Scalar references (anything the dependence graph does not model) serialize
conservatively: statements touching a common scalar written by either side
get mutual star-direction edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.chaos import chaos_point
from ..depgraph.builder import Dependence, DependenceGraph
from ..dirvec.vectors import D_EQ, DirVec
from ..ir import (
    Assignment,
    CallStmt,
    If,
    Loop,
    Program,
    RefContext,
    common_loop_count,
    has_control_flow,
    scalar_conflicts,
)
from .scc import strongly_connected_components


@dataclass
class VectorLoop:
    """One statement with its serial and vector (parallel) loops."""

    stmt: Assignment
    loops: tuple[Loop, ...]
    serial_levels: tuple[int, ...]  # 1-based indices into ``loops``
    vector_levels: tuple[int, ...]


@dataclass
class VectorizationResult:
    """The vectorizer's plan: per-statement loop classification."""

    program: Program
    plan: list[VectorLoop] = field(default_factory=list)
    #: Nested structure produced by codegen, used by the emitter.
    schedule: list = field(default_factory=list)

    def statement_plan(self, label: str) -> VectorLoop:
        for entry in self.plan:
            if entry.stmt.label == label:
                return entry
        raise KeyError(f"no statement labelled {label!r}")

    def vectorized_statements(self) -> list[str]:
        return [p.stmt.label for p in self.plan if p.vector_levels]

    def fully_serial_statements(self) -> list[str]:
        return [p.stmt.label for p in self.plan if not p.vector_levels]


# Schedule tree nodes: ("loop", Loop, level, children),
# ("stmt", VectorLoop), or ("if", If, then_children, else_children).
ScheduleNode = tuple


def vectorize(graph: DependenceGraph) -> VectorizationResult:
    """Run Allen–Kennedy codegen over an analyzed program.

    Programs with control flow (IF blocks or CALLs) take the fully serial
    schedule: the AK recursion reorders and distributes statements, which is
    only legal when every statement instance of a loop body executes — a
    guarded statement breaks that premise, and a CALL's side effects cannot
    be reordered against anything.  The guarded dependence edges in the
    graph keep the serial plan verifiable (see :mod:`repro.lint.schedule`).
    """
    chaos_point("vectorize.codegen")
    program = graph.program
    if has_control_flow(program.body):
        return serial_plan(program)
    statements = list(program.walk_statements())
    edges = list(graph.edges) + _scalar_edges(program)
    result = VectorizationResult(program)

    # Group statements by their outermost nest; process nests in order.
    body_groups: dict[int, list[tuple[Assignment, tuple[Loop, ...]]]] = {}
    for stmt, loops in statements:
        if loops:
            body_groups.setdefault(id(loops[0]), []).append((stmt, loops))

    for stmt in program.body:
        if isinstance(stmt, Loop):
            members = body_groups.get(id(stmt), [])
            result.schedule.extend(_codegen(members, 1, edges, result))
        elif isinstance(stmt, Assignment):
            entry = VectorLoop(stmt, (), (), ())
            result.plan.append(entry)
            result.schedule.append(("stmt", entry))
    result.plan.sort(key=lambda p: p.stmt.label or "")
    return result


def serial_plan(program: Program) -> VectorizationResult:
    """A fully serial schedule: every loop kept serial, nothing vectorized.

    The vectorize-phase conservative fallback: original loop order and
    statement order are preserved exactly, so the plan is legal under *any*
    dependence graph — including the one the failed analysis never finished
    computing.
    """
    result = VectorizationResult(program)
    for stmt in program.body:
        node = _serial_node(stmt, (), result.plan)
        if node is not None:
            result.schedule.append(node)
    result.plan.sort(key=lambda p: p.stmt.label or "")
    return result


def _serial_node(stmt, loops: tuple[Loop, ...], plan: list[VectorLoop]):
    """The serial schedule node of one statement; its entries join ``plan``.
    (Not a closure: a recursive closure is a reference cycle that would
    keep the result and its program alive until the next collection.)"""
    if isinstance(stmt, Loop):
        level = len(loops) + 1
        children = []
        for child in stmt.body:
            node = _serial_node(child, loops + (stmt,), plan)
            if node is not None:
                children.append(node)
        return ("loop", stmt, level, children)
    if isinstance(stmt, If):
        then_children = [
            node
            for child in stmt.then_body
            if (node := _serial_node(child, loops, plan)) is not None
        ]
        else_children = [
            node
            for child in stmt.else_body
            if (node := _serial_node(child, loops, plan)) is not None
        ]
        return ("if", stmt, then_children, else_children)
    if isinstance(stmt, (Assignment, CallStmt)):
        entry = VectorLoop(stmt, loops, tuple(range(1, len(loops) + 1)), ())
        plan.append(entry)
        return ("stmt", entry)
    return None


def _codegen(
    members: list[tuple[Assignment, tuple[Loop, ...]]],
    level: int,
    edges: list[Dependence],
    result: VectorizationResult,
) -> list[ScheduleNode]:
    """The AK recursion over the statements of one loop body subtree."""
    labels = {stmt.label for stmt, _ in members}
    relevant = [
        e
        for e in edges
        if e.source.stmt.label in labels
        and e.sink.stmt.label in labels
        and _edge_active_at(e, level)
    ]
    successors: dict[str, set[str]] = {label: set() for label in labels}
    for edge in relevant:
        successors[edge.source.stmt.label].add(edge.sink.stmt.label)

    order = {stmt.label: i for i, (stmt, _) in enumerate(members)}
    components = strongly_connected_components(
        sorted(labels, key=lambda l: order[l]), successors
    )
    components = _stable_topological(components, successors, order)
    by_label = {stmt.label: (stmt, loops) for stmt, loops in members}

    out: list[ScheduleNode] = []
    for component in components:
        component = sorted(component, key=lambda l: order[l])
        is_trivial = len(component) == 1 and component[0] not in successors[
            component[0]
        ]
        if is_trivial:
            stmt, loops = by_label[component[0]]
            serial = tuple(range(1, level))
            vector = tuple(range(level, len(loops) + 1))
            entry = VectorLoop(stmt, loops, serial, vector)
            result.plan.append(entry)
            out.append(("stmt", entry))
            continue
        # Non-trivial SCC: serialize the level-k loop(s) and recurse.
        group = [by_label[label] for label in component]
        deepest_common = min(len(loops) for _, loops in group)
        if level > deepest_common:
            # No shared loop left to serialize: each statement stays fully
            # serial inside its own remaining loops (which must appear in
            # the schedule tree, or execution would skip them).  Textual
            # order is safe: the only constraints left between group
            # members are same-instance orderings — every shared level is
            # already serialized, and no deeper level is shared.
            for stmt, loops in group:
                entry = VectorLoop(
                    stmt, loops, tuple(range(1, len(loops) + 1)), ()
                )
                result.plan.append(entry)
                node: ScheduleNode = ("stmt", entry)
                for inner in range(len(loops), level - 1, -1):
                    node = ("loop", loops[inner - 1], inner, [node])
                out.append(node)
            continue
        shared_loop = group[0][1][level - 1]
        remaining = [
            e
            for e in edges
            if not _edge_carried_exactly_at(e, level)
        ]
        children = _codegen(group, level + 1, remaining, result)
        out.append(("loop", shared_loop, level, children))
    return out


def _stable_topological(
    components: list[list[str]],
    successors: dict[str, set[str]],
    order: dict[str, int],
) -> list[list[str]]:
    """Re-sort SCCs: topological, ties broken by textual statement order."""
    comp_of = {
        label: idx for idx, comp in enumerate(components) for label in comp
    }
    preds: dict[int, set[int]] = {i: set() for i in range(len(components))}
    for src, dsts in successors.items():
        for dst in dsts:
            a, b = comp_of[src], comp_of[dst]
            if a != b:
                preds[b].add(a)
    key = {i: min(order[l] for l in comp) for i, comp in enumerate(components)}
    remaining = set(range(len(components)))
    out: list[list[str]] = []
    while remaining:
        ready = [i for i in remaining if not (preds[i] & remaining)]
        chosen = min(ready, key=lambda i: key[i])
        remaining.discard(chosen)
        out.append(components[chosen])
    return out


def _edge_active_at(edge: Dependence, level: int) -> bool:
    """Can the edge be carried at some level >= ``level``, or be loop
    independent?  Conservative: a composite element counts for every
    relation it contains."""
    for atomic in edge.direction.atomic_vectors():
        carried = _carried_level(atomic)
        if carried is None or carried >= level:
            return True
    return False


def _carried_level(atomic: DirVec) -> int | None:
    for position, elem in enumerate(atomic, start=1):
        if elem != D_EQ:
            return position
    return None


def _edge_carried_exactly_at(edge: Dependence, level: int) -> bool:
    """The edge is *guaranteed* carried at ``level`` (removable after
    serializing that loop): all earlier elements exactly '=', the level
    element without '='."""
    direction = edge.direction
    if len(direction) < level:
        return False
    for elem in direction[: level - 1]:
        if elem != D_EQ:
            return False
    return D_EQ not in direction[level - 1]


def _scalar_edges(program: Program) -> list[Dependence]:
    """Conservative mutual edges for statements sharing a written scalar."""
    edges: list[Dependence] = []
    for a, write_a, b, write_b in scalar_conflicts(program):
        star = DirVec.star(common_loop_count(a, b))
        ctx_a = RefContext(_scalar_ref(a.stmt), a.stmt, a.loops, write_a)
        ctx_b = RefContext(_scalar_ref(b.stmt), b.stmt, b.loops, write_b)
        edges.append(Dependence(ctx_a, ctx_b, "scalar", star, None, True))
        if a is not b:
            edges.append(Dependence(ctx_b, ctx_a, "scalar", star, None, True))
    return edges


def _scalar_ref(stmt):
    from ..ir import ArrayRef

    if isinstance(stmt, Assignment) and isinstance(stmt.lhs, ArrayRef):
        return stmt.lhs
    return ArrayRef("<scalar>", ())

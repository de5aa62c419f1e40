"""Static verification of vectorizer schedules (``VR`` diagnostics).

The Allen–Kennedy consumer (:mod:`repro.vectorizer`) acts on dependence
verdicts; until this pass, only the dynamic oracle (running the schedule
through :mod:`repro.vectorizer.execute` and diffing against the serial
interpreter) could catch an illegal schedule — and only on the inputs we
happened to run.  This module re-derives schedule legality *statically* and
*independently*: it never consults codegen's own edge classification, only
the dependence graph, the emitted schedule tree, and first principles about
the tree's execution semantics:

* nodes of a body list execute in order, each to completion;
* a serialized loop runs its body once per iteration, iterations in order;
* a vector statement gathers every right-hand side across the full vector
  iteration space before performing any write (FORTRAN-90 array assignment
  semantics).

From those rules, a dependence from access instance ``alpha`` to instance
``beta`` is respected iff ``alpha``'s access happens no later than
``beta``'s — except that an *anti* dependence of a statement on itself
carried only at vector levels is legalized by the gather-before-write
window: every read of the statement's vector instance block precedes every
one of its writes, so a read of iteration ``i`` can never observe the write
of iteration ``i + d``.  (The same argument does **not** apply to flow or
output self dependences: a flow dependence carried at a vector level makes
the gather read a stale value, and a vector-carried output dependence
leaves the surviving write unspecified.)

Scalar conflicts — references the dependence graph does not model — are
re-derived here from the program text rather than taken from codegen, so a
codegen bug in its conservative scalar serialization is also caught.

Checks and codes:

* **VR001** (error) — a dependence is carried at a level the schedule runs
  as a vector loop and is not legalized by gather-before-write: a provable
  race;
* **VR002** (error) — statement order in the schedule violates a
  loop-independent dependence;
* **VR003** (error) — distributed-loop order violates a carried dependence
  (a cross-SCC serialization inconsistency), or the schedule tree does not
  match the plan's serial/vector classification;
* **VR004** (error) — a loop interchange makes some dependence direction
  vector lexicographically negative (the transform would reverse it);
* **VR005** (warning) — a loop level is serialized although no analyzed
  dependence requires any serialization at or inside it: the conservative
  scalar/assumed-edge serialization gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..core.chaos import chaos_point
from ..dirvec.vectors import D_EQ, D_GT, D_LT, DirVec
from ..ir import Program, common_loop_count, scalar_conflicts
from . import codes
from .diagnostics import Diagnostic, sort_diagnostics

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..depgraph.builder import DependenceGraph
    from ..vectorizer.allen_kennedy import VectorizationResult


@dataclass(frozen=True)
class _Site:
    """Where one statement landed in the schedule tree."""

    label: str
    entry: object  # the VectorLoop plan entry
    #: Ancestor serialized-loop chain: (tree-node id, level, loop var) per
    #: enclosing ("loop", ...) node, outermost first.  Node ids distinguish
    #: distributed copies of the same source loop.
    chain: tuple[tuple[int, int, str], ...]
    index: int  # preorder position of the statement node


@dataclass(frozen=True)
class _Obligation:
    """One dependence the schedule must respect, in raw (composite) form."""

    source: str
    sink: str
    direction: DirVec
    source_writes: bool
    sink_writes: bool
    #: True for conservatively assumed edges and re-derived scalar
    #: conflicts; these never justify suppressing a VR005 gap warning.
    conservative: bool


def verify_schedule(
    result: "VectorizationResult",
    graph: "DependenceGraph",
    *,
    gaps: bool = True,
) -> list[Diagnostic]:
    """Independently re-derive the legality of a vectorization schedule.

    Returns the (sorted) list of ``VR`` diagnostics; an empty list means
    every dependence of ``graph`` — plus every scalar conflict re-derived
    from the program — is provably respected by the schedule.  ``gaps=False``
    suppresses the advisory VR005 over-serialization warnings.
    """
    chaos_point("schedule.verify")
    sites, diags = _collect_sites(result)
    text_order = {
        stmt.label: position
        for position, (stmt, _) in enumerate(result.program.walk_statements())
    }
    obligations = list(_graph_obligations(graph))
    obligations += list(_scalar_obligations(result.program))

    seen: set[tuple] = set()
    for obligation in obligations:
        source = sites.get(obligation.source)
        sink = sites.get(obligation.sink)
        if source is None or sink is None:
            continue  # the structural pass already reported the omission
        for atomic in obligation.direction.atomic_vectors():
            normalized = _normalize(obligation, atomic)
            if normalized is None:
                continue
            if normalized in seen:
                continue  # mutual star edges describe each atom twice
            seen.add(normalized)
            src_label, snk_label, vector, kind = normalized
            finding = _check_obligation(
                sites[src_label], sites[snk_label], vector, kind, text_order
            )
            if finding is not None:
                diags.append(finding)
    if gaps:
        diags.extend(_serialization_gaps(result, graph))
    return sort_diagnostics(diags)


# -- schedule-tree structure --------------------------------------------------


def _collect_sites(
    result: "VectorizationResult",
) -> tuple[dict[str, _Site], list[Diagnostic]]:
    """Map statement labels to their schedule-tree sites, with structure
    checks: every plan entry appears exactly once, its enclosing serialized
    loops are exactly its serial levels, and serial+vector levels partition
    the statement's nest."""
    sites: dict[str, _Site] = {}
    diags: list[Diagnostic] = []
    counter = 0

    def walk(nodes: list, chain: tuple) -> None:
        nonlocal counter
        for node in nodes:
            counter += 1
            if node[0] == "loop":
                _, loop, level, children = node
                walk(children, chain + ((id(node), level, loop.var),))
            elif node[0] == "if":
                # Both arms run under the same serialized-loop chain; the
                # branch node itself serializes nothing.
                _, _if_stmt, then_children, else_children = node
                walk(then_children, chain)
                walk(else_children, chain)
            else:
                entry = node[1]
                label = entry.stmt.label or f"@{counter}"
                if label in sites:
                    diags.append(
                        _structural(
                            f"statement {label} appears more than once in "
                            f"the schedule tree",
                            entry,
                        )
                    )
                    continue
                sites[label] = _Site(label, entry, chain, counter)

    walk(result.schedule, ())

    for entry in result.plan:
        label = entry.stmt.label
        site = sites.get(label)
        if site is None:
            diags.append(
                _structural(
                    f"statement {label} is in the plan but absent from the "
                    f"schedule tree",
                    entry,
                )
            )
            continue
        depth = len(entry.loops)
        levels = sorted(entry.serial_levels) + sorted(entry.vector_levels)
        if sorted(levels) != list(range(1, depth + 1)):
            diags.append(
                _structural(
                    f"statement {label}: serial levels "
                    f"{entry.serial_levels} and vector levels "
                    f"{entry.vector_levels} do not partition its "
                    f"{depth}-deep nest",
                    entry,
                )
            )
            continue
        chain_levels = tuple(level for _, level, _ in site.chain)
        if chain_levels != tuple(sorted(entry.serial_levels)):
            diags.append(
                _structural(
                    f"statement {label}: the schedule tree serializes "
                    f"levels {chain_levels or '()'} but the plan declares "
                    f"serial levels {tuple(sorted(entry.serial_levels))}",
                    entry,
                )
            )
    return sites, diags


def _structural(message: str, entry) -> Diagnostic:
    return Diagnostic.make(
        codes.VR003,
        message,
        statement=entry.stmt.label,
        span=entry.stmt.span,
    )


# -- obligations --------------------------------------------------------------


def _graph_obligations(graph: "DependenceGraph") -> Iterable[_Obligation]:
    for edge in graph.edges:
        if edge.kind == "input":
            continue  # read/read pairs constrain nothing
        yield _Obligation(
            edge.source.stmt.label,
            edge.sink.stmt.label,
            edge.direction,
            edge.source.is_write,
            edge.sink.is_write,
            edge.assumed,
        )


def _scalar_obligations(program: Program) -> Iterable[_Obligation]:
    """Conservative obligations for statements sharing a written scalar.

    Re-derived from the program text (not taken from codegen): any scalar
    name read or written by two statements, with at least one write, may
    alias across any relation of their common loops — a star direction over
    the shared nest, in both orientations.
    """
    for a, write_a, b, write_b in scalar_conflicts(program):
        star = DirVec.star(common_loop_count(a, b))
        source, sink = a.stmt.label, b.stmt.label
        yield _Obligation(source, sink, star, write_a, write_b, True)
        if a is not b:
            yield _Obligation(sink, source, star, write_b, write_a, True)


def _normalize(
    obligation: _Obligation, atomic: DirVec
) -> tuple[str, str, DirVec, str] | None:
    """Orient one atomic vector source-instance-first.

    A lexicographically negative atom says the *sink* instance executes
    first — the dependence actually runs sink to source, so the atom is
    reversed and the kind recomputed from the swapped access roles.  Returns
    ``None`` for vacuous atoms (read/read after reversal never happens: at
    least one side writes).
    """
    klass = _lex_class(atomic)
    if klass == "negative":
        return (
            obligation.sink,
            obligation.source,
            atomic.reversed_directions(),
            _kind(obligation.sink_writes, obligation.source_writes),
        )
    return (
        obligation.source,
        obligation.sink,
        atomic,
        _kind(obligation.source_writes, obligation.sink_writes),
    )


def _kind(source_writes: bool, sink_writes: bool) -> str:
    if source_writes and sink_writes:
        return "output"
    if source_writes:
        return "flow"
    return "anti"


def _lex_class(atomic: DirVec) -> str:
    for elem in atomic:
        if elem == D_LT:
            return "positive"
        if elem == D_GT:
            return "negative"
    return "zero"


def _carried_level(atomic: DirVec) -> int | None:
    for position, elem in enumerate(atomic, start=1):
        if elem != D_EQ:
            return position
    return None


# -- the decision procedure ---------------------------------------------------


def _check_obligation(
    source: _Site,
    sink: _Site,
    atomic: DirVec,
    kind: str,
    text_order: dict[str, int],
) -> Diagnostic | None:
    """Is one oriented atomic dependence respected by the schedule?

    ``atomic`` is lexicographically non-negative: the source instance
    executes first in the original serial program.
    """
    level = _carried_level(atomic)
    if level is None:
        # Loop-independent: both instances share every common iteration.
        if source.label == sink.label:
            return None  # intra-instance order is fixed (reads before write)
        if text_order[sink.label] < text_order[source.label]:
            # The sink runs textually first inside an iteration, so this
            # orientation of a star/assumed edge describes no execution.
            return None
        if source.index < sink.index:
            return None
        return Diagnostic.make(
            codes.VR002,
            f"loop-independent {kind} dependence "
            f"{source.label} -> {sink.label} {atomic}, but {sink.label} is "
            f"scheduled before {source.label}",
            statement=source.label,
            span=source.entry.stmt.span,
        )

    shared = _shared_serial_levels(source, sink)
    if level <= shared:
        # The carrying loop is serialized and shared: iteration `i` of its
        # body completes before iteration `i + d` starts.
        return None
    if source.label == sink.label:
        # Carried at one of the statement's own vector levels.
        if kind == "anti":
            # Gather-before-write: every read of the vector instance block
            # happens before any of its writes.
            return None
        return Diagnostic.make(
            codes.VR001,
            f"{kind} dependence of {source.label} on itself {atomic} is "
            f"carried at level {level}, which the schedule runs as a vector "
            f"loop: parallel execution races",
            statement=source.label,
            span=source.entry.stmt.span,
        )
    if source.index < sink.index:
        # Distribution: within the shared serialized instance, every
        # iteration of the source's subtree completes before the sink's
        # subtree starts, so source accesses all precede sink accesses.
        return None
    return Diagnostic.make(
        codes.VR003,
        f"{kind} dependence {source.label} -> {sink.label} {atomic} is "
        f"carried at level {level}, which the schedule distributes, but "
        f"{sink.label}'s loop runs before {source.label}'s",
        statement=source.label,
        span=source.entry.stmt.span,
    )


def _shared_serial_levels(a: _Site, b: _Site) -> int:
    """Number of serialized loop *instances* (tree nodes) enclosing both."""
    shared = 0
    for node_a, node_b in zip(a.chain, b.chain):
        if node_a[0] == node_b[0]:
            shared += 1
        else:
            break
    return shared


# -- VR005: the conservatism gap ----------------------------------------------


def _serialization_gaps(
    result: "VectorizationResult", graph: "DependenceGraph"
) -> list[Diagnostic]:
    """Serialized levels no analyzed dependence asks for.

    A serial level ``l`` of a statement is *justified* when some
    non-conservative edge incident to the statement can be carried at or
    inside ``l``, or is loop independent (loop-independent edges keep the
    statement inside recurrence SCCs, so they count).  A level with no
    justification at all is serialized purely by conservative scalar or
    assumed star edges — legal, but a vectorization opportunity lost.
    """
    incident: dict[str, set[int | None]] = {}
    for edge in graph.edges:
        if edge.assumed or edge.kind == "input":
            continue
        levels = {
            _carried_level(atomic)
            for atomic in edge.direction.atomic_vectors()
        }
        for label in (edge.source.stmt.label, edge.sink.stmt.label):
            incident.setdefault(label, set()).update(levels)

    diags: list[Diagnostic] = []
    for entry in result.plan:
        carried = incident.get(entry.stmt.label, set())
        for level in sorted(entry.serial_levels):
            justified = any(
                c is None or c >= level for c in carried
            )
            if justified:
                continue
            diags.append(
                Diagnostic.make(
                    codes.VR005,
                    f"level {level} of {entry.stmt.label} is serialized, "
                    f"but no analyzed dependence is carried at or inside "
                    f"it (conservative scalar/assumed serialization)",
                    statement=entry.stmt.label,
                    span=entry.stmt.span,
                )
            )
            break  # inner levels of the same statement add no information
    return diags


# -- VR004: interchange re-validation -----------------------------------------


def verify_interchange(
    graph: "DependenceGraph", level_a: int, level_b: int
) -> list[Diagnostic]:
    """Re-validate a loop interchange directly from direction vectors.

    Swapping loop levels permutes every direction vector the same way; the
    interchange is legal iff no realizable (lexicographically non-negative)
    atomic vector becomes lexicographically negative — i.e. no dependence
    ends up running backwards in time.  One VR004 diagnostic is emitted per
    offending edge.
    """
    diags: list[Diagnostic] = []
    for edge in graph.edges:
        if edge.kind == "input":
            continue
        if len(edge.direction) < max(level_a, level_b):
            continue  # the edge lives outside one of the loops: unaffected
        for atomic in edge.direction.atomic_vectors():
            if _lex_class(atomic) == "negative":
                continue  # the mirror edge carries this orientation
            swapped = list(atomic)
            swapped[level_a - 1], swapped[level_b - 1] = (
                swapped[level_b - 1],
                swapped[level_a - 1],
            )
            if _lex_class(DirVec(swapped)) == "negative":
                diags.append(
                    Diagnostic.make(
                        codes.VR004,
                        f"interchanging levels {level_a} and {level_b} "
                        f"turns {edge.kind} dependence {edge.pair_label()} "
                        f"{atomic} into {DirVec(swapped)}: the dependence "
                        f"would run backwards",
                        statement=edge.source.stmt.label,
                        span=edge.source.stmt.span,
                    )
                )
                break  # one witness per edge is enough
    return diags

"""Dependence-driven loop transformations: parallel levels, interchange.

Direction vectors carry exactly the information classic loop transforms
need (the reason the paper cares about computing them precisely):

* a loop level is **parallel** (DOALL) when no dependence among the
  statements it controls is carried at that level;
* **interchange** of two adjacent levels is legal when no dependence's
  direction vector becomes lexicographically negative after swapping the
  two positions (the classic (<, >) blocker).
"""

from __future__ import annotations

from ..depgraph.builder import Dependence, DependenceGraph
from ..dirvec.vectors import D_EQ, DirVec
from ..ir import Loop, Program, rewrite_statements


def parallel_levels(graph: DependenceGraph) -> dict[str, set[int]]:
    """For each outermost nest (keyed by its loop variable), the set of
    loop levels carrying **no** dependence — safe to run as DOALL.

    A level is reported parallel only when no dependence among statements
    of the nest *can* be carried at it (composite direction elements count
    for every relation they contain, so the answer is conservative).
    """
    out: dict[str, set[int]] = {}
    for nest in graph.program.body:
        if not isinstance(nest, Loop):
            continue
        labels = {
            stmt.label
            for stmt, loops in graph.program.walk_statements()
            if loops and loops[0] is nest
        }
        depth = _max_depth(nest)
        carried: set[int] = set()
        for edge in graph.edges:
            if (
                edge.source.stmt.label not in labels
                or edge.sink.stmt.label not in labels
            ):
                continue
            for atomic in edge.direction.atomic_vectors():
                level = _carried_level(atomic)
                if level is not None:
                    carried.add(level)
        out[nest.var] = {
            level for level in range(1, depth + 1) if level not in carried
        }
    return out


def _carried_level(atomic: DirVec) -> int | None:
    for position, elem in enumerate(atomic, start=1):
        if elem != D_EQ:
            return position
    return None


def _max_depth(nest: Loop) -> int:
    best = 1
    for stmt in nest.body:
        if isinstance(stmt, Loop):
            best = max(best, 1 + _max_depth(stmt))
    return best


def interchange_legal(
    graph: DependenceGraph, level_a: int, level_b: int
) -> bool:
    """Is permuting two loop levels legal for every dependence?

    Legal iff no dependence direction vector becomes lexicographically
    negative (leading '>') after swapping positions ``level_a``/``level_b``.
    Conservative over composite elements; edges whose vectors are shorter
    than the levels involved (statements outside both loops) are unaffected.
    """
    for edge in graph.edges:
        if not _edge_allows_swap(edge, level_a, level_b):
            return False
    return True


def _edge_allows_swap(edge: Dependence, level_a: int, level_b: int) -> bool:
    direction = edge.direction
    if len(direction) < max(level_a, level_b):
        return True
    for atomic in direction.atomic_vectors():
        swapped = list(atomic)
        swapped[level_a - 1], swapped[level_b - 1] = (
            swapped[level_b - 1],
            swapped[level_a - 1],
        )
        if DirVec(swapped).lexicographic_class() == "negative":
            return False
    return True


def interchange(program: Program, outer_var: str) -> Program:
    """Swap a perfectly nested loop pair (``outer_var`` and its only child).

    Purely structural; check :func:`interchange_legal` first.  Each loop
    keeps its header's span; the input program is left untouched.
    """

    def swap(outer: Loop) -> Loop | None:
        if outer.var != outer_var:
            return None
        if len(outer.body) != 1 or not isinstance(outer.body[0], Loop):
            raise ValueError(f"loop {outer_var} is not perfectly nested")
        inner = outer.body[0]
        swapped_inner = Loop(
            outer.var,
            outer.lower,
            outer.upper,
            rewrite_statements(inner.body),
            outer.step,
            span=outer.span,
        )
        return Loop(
            inner.var,
            inner.lower,
            inner.upper,
            [swapped_inner],
            inner.step,
            span=inner.span,
        )

    return program.with_body(rewrite_statements(program.body, loop=swap))

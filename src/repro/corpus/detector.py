"""The linearized-reference census pipeline (paper, Figure 1).

The census runs the compiler's front half on source text
(:func:`repro.driver.front_end`):

1. parse;
2. normalize loops;
3. recognize and substitute multi-loop induction variables (so the BOAST
   ``IB`` pattern surfaces as a linearized reference);
4. linearize EQUIVALENCE alias groups and COMMON blocks (the ANSI
   storage-association rules, :func:`repro.driver.linearize_storage`);
5. count outermost loop nests containing a linearized reference — a single
   subscript position that is affine in two or more loop variables.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.linearize import LinearizationError, count_linearized_nests
from ..driver import TimedBarrier, front_end, linearize_storage
from ..ir import Loop


@dataclass(frozen=True)
class CensusResult:
    """Outcome of the linearized-reference census for one program."""

    name: str
    lines: int
    linearized_nests: int
    total_nests: int


def census_source(source: str, name: str = "PROGRAM") -> CensusResult:
    program = front_end(source, "fortran", TimedBarrier(strict=True), [])
    try:
        program = linearize_storage(program, [])
    except LinearizationError:
        pass  # storage the rules cannot lay out is counted as written
    total = sum(1 for stmt in program.body if isinstance(stmt, Loop))
    return CensusResult(
        name,
        len(source.splitlines()),
        count_linearized_nests(program),
        total,
    )

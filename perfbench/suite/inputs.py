"""Seeded input sets for the four workloads.

Every generator is a pure function of ``seed``: the same seed yields the
same source texts, byte for byte.  Each workload has a fixed catalogue of
input *shapes* (statement counts, loop extents, the offsets between
references, generated corpus programs).  The seed draws everything the
analysis cost does not depend on: the order of the files, absolute subscript
offsets, right-hand-side constants and the values symbolic parameters take
when a program is executed.  So every seed gives different inputs with the
same dependence problems, and a median taken on one seed compares with a
median taken on another.

A window runs whole passes, so the op samples form one cluster per input
shape.  ``lint_audit`` uses three shapes of several identical-cost files
each, sized so that the median and the tail percentile fall inside a
cluster rather than on the boundary between two; ``vectorize_solve`` uses
one shape.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field

from repro.corpus.generator import generate_program


@dataclass(frozen=True)
class Input:
    """One source file of a workload plus the values its symbols take."""

    name: str
    text: str
    #: Values for symbolic parameters (``NX``, ``NY``) when executing it.
    env: dict[str, int] = field(default_factory=dict)


def digest(inputs: list[Input]) -> str:
    """A short content hash of an input set."""
    h = hashlib.sha256()
    for item in inputs:
        h.update(item.name.encode() + b"\0" + item.text.encode() + b"\0")
        for key, value in sorted(item.env.items()):
            h.update(f"{key}={value};".encode())
    return h.hexdigest()[:16]


def _catalogue(workload: str) -> random.Random:
    """The fixed stream a workload's input shapes are drawn from."""
    return random.Random(f"{workload}:catalogue")


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- lint_audit ---------------------------------------------------------------


def coupled_nest(extent: int, rows: list[tuple[int, int, int, int]]) -> str:
    """One nest of ``F(i+c) = F(i+d) + G(i+g) + k`` statements (one per row).

    The editor-shaped file of ``benchmarks/bench_serve.py``, with the loop
    extent and each statement's offsets and constant supplied by the caller.
    """
    lines = ["REAL F(0:999), G(0:999)", f"DO 1 i = 0, {extent}"]
    for index, (c, d, g, k) in enumerate(rows):
        prefix = "1 " if index == len(rows) - 1 else ""
        lines.append(f"{prefix}F(i + {c}) = F(i + {d}) + G(i + {g}) + {k}")
    return "\n".join(lines) + "\n"


def lint_audit(seed: int) -> list[Input]:
    """Single-nest files whose dependence pairs are all small and concrete.

    Three shapes: 5 files of 2 statements over ``i = 0..40``, 4 of 3 over
    ``0..34`` and 4 of 4 over ``0..30``.  Every pair's iteration box
    ``(extent+1)**2`` stays far below the audit's exhaustive limit, so the
    auditor enumerates every pair; offsets differ by less than the extent,
    so pairs are dependent and the direction-vector enumeration runs.  The
    seed shifts all of a file's ``F`` subscripts by one base offset, which
    leaves every dependence equation unchanged.
    """
    shapes = _catalogue("lint_audit")
    files = []
    for statements, extent, copies in ((2, 40, 5), (3, 34, 4), (4, 30, 4)):
        offsets = []
        for s in range(statements):
            d = s + shapes.randrange(0, 3)
            offsets.append((d + shapes.randrange(1, 4), d))
        files += [(extent, offsets)] * copies
    rng = _rng(seed, "lint_audit")
    rng.shuffle(files)
    inputs = []
    for index, (extent, offsets) in enumerate(files):
        base = rng.randrange(0, 900)
        rows = [
            (base + c, base + d, rng.randrange(0, 900), rng.randrange(1, 10))
            for c, d in offsets
        ]
        inputs.append(Input(f"audit{index}.f", coupled_nest(extent, rows)))
    return inputs


# -- vectorize_solve ----------------------------------------------------------


def linearized_3d(rows: list[tuple[int, int]]) -> str:
    """One 8x8x8 nest over ``B(i + 8*j + 64*k + c)`` (one statement per row).

    Every pair of references gives a 3-level equation
    ``(i1-i2) + 8*(j1-j2) + 64*(k1-k2) + c = 0``: the population the paper's
    algorithm targets, as in ``benchmarks/bench_scale.py``.
    """
    lines = [
        "REAL B(0:2000)",
        "DO 1 i = 0, 7",
        "DO 1 j = 0, 7",
        "DO 1 k = 0, 7",
    ]
    for index, (c, d) in enumerate(rows):
        prefix = "1 " if index == len(rows) - 1 else ""
        lines.append(
            f"{prefix}B(i + 8*j + 64*k + {c}) = B(i + 8*j + 64*k + {d}) + 1"
        )
    return "\n".join(lines) + "\n"


def vectorize_solve(seed: int) -> list[Input]:
    """15 files of one shape: 4 linearized 3-D statements, 26 pairs.

    One shape, because an op through the pair process pool varies by about
    15% from one call to the next: with one shape the median is taken over
    every sample of the window, not over the third of them that one shape
    of three would give.  The seed shifts all of a file's subscripts by one
    base offset.
    """
    shapes = _catalogue("vectorize_solve")
    offsets = []
    for s in range(4):
        c = 11 * s + shapes.randrange(0, 11)
        offsets.append((c, c + shapes.randrange(1, 12)))
    rng = _rng(seed, "vectorize_solve")
    inputs = []
    for index in range(15):
        base = rng.randrange(0, 1000)
        rows = [(base + c, base + d) for c, d in offsets]
        inputs.append(Input(f"solve{index}.f", linearized_3d(rows)))
    return inputs


# -- corpus_mixed and serve_session -------------------------------------------

#: An assignment to an array element whose right-hand side ends in an
#: integer constant: the target of a one-statement edit.
_EDITABLE = re.compile(r"^((?:\d+ )?[A-Z]\w*\(.*\) = .*?)(\d+)$")


def editable_lines(text: str) -> list[int]:
    """Indices of the lines an edit may rewrite."""
    return [
        index
        for index, line in enumerate(text.splitlines())
        if _EDITABLE.match(line)
    ]


def edit(text: str, line_index: int, value: int) -> str:
    """Rewrite the trailing constant of one assignment to ``value``."""
    lines = text.splitlines()
    match = _EDITABLE.match(lines[line_index])
    lines[line_index] = f"{match.group(1)}{value}"
    return "\n".join(lines) + "\n"


def _corpus(seed: int, workload: str, count: int, lines: int) -> list[Input]:
    """Generated programs ``0..count-1`` of the corpus generator, in seeded
    order, with seeded right-hand-side constants and parameter values."""
    rng = _rng(seed, workload)
    order = list(range(count))
    rng.shuffle(order)
    inputs = []
    for program_seed in order:
        program = generate_program(
            f"{workload}{program_seed}",
            lines=lines,
            linearized_nests=12 if lines >= 100 else 7,
            seed=program_seed,
        )
        text = program.source
        for line in editable_lines(text):
            text = edit(text, line, rng.randrange(1, 100))
        env = {"NX": rng.randrange(4, 9), "NY": rng.randrange(3, 7)}
        inputs.append(Input(f"{program.name}.f", text, env))
    return inputs


def corpus_mixed(seed: int, count: int = 23) -> list[Input]:
    """150-line generated programs covering all seven corpus styles."""
    return _corpus(seed, "corpus", count, lines=150)


def serve_documents(seed: int, count: int = 4) -> list[Input]:
    """Editor-sized generated programs for the daemon session."""
    return _corpus(seed, "serve", count, lines=60)


BUILDERS = {
    "lint_audit": lint_audit,
    "vectorize_solve": vectorize_solve,
    "corpus_mixed": corpus_mixed,
    "serve_session": serve_documents,
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Input]:
    """The input set of ``workload``; one input under ``smoke``."""
    inputs = BUILDERS[workload](seed)
    return inputs[:1] if smoke else inputs

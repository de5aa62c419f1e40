"""Tests for dependence-problem construction from reference pairs."""

import gc
import sys
import weakref
from collections import Counter

import pytest

from repro.analysis import (
    build_pair_problem,
    normalize_program,
    rectangular_bounds,
)
from repro.analysis import refpairs
from repro.core import delinearize
from repro.corpus.generator import generate_program
from repro.depgraph import analyze_dependences
from repro.deptests import Verdict, exhaustive_test
from repro.frontend import parse_fortran
from repro.ir import CallStmt, collect_refs, summary, to_linexpr
from repro.lint import engine
from repro.symbolic import LinExpr


def pair_of(source, array):
    program = normalize_program(parse_fortran(source))
    bounds = rectangular_bounds(program)
    refs = collect_refs(program, array)
    return build_pair_problem(refs[0], refs[1], bounds), refs


class TestConstruction:
    def test_intro_program(self):
        pair, refs = pair_of(
            """
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
            1 C(i+10*j) = C(i+10*j+5)
            """,
            "C",
        )
        assert pair.common_levels == 2
        assert pair.analyzable_dims == 1
        assert pair.unknown_dims == 0
        problem = pair.problem
        assert problem is not None
        assert exhaustive_test(problem) is Verdict.INDEPENDENT
        assert delinearize(problem).verdict is Verdict.INDEPENDENT

    def test_variable_renaming_keeps_sides_apart(self):
        pair, _ = pair_of(
            "REAL D(0:9)\nDO i = 0, 8\nD(i+1) = D(i)\nENDDO\n", "D"
        )
        assert set(pair.problem.variables) == {"i#1", "i#2"}
        assert delinearize(pair.problem).verdict is Verdict.DEPENDENT

    def test_multi_dim_system(self):
        pair, _ = pair_of(
            """
            REAL A(100,100)
            DO 1 i = 1, 10
            DO 1 j = 1, 10
            1 A(i, j) = A(i+1, j+2)
            """,
            "A",
        )
        assert pair.analyzable_dims == 2
        assert len(pair.problem.equations) == 2

    def test_non_affine_dim_skipped(self):
        pair, _ = pair_of(
            """
            REAL A(100,100)
            DO 1 i = 1, 10
            1 A(i, IFUN(i)) = A(i+1, i)
            """,
            "A",
        )
        assert pair.analyzable_dims == 1
        assert pair.unknown_dims == 1
        assert not pair.fully_analyzable

    def test_all_unknown_gives_none(self):
        pair, _ = pair_of(
            "REAL A(100)\nDO i = 1, 10\nA(IFUN(i)) = A(i)\nENDDO\n", "A"
        )
        assert pair.problem is None

    def test_different_arrays_rejected(self):
        program = normalize_program(
            parse_fortran("REAL A(9), B(9)\nDO i = 0, 8\nA(i) = B(i)\nENDDO\n")
        )
        bounds = rectangular_bounds(program)
        refs = collect_refs(program)
        with pytest.raises(ValueError):
            build_pair_problem(refs[0], refs[1], bounds)

    def test_common_levels_across_statements(self):
        program = normalize_program(
            parse_fortran(
                """
                REAL Y(300)
                DO 1 i = 0, 99
                Y(i) = 1
                DO 1 j = 0, 98
                1 Y(i+j) = 2
                """
            )
        )
        bounds = rectangular_bounds(program)
        refs = collect_refs(program, "Y")
        pair = build_pair_problem(refs[0], refs[1], bounds)
        # S1 sits one loop deep, S2 two: a single common level.
        assert pair.common_levels == 1

    def test_symbolic_bounds_flow_through(self):
        pair, _ = pair_of(
            "REAL A(100)\nDO i = 0, N-1\nA(i) = A(i+N)\nENDDO\n", "A"
        )
        problem = pair.problem
        upper = problem.variables["i#1"].upper
        assert str(upper) == "N - 1"


LINEARIZED = """
REAL B(0:2000)
DO 1 i = 0, 7
DO 1 j = 0, 7
DO 1 k = 0, 7
B(i + 8*j + 64*k + 3) = B(i + 8*j + 64*k + 5) + 1
B(i + 8*j + 64*k + 14) = B(i + 8*j + 64*k + 20) + 1
B(i + 8*j + 64*k + 25) = B(i + 8*j + 64*k + 31) + 1
1 B(i + 8*j + 64*k + 36) = B(i + 8*j + 64*k + 46) + 1
"""

#: A non-affine subscript (``A``) and a rank mismatch (``C``) beside the
#: linearized references.
MIXED = """
REAL B(0:2000), A(100), C(10,10)
DO 1 i = 0, 7
DO 1 j = 0, 7
DO 1 k = 0, 7
B(i + 8*j + 64*k + 3) = B(i + 8*j + 64*k + 5) + 1
A(IFUN(i)) = A(i + 1) + C(i, j)
1 C(i, j, k) = B(i + 8*j + 64*k + 30) + 1
"""


def per_pair_subscripts(ref, side):
    """The lowering without the summary: fresh on every call, as per pair."""
    loop_vars = set(ref.loop_vars)
    rename = {name: f"{name}#{side}" for name in loop_vars}
    forms = (to_linexpr(sub, loop_vars) for sub in ref.ref.subscripts)
    return tuple(None if f is None else f.rename_vars(rename) for f in forms)


def graph_lines(graph):
    return [str(edge) for edge in graph.edges]


def count_lowerings(monkeypatch, modules):
    """Count ``to_linexpr`` calls made through ``modules`` by the id of the
    expression lowered; the expressions are kept alive so no id is reused."""
    lowered = []
    for module in modules:
        real = module.to_linexpr

        def counting(expr, loop_vars, real=real):
            lowered.append(expr)
            return real(expr, loop_vars)

        monkeypatch.setattr(module, "to_linexpr", counting)
    return lowered


class TestLowerOnce:
    """Each subscript is lowered once, when its program is summarized."""

    def test_each_subscript_lowered_once_per_graph(self, monkeypatch):
        program = parse_fortran(LINEARIZED)
        lowered = count_lowerings(monkeypatch, [summary])
        graph = analyze_dependences(program)
        assert graph.perf.pairs == 26
        # Eight references of one subscript each; lowering per pair made 52.
        assert len(lowered) == 8
        assert set(Counter(map(id, lowered)).values()) == {1}
        # Each call normalizes, and summarizes, a fresh program.
        lowered.clear()
        analyze_dependences(program)
        assert len(lowered) == 8

    def test_each_subscript_lowered_once_per_lint(self, monkeypatch):
        """Over check, ranges, graph and schedule: the passes after the
        front end lower no subscript twice, CALL references included."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith("repro.") and hasattr(module, "to_linexpr")
        ]
        lowered = count_lowerings(monkeypatch, modules)
        real_front_end = engine.front_end

        def front_end(*args, **kwargs):
            program = real_front_end(*args, **kwargs)
            lowered.clear()  # the front end lowers loop bounds to normalize
            return program

        monkeypatch.setattr(engine, "front_end", front_end)
        source = generate_program("R1", lines=150, linearized_nests=12, seed=1)
        report = engine.lint_source(source.source, schedule=True)
        counts = Counter(map(id, lowered))
        refs = collect_refs(report.program)
        assert any(isinstance(ref.stmt, CallStmt) for ref in refs)
        subscripts = [sub for ref in refs for sub in ref.ref.subscripts]
        assert len(subscripts) > 100
        assert max(counts[id(sub)] for sub in subscripts) == 1

    @pytest.mark.parametrize(
        "source", [LINEARIZED, MIXED], ids=["linearized", "mixed"]
    )
    def test_graph_equals_per_pair_lowering(self, monkeypatch, source):
        lowered = count_lowerings(monkeypatch, [summary])
        once = analyze_dependences(parse_fortran(source))
        assert max(Counter(map(id, lowered)).values()) == 1
        monkeypatch.setattr(refpairs, "side_subscripts", per_pair_subscripts)
        per_pair = analyze_dependences(parse_fortran(source))
        assert graph_lines(once) == graph_lines(per_pair)
        assert once.format_table() == per_pair.format_table()
        assert once.perf.verdicts == per_pair.perf.verdicts

    def test_mixed_pairs_keep_their_notes(self):
        program = normalize_program(parse_fortran(MIXED))
        bounds = rectangular_bounds(program)
        a_write, a_read = collect_refs(program, "A")
        c_read, c_write = collect_refs(program, "C")
        for _ in range(2):  # pairs share the references' lowered subscripts
            pair = build_pair_problem(a_write, a_read, bounds)
            assert pair.problem is None
            assert pair.notes == ["dimension 1: non-affine subscript"]
            pair = build_pair_problem(c_read, c_write, bounds)
            assert pair.problem is None
            assert pair.notes == ["rank mismatch: no analyzable dimensions"]
            pair = build_pair_problem(a_read, a_read, bounds)
            assert pair.problem.equations == [
                LinExpr.var("i#1") - LinExpr.var("i#2")
            ]

    def test_lowerings_die_with_the_program(self):
        program = parse_fortran(LINEARIZED)
        graph = analyze_dependences(program)
        assert graph.edges
        summaries = graph.program._summary
        assert summaries is not None  # the graph build summarized it
        watched = [weakref.ref(program), weakref.ref(graph.program)]
        watched.append(weakref.ref(summaries))
        watched += [weakref.ref(s) for s in summaries.statements]
        watched += [weakref.ref(s.stmt) for s in summaries.statements]
        watched += [weakref.ref(graph.edges[0].source)]
        del program, graph, summaries
        gc.collect()
        assert [ref() for ref in watched] == [None] * len(watched)

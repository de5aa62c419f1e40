"""Tests for dependence-driven loop transformations."""

import pytest

from repro.depgraph import analyze_dependences
from repro.frontend import parse_fortran
from repro.ir import If, Loop, format_program
from repro.vectorizer import interchange, interchange_legal, parallel_levels


def graph_of(source):
    return analyze_dependences(parse_fortran(source))


class TestParallelLevels:
    def test_fully_parallel_nest(self):
        graph = graph_of(
            """
            REAL A(100,100), B(100,100)
            DO 1 i = 1, 10
            DO 1 j = 1, 10
            1 A(i, j) = B(i, j) + 1
            """
        )
        assert parallel_levels(graph)["i"] == {1, 2}

    def test_outer_carried_dependence(self):
        graph = graph_of(
            """
            REAL A(100,100)
            DO 1 i = 1, 9
            DO 1 j = 1, 10
            1 A(i+1, j) = A(i, j)
            """
        )
        assert parallel_levels(graph)["i"] == {2}

    def test_inner_carried_dependence(self):
        graph = graph_of(
            """
            REAL A(100,100)
            DO 1 i = 1, 10
            DO 1 j = 1, 9
            1 A(i, j+1) = A(i, j)
            """
        )
        assert parallel_levels(graph)["i"] == {1}

    def test_serial_recurrence(self):
        graph = graph_of(
            "REAL D(0:9)\nDO i = 0, 8\nD(i+1) = D(i)\nENDDO\n"
        )
        assert parallel_levels(graph)["i"] == set()

    def test_delinearization_enables_parallelism(self):
        graph = graph_of(
            """
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
            1 C(i+10*j) = C(i+10*j+5)
            """
        )
        assert parallel_levels(graph)["i"] == {1, 2}

    def test_multiple_nests(self):
        graph = graph_of(
            """
            REAL D(0:9), E(0:9)
            DO i = 0, 8
            D(i+1) = D(i)
            ENDDO
            DO k = 0, 8
            E(k) = 1
            ENDDO
            """
        )
        levels = parallel_levels(graph)
        assert levels["i"] == set()
        assert levels["k"] == {1}


class TestInterchangeLegality:
    def test_legal_when_no_dependences(self):
        graph = graph_of(
            """
            REAL A(100,100), B(100,100)
            DO 1 i = 1, 10
            DO 1 j = 1, 10
            1 A(i, j) = B(i, j)
            """
        )
        assert interchange_legal(graph, 1, 2)

    def test_illegal_less_greater(self):
        # Classic (<, >) dependence: interchange would reverse it.
        graph = graph_of(
            """
            REAL A(100,100)
            DO 1 i = 1, 9
            DO 1 j = 2, 10
            1 A(i+1, j-1) = A(i, j)
            """
        )
        assert not interchange_legal(graph, 1, 2)

    def test_legal_less_less(self):
        graph = graph_of(
            """
            REAL A(100,100)
            DO 1 i = 1, 9
            DO 1 j = 1, 9
            1 A(i+1, j+1) = A(i, j)
            """
        )
        assert interchange_legal(graph, 1, 2)

    def test_short_vectors_unaffected(self):
        graph = graph_of(
            "REAL D(0:9)\nDO i = 0, 8\nD(i+1) = D(i)\nENDDO\n"
        )
        assert interchange_legal(graph, 1, 2)

    def test_star_directions_block_interchange(self):
        # Non-affine subscripts defeat the analysis: the assumed (*, *)
        # edges contain (<, >), so the swap must be judged illegal.
        graph = graph_of(
            """
            REAL A(0:200)
            DO 1 i = 0, 8
            DO 1 j = 0, 8
            1 A(i*j) = A(i*j+1) + 1
            """
        )
        assert all(e.assumed for e in graph.edges)
        assert not interchange_legal(graph, 1, 2)

    def test_less_star_blocks_interchange(self):
        # (<, *) contains (<, >): swapping yields the negative (>, <).
        graph = graph_of(
            """
            REAL A(0:20, 0:200)
            DO 1 i = 0, 8
            DO 1 j = 0, 8
            1 A(i+1, i*j) = A(i, i*j+1)
            """
        )
        assert any(str(e.direction) == "(<, *)" for e in graph.edges)
        assert not interchange_legal(graph, 1, 2)

    def test_depth_mismatched_nest_does_not_block(self):
        # The recurrence lives outside the j loop (a 1-long vector), so it
        # cannot constrain an interchange of levels 1 and 2.
        graph = graph_of(
            """
            REAL D(0:9), A(0:10, 0:10)
            DO i = 0, 8
            D(i+1) = D(i)
            DO j = 0, 8
            A(i, j) = A(i, j) + 1
            ENDDO
            ENDDO
            """
        )
        assert interchange_legal(graph, 1, 2)


class TestInterchangeTransform:
    SOURCE = """
        REAL A(100,100)
        DO 1 i = 1, 5
        DO 1 j = 1, 7
        1 A(i, j) = A(i, j) + 1
    """

    def test_swaps_loops(self):
        program = parse_fortran(self.SOURCE)
        swapped = interchange(program, "i")
        outer = swapped.body[0]
        assert isinstance(outer, Loop) and outer.var == "j"
        inner = outer.body[0]
        assert inner.var == "i"
        assert "A(i, j)" in format_program(swapped)

    def test_preserves_bounds(self):
        swapped = interchange(parse_fortran(self.SOURCE), "i")
        outer = swapped.body[0]
        assert (str(outer.lower), str(outer.upper)) == ("1", "7")
        inner = outer.body[0]
        assert (str(inner.lower), str(inner.upper)) == ("1", "5")

    def test_rejects_imperfect_nest(self):
        source = """
            REAL A(100,100), X(100)
            DO i = 1, 5
            X(i) = 0
            DO j = 1, 7
            A(i, j) = 1
            ENDDO
            ENDDO
        """
        with pytest.raises(ValueError):
            interchange(parse_fortran(source), "i")

    def test_semantics_preserved_by_execution(self):
        # Execute both versions on a small interpreter and compare stores.
        from repro.ir import evaluate_expr

        def run(program):
            store = {}

            def exec_stmts(stmts, env):
                for stmt in stmts:
                    if isinstance(stmt, Loop):
                        lo = evaluate_expr(stmt.lower, env)
                        hi = evaluate_expr(stmt.upper, env)
                        for value in range(lo, hi + 1):
                            exec_stmts(stmt.body, {**env, stmt.var: value})
                    else:
                        target = stmt.lhs
                        indices = tuple(
                            evaluate_expr(s, env) for s in target.subscripts
                        )
                        previous = store.get((target.array, indices), 0)
                        env_with = dict(env)
                        env_with["__old"] = previous
                        # A(i,j) = A(i,j) + 1 is the only statement shape.
                        store[(target.array, indices)] = previous + 1

            exec_stmts(program.body, {})
            return store

        original = run(parse_fortran(self.SOURCE))
        swapped = run(interchange(parse_fortran(self.SOURCE), "i"))
        assert original == swapped

    BLOCK_NEST = """REAL A(10, 10), B(10)
DO i = 1, 5
  DO j = 1, 7
    A(i, j) = A(i, j) + 1
  ENDDO
ENDDO
"""

    def test_accepts_if_after_the_nest(self):
        source = self.BLOCK_NEST + "IF (B(1) > 0) THEN\n  B(2) = 1\nENDIF\n"
        swapped = interchange(parse_fortran(source), "i")
        assert swapped.body[0].var == "j"
        assert isinstance(swapped.body[1], If)
        assert str(swapped.body[1].then_body[0]) == "B(2) = 1"
        assert [s.label for s in swapped.assignments()] == ["S1", "S2"]

    def test_accepts_call_after_the_nest(self):
        program = parse_fortran(self.BLOCK_NEST + "CALL F(A)\n")
        swapped = interchange(program, "i")
        assert swapped.body[0].var == "j"
        assert str(swapped.body[1]) == "CALL F(A)"
        assert swapped.body[1].label == "S2"

    def test_keeps_spans(self):
        program = parse_fortran(self.BLOCK_NEST)
        outer, inner = program.body[0], program.body[0].body[0]
        swapped = interchange(program, "i")
        new_outer = swapped.body[0]
        new_inner = new_outer.body[0]
        assert (new_outer.var, new_outer.span) == ("j", inner.span)
        assert (new_inner.var, new_inner.span) == ("i", outer.span)
        assert str(new_outer.span) == "3:3" and str(new_inner.span) == "2:1"
        assert new_inner.body[0].span == inner.body[0].span is not None

    def test_leaves_the_input_untouched(self):
        program = parse_fortran(self.BLOCK_NEST + "B(2) = 1\n")
        before = format_program(program)
        statements = [stmt for stmt, _ in program.walk_statements()]
        swapped = interchange(program, "i")
        swapped.number_statements("T")
        assert format_program(program) == before
        assert [s.label for s in statements] == ["S1", "S2"]
        rebuilt = [stmt for stmt, _ in swapped.walk_statements()]
        assert not {id(s) for s in rebuilt} & {id(s) for s in statements}

"""Guarded (control-dependence-qualified) edges and CALL-translated refs."""

from repro.depgraph import (
    analyze_dependences,
    control_diagnostics,
)
from repro.frontend import parse_fortran

GUARDED = (
    "REAL A(0:99)\n"
    "DO 1 I = 0, 98\n"
    "IF (I < 50) THEN\n"
    "A(I) = A(I+1) + 1\n"
    "ENDIF\n"
    "1 CONTINUE\n"
)

EXCLUSIVE_ARMS = (
    "REAL A(0:99)\n"
    "DO 1 I = 0, 98\n"
    "IF (I < 50) THEN\n"
    "A(I) = 1\n"
    "ELSE\n"
    "A(I) = 2\n"
    "ENDIF\n"
    "1 CONTINUE\n"
)

ALIASCALL = (
    "REAL A(0:99)\n"
    "DO 1 I = 0, 98\n"
    "1 CALL UPD(A, A, I)\n"
    "END\n"
    "SUBROUTINE UPD(X, Y, J)\n"
    "REAL X(0:99), Y(0:99)\nINTEGER J\n"
    "X(J) = Y(J+1) * 2\n"
    "END\n"
)


class TestGuardedEdges:
    def test_edge_is_guarded(self):
        graph = analyze_dependences(parse_fortran(GUARDED))
        assert graph.edges
        assert all(e.guarded for e in graph.edges)

    def test_table_annotates_guarded(self):
        graph = analyze_dependences(parse_fortran(GUARDED))
        assert "(guarded)" in graph.format_table()

    def test_unguarded_table_unchanged(self):
        source = "REAL A(0:99)\nDO 1 I = 0, 98\n1 A(I) = A(I+1) + 1\n"
        graph = analyze_dependences(parse_fortran(source))
        assert graph.edges
        assert "(guarded)" not in graph.format_table()
        assert not any(e.guarded for e in graph.edges)

    def test_cd001_note_per_guarded_edge(self):
        graph = analyze_dependences(parse_fortran(GUARDED))
        diags = control_diagnostics(graph)
        assert len(diags) == len([e for e in graph.edges if e.guarded])
        assert all(d.code == "CD001" for d in diags)
        assert "(I < 50)" in diags[0].message


class TestMutualExclusion:
    def test_same_iteration_component_refuted(self):
        """Opposite arms of one IF cannot co-execute in one iteration, so
        the all-'=' output dependence between them is refuted."""
        graph = analyze_dependences(parse_fortran(EXCLUSIVE_ARMS))
        for edge in graph.edges:
            if {edge.source.stmt.label, edge.sink.stmt.label} == {"S1", "S2"}:
                for atomic in edge.direction.atomic_vectors():
                    assert any(str(e) != "=" for e in atomic), str(edge)

    def test_cross_iteration_edges_survive(self):
        """The predicate may flip between iterations: S1 in iteration i and
        S2 in iteration j > i still conflict on overlapping cells."""
        source = (
            "REAL A(0:99)\n"
            "DO 1 I = 0, 98\n"
            "IF (I < 50) THEN\n"
            "A(I) = 1\n"
            "ELSE\n"
            "A(I+1) = 2\n"
            "ENDIF\n"
            "1 CONTINUE\n"
        )
        graph = analyze_dependences(parse_fortran(source))
        cross = [
            e
            for e in graph.edges
            if {e.source.stmt.label, e.sink.stmt.label} == {"S1", "S2"}
        ]
        assert cross, "expected surviving cross-statement edges"

    def test_same_arm_identity_not_refuted(self):
        source = (
            "REAL A(0:99), B(0:99)\n"
            "DO 1 I = 0, 98\n"
            "IF (I < 50) THEN\n"
            "A(I) = B(I)\n"
            "B(I) = 2\n"
            "ENDIF\n"
            "1 CONTINUE\n"
        )
        graph = analyze_dependences(parse_fortran(source))
        pairs = [
            e
            for e in graph.edges
            if {e.source.stmt.label, e.sink.stmt.label} == {"S1", "S2"}
        ]
        assert any(
            any(all(str(x) == "=" for x in a) for a in e.direction.atomic_vectors())
            for e in pairs
        )


class TestCallEdges:
    def test_translated_call_produces_distance_one(self):
        graph = analyze_dependences(parse_fortran(ALIASCALL))
        assert len(graph.edges) == 1
        edge = graph.edges[0]
        assert edge.kind == "anti"
        assert str(edge.distance) == "(+1)"
        assert not edge.assumed

    def test_alias_diagnostics_on_graph(self):
        graph = analyze_dependences(parse_fortran(ALIASCALL))
        assert [d.code for d in graph.alias_diagnostics] == ["AL001"]

    def test_unknown_callee_assumed_edges(self):
        source = (
            "REAL A(0:9)\n"
            "DO 1 i = 0, 8\n"
            "A(i) = A(i) + 1\n"
            "CALL MYSTERY(A)\n"
            "1 CONTINUE\n"
        )
        graph = analyze_dependences(parse_fortran(source))
        assert any(e.assumed for e in graph.edges)
        assert any(d.code == "RS003" for d in graph.alias_diagnostics)

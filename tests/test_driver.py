"""Tests for the end-to-end compilation driver."""

from repro.analysis import normalize_program
from repro.vectorizer import allen_kennedy
from repro.depgraph import analyze_dependences
from repro.driver import analyzed_source, compile_c, compile_fortran
from repro.frontend import parse_fortran
from repro.ir import run_program, scalar_conflicts
from repro.lint.diagnostics import render_json
from repro.lint.engine import lint_source
from repro.vectorizer import run_schedule, vectorize


class TestFortranPipeline:
    def test_intro_example(self):
        report = compile_fortran(
            """
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
            1 C(i+10*j) = C(i+10*j+5)
            """
        )
        assert report.dependence_count == 0
        assert report.vectorized_statements == ["S1"]
        assert "DOALL" in report.output
        assert "dependence-analysis" in report.phases

    def test_equivalence_phase_runs(self):
        report = compile_fortran(
            """
            REAL A(0:9,0:9)
            REAL B(0:4,0:19)
            EQUIVALENCE (A, B)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
            1 A(i, j) = B(i, 2*j+1)
            """
        )
        assert "linearize-aliases" in report.phases
        assert report.dependence_count == 0
        assert "_stor1" in analyzed_source(report)

    def test_induction_phase_runs(self):
        report = compile_fortran(
            """
            IB = -1
            DO 1 I = 0, 5
            DO 1 J = 0, 3
            IB = IB + 1
            1 B(IB) = B(IB) + Q
            """
        )
        assert "induction-variables" in report.phases
        assert report.vectorized_statements  # B fully parallel

    def test_phases_can_be_disabled(self):
        # Induction-variable substitution is what makes B(IB) vectorizable:
        # the graph of the normalized but unsubstituted program vectorizes
        # no statement.
        source = """
            IB = -1
            DO 1 I = 0, 5
            IB = IB + 1
            1 B(IB) = B(IB) + Q
        """
        assert compile_fortran(source).vectorized_statements == ["S1"]
        program = normalize_program(parse_fortran(source))
        graph = analyze_dependences(program, normalized=True)
        assert vectorize(graph).vectorized_statements() == []

    def test_summary_text(self):
        report = compile_fortran("REAL D(0:9)\nDO i = 0, 8\nD(i+1) = D(i)\nENDDO\n")
        text = report.summary()
        assert "language: fortran" in text
        assert "serial statements: S1" in text


class TestCPipeline:
    def test_pointer_example(self):
        report = compile_c(
            """
            float d[100];
            float *i, *j;
            for (j = d; j <= d + 90; j += 10)
                for (i = j; i < j + 5; i++)
                    *i = *(i + 5);
            """
        )
        assert "pointer-conversion" in report.phases
        assert report.dependence_count == 0
        assert report.vectorized_statements == ["S1"]

    def test_induction_variable_substituted(self):
        # k steps with i: a[k] and a[k+100] never meet, and each iteration
        # writes its own element, so there is no output dependence.
        report = compile_c(
            "float a[1000]; int i, k; k = 0;"
            " for (i = 0; i < 100; i++) { a[k] = a[k+100] + 1; k = k + 1; }"
        )
        assert "induction-variables" in report.phases
        assert report.graph.edges == []
        assert report.vectorized_statements == ["S1"]
        assert (
            run_schedule(report.plan, {}).snapshot()
            == run_program(report.program, {}).snapshot()
        )

    def test_plain_c(self):
        report = compile_c(
            "float x[10]; int i; for (i = 0; i < 9; i++) x[i+1] = x[i];"
        )
        assert "pointer-conversion" not in report.phases
        assert report.serial_statements == ["S1"]


class TestOnlyVerifiedPlansAreEmitted:
    """A schedule the verifier rejects is replaced by the serial one."""

    SOURCE = "REAL A(0:9)\nDO i = 0, 9\nT = i * 2\nA(i) = T\nENDDO\n"

    @staticmethod
    def dropping_one_conflict(program):
        """Codegen's scalar conflicts without the first between two
        statements (here: S1 writes T, S2 reads it)."""
        conflicts = list(scalar_conflicts(program))
        first = next(i for i, c in enumerate(conflicts) if c[0] is not c[2])
        return conflicts[:first] + conflicts[first + 1 :]

    def test_rejected_schedule_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(
            allen_kennedy, "scalar_conflicts", self.dropping_one_conflict
        )
        # The vectorizer alone now distributes S2 out of the loop.
        program = normalize_program(parse_fortran(self.SOURCE))
        broken = vectorize(analyze_dependences(program, normalized=True))
        assert broken.vectorized_statements() == ["S2"]

        report = compile_fortran(self.SOURCE)
        assert report.vectorized_statements == []
        assert "A(0:9) = T" not in report.output
        assert report.schedule_ok
        assert [d.code for d in report.degradations] == ["RS003"]
        assert "VR003" in report.degradations[0].message
        expected = run_program(parse_fortran(self.SOURCE)).snapshot()
        assert run_schedule(report.plan).snapshot() == expected

    def test_accepted_schedule_is_kept(self):
        report = compile_fortran(self.SOURCE)
        assert report.schedule_ok
        assert report.degradations == []
        assert "DO i = 0, 9" in report.output


class TestIgnoredJobsKeyword:
    """``jobs=`` is accepted and ignored by the two entry points the
    committed benchmark calls with it; the output is the default call's."""

    SOURCE = """
REAL D(0:99)
DO 1 i = 0, 8
DO 1 j = 0, 8
1 D(i+10*j+1) = D(i+10*j)
"""

    def test_compile_fortran(self):
        default = compile_fortran(self.SOURCE)
        pooled = compile_fortran(self.SOURCE, jobs=2)
        assert pooled.output == default.output
        assert pooled.summary() == default.summary()
        assert pooled.graph.format_table() == default.graph.format_table()

    def test_lint_source(self):
        default = lint_source(self.SOURCE, schedule=True)
        pooled = lint_source(self.SOURCE, schedule=True, jobs=2)
        assert render_json(pooled.diagnostics) == render_json(
            default.diagnostics
        )

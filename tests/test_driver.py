"""Tests for the end-to-end compilation driver."""

from repro.analysis import normalize_program
from repro.depgraph import analyze_dependences
from repro.driver import analyzed_source, compile_c, compile_fortran
from repro.frontend import parse_fortran
from repro.ir import run_program
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

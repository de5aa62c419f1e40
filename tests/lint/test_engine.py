"""End-to-end linting through ``lint_source``."""

import gc
import json
import re
import types
from pathlib import Path

import pytest

from repro.corpus.generator import generate_program
from repro.driver import compile_c, compile_fortran
from repro.ir import If, Loop
from repro.lint import lint_source, render_json
from repro.symbolic import Assumptions

CLEAN = "REAL C(0:99)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n1 C(i+10*j) = C(i+10*j+5)\n"


class TestLintSource:
    def test_clean_program(self):
        report = lint_source(CLEAN)
        assert report.diagnostics == []
        assert not report.fails(werror=True)
        assert report.program is not None
        assert report.audited_pairs == 0  # delinearization proves independence

    def test_audit_counts_dependence_edges(self):
        report = lint_source(
            "REAL A(0:99)\nDO 1 i = 0, 94\n1 A(i+5) = A(i) + 1\n"
        )
        assert report.diagnostics == []
        assert report.audited_pairs == 1

    def test_no_audit_skips_edges(self):
        report = lint_source(
            "REAL A(0:99)\nDO 1 i = 0, 94\n1 A(i+5) = A(i) + 1\n", audit=False
        )
        assert report.audited_pairs == 0

    def test_parse_error_becomes_dl001_with_span(self):
        report = lint_source("REAL A(0:9)\nDO 1 i = 0, 9\n1 A(i) = @\n")
        assert report.program is None
        dl001 = [d for d in report.diagnostics if d.code == "DL001"]
        assert dl001
        assert all(d.span is not None for d in dl001)
        assert any(d.span.line == 3 for d in dl001)
        # Recovery mode annotates that the parser kept going.
        assert any(d.code == "RS004" for d in report.diagnostics)
        assert report.fails()

    def test_recovery_reports_every_broken_statement(self):
        # Two independent syntax errors on lines 2 and 4: one lint call
        # reports both (the parser synchronizes at statement boundaries).
        report = lint_source(
            "REAL A(0:9)\nA(1 = 2\nA(2) = 3\nA(3) = @\nA(4) = 5\n"
        )
        lines = sorted(
            d.span.line
            for d in report.diagnostics
            if d.code == "DL001" and d.span is not None
        )
        assert 2 in lines and 4 in lines

    def test_semantic_warning(self):
        report = lint_source("REAL A(0:9)\nDO 1 i = 0, 9\n1 A(i+5) = 1\n")
        assert [d.code for d in report.diagnostics] == ["DL005"]
        assert report.warning_count == 1
        assert not report.fails()
        assert report.fails(werror=True)

    def test_semantic_errors_suppress_audit(self):
        # Shadowed loop variables make dependence-problem construction
        # ill-defined; the audit must be skipped, not crash.
        report = lint_source(
            "REAL A(0:9,0:9)\nDO 1 i = 0, 9\nDO 1 i = 0, 9\n1 A(i+5) = 1\n"
        )
        assert any(d.code == "DL006" for d in report.diagnostics)
        assert report.audited_pairs == 0
        assert report.fails()

    def test_rank_mismatch_is_error(self):
        report = lint_source("REAL A(0:9,0:9)\nDO 1 i = 0, 9\n1 A(i) = 1\n")
        assert any(d.code == "DL002" for d in report.diagnostics)
        assert report.fails()

    def test_dataflow_findings_included(self):
        # M = M * 2 is not an induction pattern, so substitution cannot
        # rewrite B(M) into a loop-variable subscript and DF002 survives.
        report = lint_source(
            "REAL B(0:99)\nM = 1\nDO 1 i = 0, 9\nM = M * 2\n1 B(M) = 1\n",
            audit=False,
        )
        assert any(d.code == "DF002" for d in report.diagnostics)

    def test_assumption_invariance_checked(self):
        report = lint_source(
            "REAL A(0:99)\nM = 1\nDO 1 i = 0, 9\n1 A(i) = M\n",
            assumptions=Assumptions({"M": 5}),
            audit=False,
        )
        assert any(d.code == "DF004" for d in report.diagnostics)

    def test_diagnostics_sorted_by_span(self):
        report = lint_source(
            "REAL A(0:9)\nREAL B(0:9)\nDO 1 i = 0, 9\nB(i+3) = 2\n1 A(i+5) = 1\n",
            audit=False,
        )
        lines = [d.span.line for d in report.diagnostics if d.span]
        assert lines == sorted(lines)

    def test_c_source(self):
        report = lint_source(
            (
                "float d[100];\nfloat *i, *j;\n"
                "for (j = d; j <= d + 90; j += 10)\n"
                "    for (i = j; i < j + 5; i++)\n"
                "        *i = *(i + 5);\n"
            ),
            language="c",
        )
        assert report.language == "c"
        assert report.diagnostics == []

    def test_json_render_of_report(self):
        report = lint_source("REAL A(0:9)\nDO 1 i = 0, 9\n1 A(i+5) = 1\n")
        payload = json.loads(render_json(report.diagnostics, filename="a.f"))
        assert payload["counts"] == {"warning": 1}
        assert payload["diagnostics"][0]["code"] == "DL005"


class TestSchedulePass:
    SCALAR = (
        "REAL A(0:9), B(0:9)\nDO 1 i = 0, 5\nX = B(i) + 1\n1 A(i) = X\n"
    )

    def test_schedule_pass_reports_serialization_gaps(self):
        report = lint_source(self.SCALAR, schedule=True)
        assert any(d.code == "VR005" for d in report.diagnostics)
        assert report.error_count == 0

    def test_schedule_pass_off_by_default(self):
        report = lint_source(self.SCALAR)
        assert not any(
            d.code.startswith("VR") for d in report.diagnostics
        )

    def test_schedule_without_audit(self):
        report = lint_source(self.SCALAR, audit=False, schedule=True)
        assert report.audited_pairs == 0
        assert any(d.code == "VR005" for d in report.diagnostics)

    def test_schedule_skipped_on_semantic_errors(self):
        # A rank mismatch stops the graph passes; no VR diagnostics.
        report = lint_source(
            "REAL A(0:9,0:9)\nDO 1 i = 0, 9\n1 A(i) = 1\n", schedule=True
        )
        assert report.error_count > 0
        assert not any(
            d.code.startswith("VR") for d in report.diagnostics
        )


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _lint_graph(source, language, **kwargs):
    """``lint_source``'s report and the graphs it built (captured where lint
    looks ``analyze_dependences`` up)."""
    import repro.depgraph as depgraph

    graphs = []
    original = depgraph.analyze_dependences

    def capture(*args, **options):
        graphs.append(original(*args, **options))
        return graphs[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(depgraph, "analyze_dependences", capture)
        return lint_source(source, language=language, **kwargs), graphs


class TestSharedFrontEnd:
    """Lint runs the compile pipeline's front half, so both see one graph."""

    @pytest.mark.parametrize(
        "path",
        [
            path
            for path in sorted([*EXAMPLES.glob("*.f"), *EXAMPLES.glob("*.c")])
            # Lint does not linearize EQUIVALENCE or COMMON storage.
            if not re.search(r"EQUIVALENCE|COMMON", path.read_text(), re.I)
        ],
        ids=lambda path: path.name,
    )
    @pytest.mark.parametrize("derive", [True, False], ids=["ranges", "no-ranges"])
    def test_lint_graph_equals_compile_graph(self, path, derive):
        language = "c" if path.suffix == ".c" else "fortran"
        compile_ = compile_c if language == "c" else compile_fortran
        source = path.read_text()
        lint, graphs = _lint_graph(
            source, language, ranges=derive, schedule=True
        )
        if not graphs:  # DB errors stop lint before the graph passes
            assert derive and lint.error_count
            return
        (graph,) = graphs
        report = compile_(source, audit=True, derive_bounds=derive)
        assert graph.format_table() == report.graph.format_table()
        assert [str(edge) for edge in graph.edges] == [
            str(edge) for edge in report.graph.edges
        ]

    def test_induction_failure_degrades_to_rs003(self, monkeypatch):
        import repro.driver

        def broken(program):
            raise RuntimeError("induction recognizer bug")

        monkeypatch.setattr(repro.driver, "substitute_induction_variables", broken)
        source = "REAL A(0:99)\nDO 1 i = 0, 94\n1 A(i+5) = A(i) + 1\n"
        report = lint_source(source, schedule=True)
        messages = [d.message for d in report.diagnostics if d.code == "RS003"]
        assert (
            "induction-variables: RuntimeError: induction recognizer bug"
            in messages
        )
        # The graph passes assume the conservative graph, as compile does.
        assert any("front-end degraded" in message for message in messages)
        with pytest.raises(RuntimeError, match="induction recognizer bug"):
            lint_source(source, strict=True)

    @pytest.mark.parametrize("strict", [False, True])
    def test_normalization_failure_is_dl001(self, strict):
        report = lint_source(
            "REAL A(0:9)\nDO 1 i = 9, 0, -1\n1 A(i) = A(i+1)\n", strict=strict
        )
        assert [(d.code, d.message) for d in report.diagnostics] == [
            ("DL001", "loop i: non-positive step -1 unsupported")
        ]
        assert report.parsed and report.program is not None


class TestRangeAnalysisRunsOnce:
    SOURCE = generate_program("P0", lines=150, linearized_nests=12, seed=0).source

    def test_one_fixpoint_per_lint(self, monkeypatch):
        import repro.lint.engine as engine
        import repro.lint.ranges as ranges

        calls = []
        original = ranges.analyze_ranges

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # Both bindings: lint's own pass and the graph's assumption derivation.
        monkeypatch.setattr(ranges, "analyze_ranges", counted)
        monkeypatch.setattr(engine, "analyze_ranges", counted)
        lint_source(self.SOURCE, schedule=True)
        assert len(calls) == 1

    def test_forwarded_analysis_changes_nothing(self, monkeypatch):
        import repro.depgraph as depgraph

        forwarded = lint_source(self.SOURCE, schedule=True)
        original = depgraph.analyze_dependences

        def recomputing(*args, analysis=None, **kwargs):
            assert analysis is not None
            return original(*args, **kwargs)

        monkeypatch.setattr(depgraph, "analyze_dependences", recomputing)
        recomputed = lint_source(self.SOURCE, schedule=True)
        assert render_json(forwarded.diagnostics) == render_json(
            recomputed.diagnostics
        )
        assert forwarded.audited_pairs == recomputed.audited_pairs > 0


class TestOncePerLint:
    """What one lint computes once, and what it leaves for the collector."""

    SOURCE = generate_program("corpus1", lines=150, linearized_nests=12, seed=1).source

    @staticmethod
    def loops(stmts):
        count = 0
        for stmt in stmts:
            if isinstance(stmt, Loop):
                count += 1 + TestOncePerLint.loops(stmt.body)
            elif isinstance(stmt, If):
                count += TestOncePerLint.loops(stmt.then_body)
                count += TestOncePerLint.loops(stmt.else_body)
        return count

    def test_rectangular_bounds_once_per_lint(self, monkeypatch):
        from repro.analysis import normalize
        from repro.depgraph import builder

        # perfbench traces the graph builder's own binding.
        assert builder.rectangular_bounds is normalize.rectangular_bounds
        calls = []
        original = normalize._maximize

        def counted(upper, outer, var):
            calls.append(var)
            return original(upper, outer, var)

        monkeypatch.setattr(normalize, "_maximize", counted)
        report = lint_source(self.SOURCE, schedule=True)
        assert report.audited_pairs > 0  # the graph was built
        # check_program and the graph build share one computation: one
        # maximized bound per loop of the program.
        assert len(calls) == self.loops(report.program.body) > 0

    def test_recursive_walks_leave_no_cycles(self):
        modules = {
            "repro.lint.schedule",
            "repro.lint.dataflow",
            "repro.analysis.interproc",
        }

        def from_modules(obj):
            if isinstance(obj, types.CellType):
                try:
                    obj = obj.cell_contents
                except ValueError:  # an empty cell
                    return False
            return isinstance(obj, types.FunctionType) and obj.__module__ in modules

        lint_source(self.SOURCE, schedule=True)  # imports and caches
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            report = lint_source(self.SOURCE, schedule=True)
            assert report.audited_pairs > 0
            del report
            gc.collect()
            leftovers = [obj for obj in gc.garbage if from_modules(obj)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leftovers == []

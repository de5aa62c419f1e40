"""The delinearization soundness auditor.

A clean analyzer must produce zero DS diagnostics over every paper example;
a corrupted trace or a falsified verdict must be caught.
"""

from dataclasses import replace

import pytest

from repro.core.delinearize import delinearize
from repro.core.resilience import Budget
from repro.deptests import DependenceProblem, Verdict
from repro.deptests.counting import solution_census
from repro.dirvec.vectors import D_EQ, DirVec
from repro.driver import compile_c, compile_fortran
from repro.lint import audit as audit_module
from repro.lint import audit_problem, audit_result
from repro.symbolic import Assumptions, LinExpr


def single(coeffs, const, bounds, pairs=()):
    return DependenceProblem.single(coeffs, const, bounds, pairs=pairs)


FIGURE5 = single(
    {"k1": 100, "k2": -100, "j1": 10, "i2": -10, "i1": 1, "j2": -1},
    -110,
    {"i1": 8, "i2": 8, "j1": 9, "j2": 9, "k1": 8, "k2": 8},
)

EQUATION1 = single(
    {"i1": 1, "j1": 10, "i2": -1, "j2": -10},
    -5,
    {"i1": 4, "i2": 4, "j1": 9, "j2": 9},
    pairs=[("i1", "i2"), ("j1", "j2")],
)

SHIFT = single({"i1": 1, "i2": -1}, -5, {"i1": 9, "i2": 9}, pairs=[("i1", "i2")])

# i1-i2 + 8(j1-j2) + 64(k1-k2) - 10 = 0 over 8**6 = 262,144 box points: no
# barrier after the i pair, so the scan splits into i1-i2 in {-6, 2} and
# then j1-j2 in two values each; four realized directions, all reported
# exactly, verdict DEPENDENT.
THREE_LEVEL = single(
    {"i1": 1, "i2": -1, "j1": 8, "j2": -8, "k1": 64, "k2": -64},
    -10,
    {name: 7 for name in ("i1", "i2", "j1", "j2", "k1", "k2")},
    pairs=[("i1", "i2"), ("j1", "j2"), ("k1", "k2")],
)

# Fully separated into two groups and dependent, like FIGURE5, but with a
# 2,500-point box instead of FIGURE5's 656,100.
SEPARATED = single(
    {"i1": 1, "i2": -1, "j1": 10, "j2": -10},
    -10,
    {"i1": 4, "i2": 4, "j1": 9, "j2": 9},
    pairs=[("i1", "i2"), ("j1", "j2")],
)


class TestCleanAudits:
    @pytest.mark.parametrize(
        "problem", [FIGURE5, EQUATION1, SHIFT, SEPARATED, THREE_LEVEL]
    )
    def test_no_findings_on_correct_results(self, problem):
        result, diags = audit_problem(problem)
        assert diags == []

    def test_symbolic_problem_audits_clean(self):
        from repro.deptests import BoundedVar
        from repro.symbolic import Poly

        n = Poly.symbol("N")
        problem = DependenceProblem(
            [LinExpr({"i1": 1, "i2": -1, "j1": n, "j2": -n}, -1)],
            [
                BoundedVar("i1", n - 2),
                BoundedVar("i2", n - 2),
                BoundedVar("j1", n - 1),
                BoundedVar("j2", n - 1),
            ],
            assumptions=Assumptions({"N": 3}),
        )
        result, diags = audit_problem(problem)
        assert diags == []


class TestCorruptedTrace:
    def _corrupt_first_separated(self, result, mutate):
        trace = list(result.trace)
        for index, row in enumerate(trace):
            if row.separated is not None:
                trace[index] = mutate(row)
                result.trace = trace
                return
        raise AssertionError("no separated barrier row in trace")

    def test_tampered_barrier_constant_fires_ds001(self):
        """The regression the auditor exists for: a wrong remainder at a
        drawn dimension barrier must fail the re-checked condition (8)."""
        result = delinearize(FIGURE5, keep_trace=True)
        self._corrupt_first_separated(
            result,
            lambda row: replace(
                row,
                separated=LinExpr(
                    dict(row.separated.coeffs), row.separated.const + 1
                ),
            ),
        )
        diags = audit_result(FIGURE5, result)
        assert any(d.code == "DS001" for d in diags)
        assert all(d.severity == "error" for d in diags)

    def test_tampered_group_coefficient_fires_ds001(self):
        result = delinearize(FIGURE5, keep_trace=True)

        def mutate(row):
            coeffs = dict(row.separated.coeffs)
            name = next(iter(coeffs))
            coeffs[name] = coeffs[name] * 3
            return replace(row, separated=LinExpr(coeffs, row.separated.const))

        self._corrupt_first_separated(result, mutate)
        diags = audit_result(FIGURE5, result)
        assert any(d.code == "DS001" for d in diags)

    def test_trace_coefficient_mismatch_fires_ds001(self):
        result = delinearize(FIGURE5, keep_trace=True)
        trace = list(result.trace)
        for index, row in enumerate(trace):
            if row.coeff is not None:
                trace[index] = replace(row, coeff=row.coeff + 1)
                break
        result.trace = trace
        diags = audit_result(FIGURE5, result)
        assert any(
            d.code == "DS001" and "does not match" in d.message for d in diags
        )


class TestGroupConservation:
    """DS005: the separated groups must conserve the equation's solutions."""

    def _audit_with_group_constants(self, mutate, problem=SEPARATED, groups=2):
        """Audit ``problem``, which delinearization splits into ``groups``
        separated groups, after replacing the groups' constants ``c`` with
        ``mutate(c)``."""
        result = delinearize(problem, keep_trace=True)
        trace = result.trace
        rows = [k for k, row in enumerate(trace) if row.separated is not None]
        assert len(rows) == groups
        constants = mutate([trace[k].separated.const for k in rows])
        for k, const in zip(rows, constants):
            group = trace[k].separated
            trace[k] = replace(
                trace[k], separated=LinExpr(dict(group.coeffs), const)
            )
        return audit_result(problem, result)

    def test_group_constant_off_fires_ds005(self):
        diags = self._audit_with_group_constants(lambda c: [c[0] + 1, c[1]])
        assert any(
            d.code == "DS005" and "group constants sum to" in d.message
            for d in diags
        )

    def test_swapped_group_constants_fire_ds005(self):
        diags = self._audit_with_group_constants(lambda c: [c[1], c[0]])
        assert any(
            d.code == "DS005" and "separated groups admit" in d.message
            for d in diags
        )

    def test_swapped_group_constants_fire_ds005_on_figure5(self):
        """FIGURE5's three groups over a 656,100-point box: ``i1 - j2 = 10``
        has no solution, so the swapped groups admit none."""
        diags = self._audit_with_group_constants(
            lambda c: [c[1], c[0], c[2]], FIGURE5, groups=3
        )
        assert any(
            d.code == "DS005" and "separated groups admit 0" in d.message
            for d in diags
        )


class TestSplitAudit:
    """DS001 re-derives every split's cases and replays each case; DS005
    sums the cases' group counts.  A tampered split must be caught."""

    def _split_rows(self, result):
        """Positions of the outermost split row and of its case rows."""
        split = next(i for i, row in enumerate(result.trace) if row.cases)
        depth = result.trace[split].depth + 1
        cases = [
            i
            for i, row in enumerate(result.trace)
            if row.depth == depth and row.note.startswith("case")
        ]
        return split, cases

    def test_three_level_trace_splits(self):
        result = delinearize(THREE_LEVEL, keep_trace=True)
        assert result.verdict is Verdict.DEPENDENT
        split, cases = self._split_rows(result)
        assert [str(v) for v in result.trace[split].cases] == ["-6", "2"]
        assert len(cases) == 2

    def test_dropped_case_fires_ds001_and_ds005(self):
        result = delinearize(THREE_LEVEL, keep_trace=True)
        split, cases = self._split_rows(result)
        trace = result.trace
        row = trace[split]
        result.trace = trace[: cases[1]]
        result.trace[split] = replace(row, cases=row.cases[:1])
        diags = audit_result(THREE_LEVEL, result)
        assert any(
            d.code == "DS001" and "head sum takes v in {-6, 2}" in d.message
            for d in diags
        )
        assert any(
            d.code == "DS005" and "split cases admit" in d.message
            for d in diags
        )

    def test_missing_case_rows_fire_ds001(self):
        result = delinearize(THREE_LEVEL, keep_trace=True)
        _, cases = self._split_rows(result)
        result.trace = result.trace[: cases[1]]
        diags = audit_result(THREE_LEVEL, result)
        assert any(
            d.code == "DS001" and "lists 2 cases, the trace has 1" in d.message
            for d in diags
        )

    def test_wrong_case_value_fires_ds001(self):
        result = delinearize(THREE_LEVEL, keep_trace=True)
        split, cases = self._split_rows(result)
        trace = result.trace
        row = trace[split]
        trace[split] = replace(row, cases=(row.cases[0] - 8, row.cases[1]))
        head = trace[cases[0]].separated
        trace[cases[0]] = replace(
            trace[cases[0]],
            separated=LinExpr(dict(head.coeffs), head.const + 8),
        )
        diags = audit_result(THREE_LEVEL, result)
        assert any(
            d.code == "DS001" and "has cases v in {-14, 2}" in d.message
            for d in diags
        )

    def test_case_head_off_its_value_fires_ds001(self):
        result = delinearize(THREE_LEVEL, keep_trace=True)
        _, cases = self._split_rows(result)
        head = result.trace[cases[0]].separated
        result.trace[cases[0]] = replace(
            result.trace[cases[0]],
            separated=LinExpr(dict(head.coeffs), head.const + 1),
        )
        diags = audit_result(THREE_LEVEL, result)
        assert any(
            d.code == "DS001" and "case v=-6" in d.message for d in diags
        )

    def test_case_solved_against_the_wrong_constant_fires(self, monkeypatch):
        """Each case scans on with ``c0 + v + gk`` instead of ``c0 + v``."""
        from importlib import import_module

        scan_module = import_module("repro.core.delinearize")
        resume = scan_module._resume

        def shifted(scan, k, c0):
            return resume(scan, k, c0 + scan.suffix_gcd[k])

        monkeypatch.setattr(scan_module, "_resume", shifted)
        result = delinearize(THREE_LEVEL, keep_trace=True)
        codes = {d.code for d in audit_result(THREE_LEVEL, result)}
        assert {"DS001", "DS005"} <= codes


class TestFalsifiedVerdicts:
    def test_false_independent_fires_ds002(self):
        result = delinearize(SHIFT, keep_trace=True)
        assert result.verdict is Verdict.DEPENDENT
        result.verdict = Verdict.INDEPENDENT
        diags = audit_result(SHIFT, result)
        assert any(d.code == "DS002" for d in diags)

    def test_false_dependent_fires_ds002_and_ds003(self):
        # 2i1 - 2i2 - 1 = 0 has no integer solutions (GCD test disproves).
        problem = single(
            {"i1": 2, "i2": -2}, -1, {"i1": 9, "i2": 9}, pairs=[("i1", "i2")]
        )
        result = delinearize(problem, keep_trace=True)
        assert result.verdict is Verdict.INDEPENDENT
        result.verdict = Verdict.DEPENDENT
        codes = {d.code for d in audit_result(problem, result)}
        assert "DS002" in codes
        assert "DS003" in codes

    def test_missing_direction_fires_ds004(self):
        result = delinearize(SHIFT, keep_trace=True)
        result.direction_vectors = {DirVec([D_EQ])}  # lie: only '='
        diags = audit_result(SHIFT, result)
        assert any(d.code == "DS004" for d in diags)

    def test_false_independent_on_figure5_fires_ds002(self):
        result = delinearize(FIGURE5, keep_trace=True)
        assert result.verdict is Verdict.DEPENDENT
        result.verdict = Verdict.INDEPENDENT
        diags = audit_result(FIGURE5, result)
        assert [d.code for d in diags] == ["DS002"]

    def test_dropped_direction_on_three_levels_fires_ds004(self):
        result = delinearize(THREE_LEVEL, keep_trace=True)
        dropped = DirVec.parse("(<, >, =)")
        assert dropped in result.direction_vectors
        result.direction_vectors = result.direction_vectors - {dropped}
        diags = audit_result(THREE_LEVEL, result)
        assert [d.code for d in diags] == ["DS004"]
        assert "(<, >, =)" in diags[0].message


class TestStarvedCensus:
    def test_starved_budget_skips_the_counting_checks(self, monkeypatch):
        """A falsified verdict that DS002 catches goes unreported, without
        an exception, when every count runs out of budget."""
        result = delinearize(THREE_LEVEL, keep_trace=True)
        result.verdict = Verdict.INDEPENDENT
        assert [d.code for d in audit_result(THREE_LEVEL, result)] == ["DS002"]

        starved = []

        def census(problem, budget):
            starved.append(problem)
            return solution_census(problem, Budget(steps=1))

        monkeypatch.setattr(audit_module, "solution_census", census)
        assert audit_result(THREE_LEVEL, result) == []
        assert starved


class TestPaperSuite:
    """Acceptance: the auditor runs over the paper-example programs with
    zero DS errors."""

    FORTRAN_PROGRAMS = [
        "REAL D(0:9)\nDO 1 i = 0, 8\n1 D(i+1) = D(i) * Q\n",
        "REAL D(0:9)\nDO 1 i = 0, 4\n1 D(i) = D(i+5) * Q\n",
        "REAL C(0:99)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n1 C(i+10*j) = C(i+10*j+5)\n",
        (
            "REAL A(200)\nDO 10 i = 1, 8\nDO 10 j = 1, 10\n"
            "10 A(10*i+j) = A(10*(i+2)+j) + 7\n"
        ),
        (
            "IB = -1\nDO 1 I = 0, 10\nDO 1 J = 0, 7\nDO 1 K = 0, 5\n"
            "IB = IB + 1\nC(J) = C(J) + 1\n1 B(IB) = B(IB) + Q\n"
        ),
        (
            "REAL A(0:9,0:9)\nREAL B(0:4,0:19)\nEQUIVALENCE (A, B)\n"
            "DO 1 i = 0, 4\nDO 1 j = 0, 9\n1 A(i, j) = B(i, 2*j+1)\n"
        ),
        (
            "REAL A(0:20,0:20)\nDO 1 i = 0, 5\nDO 1 j = 0, 8\n"
            "1 A(i, j) = A(2*i, j+1)\n"
        ),
        (
            "REAL X(200), Y(200), B(100)\nREAL A(100,100), C(100,100)\n"
            "DO 30 i = 1, 100\nX(i) = Y(i) + 10\nDO 20 j = 1, 99\n"
            "B(j) = A(j,20)\nDO 10 k = 1, 100\nA(j+1,k) = B(j) + C(j,k)\n"
            "10 CONTINUE\nY(i+j) = A(j+1,20)\n20 CONTINUE\n30 CONTINUE\n"
        ),
    ]

    @pytest.mark.parametrize(
        "source", FORTRAN_PROGRAMS, ids=lambda s: s.splitlines()[0][:28]
    )
    def test_fortran_program_audits_clean(self, source):
        report = compile_fortran(source, audit=True)
        assert report.audit_diagnostics == []
        assert "soundness-audit" in report.phases

    def test_symbolic_program_audits_clean(self):
        report = compile_fortran(
            (
                "REAL A(0:N*N*N-1)\nDO 1 i = 0, N-2\nDO 1 j = 0, N-1\n"
                "DO 1 k = 0, N-2\n1 A(N*N*k+N*j+i) = A(N*N*k+j+N*i+N*N+N)\n"
            ),
            assumptions=Assumptions({"N": 3}),
            audit=True,
        )
        assert report.audit_diagnostics == []

    def test_c_pointer_walk_audits_clean(self):
        report = compile_c(
            (
                "float d[100];\nfloat *i, *j;\n"
                "for (j = d; j <= d + 90; j += 10)\n"
                "    for (i = j; i < j + 5; i++)\n"
                "        *i = *(i + 5);\n"
            ),
            audit=True,
        )
        assert report.audit_diagnostics == []

    def test_audit_off_by_default(self):
        report = compile_fortran(
            "REAL D(0:9)\nDO 1 i = 0, 8\n1 D(i+1) = D(i) * Q\n"
        )
        assert report.audit_diagnostics == []
        assert "soundness-audit" not in report.phases

"""Interval analysis: domain algebra, soundness vs the interpreter, DB codes."""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import normalize_program
from repro.corpus.generator import generate_program
from repro.frontend import parse_fortran
from repro.ir import Assignment, BinOp, IntLit, Loop, Name, Program, summarize
from repro.ir.interp import eval_expr, execute_assignment, Store
from repro.lint import ranges
from repro.lint.dataflow import _scalar_reads, build_cfg
from repro.lint.ranges import (
    TOP,
    Interval,
    _invert_monotone,
    analyze_ranges,
    check_bounds,
    declared_bound_assumptions,
    derive_assumptions,
    nonempty_loop_assumptions,
)
from repro.symbolic import Assumptions, Poly

N = Poly.symbol("N")


def program_of(source):
    return normalize_program(parse_fortran(source))


def raw_of(source):
    """Parse without loop normalization (keeps bounds as written)."""
    return parse_fortran(source)


def assign_node(analysis, text):
    """The first CFG assign node whose statement prints as ``text``."""
    for node in analysis.cfg.nodes:
        if node.kind == "assign" and str(node.stmt) == text:
            return node
    raise AssertionError(f"no assign node {text!r}")


# ---------------------------------------------------------------------------
# The interval domain
# ---------------------------------------------------------------------------


class TestIntervalLattice:
    def test_predicates(self):
        assert Interval.point(3).is_point()
        assert Interval(None, None).is_top()
        assert Interval(2, 1).is_empty()
        assert Interval(0, 9).contains(0)
        assert Interval(0, 9).contains(9)
        assert not Interval(0, 9).contains(10)
        assert Interval(None, 4).contains(-10**9)

    def test_join_meet(self):
        assert Interval(0, 3).join(Interval(5, 9)) == Interval(0, 9)
        assert Interval(0, 3).meet(Interval(2, 9)) == Interval(2, 3)
        assert Interval(0, 3).meet(Interval(5, 9)).is_empty()
        assert Interval(None, 4).join(Interval(2, None)).is_top()
        assert Interval(None, 4).meet(Interval(2, None)) == Interval(2, 4)

    def test_widen_jumps_unstable_ends(self):
        assert Interval(1, 5).widen(Interval(1, 9)) == Interval(1, None)
        assert Interval(1, 5).widen(Interval(0, 5)) == Interval(None, 5)
        # Stable bounds are kept exactly.
        assert Interval(1, 5).widen(Interval(2, 4)) == Interval(1, 5)


class TestIntervalArithmetic:
    def test_add_sub_neg(self):
        assert Interval(1, 2) + Interval(10, 20) == Interval(11, 22)
        assert Interval(1, 2) - Interval(10, 20) == Interval(-19, -8)
        assert -Interval(3, 7) == Interval(-7, -3)
        assert (Interval(0, None) + Interval.point(1)) == Interval(1, None)

    def test_mul(self):
        assert Interval(1, 5) * Interval(-2, 3) == Interval(-10, 15)
        assert Interval(-3, -1) * Interval(-4, -2) == Interval(2, 12)
        # 0 * unbounded is 0 on that endpoint, not NaN.
        assert TOP * Interval.point(0) == Interval.point(0)

    def test_div_truncates_toward_zero(self):
        assert Interval(-7, 7).div(Interval(2, 5)) == Interval(-3, 3)
        assert Interval(10, 20).div(Interval(-2, -1)) == Interval(-20, -5)

    def test_div_by_interval_spanning_zero_is_top(self):
        assert Interval(1, 10).div(Interval(-1, 1)).is_top()
        assert Interval(1, 10).div(Interval.point(0)).is_top()
        # A zero endpoint is clamped out (division by zero aborts).
        assert Interval(10, 10).div(Interval(0, 5)) == Interval(2, 10)

    def test_str(self):
        assert str(Interval(0, 9)) == "[0, 9]"
        assert str(Interval(None, 4)) == "[-inf, 4]"
        assert str(TOP) == "[-inf, +inf]"


# ---------------------------------------------------------------------------
# The analysis on concrete programs
# ---------------------------------------------------------------------------


class TestAnalyzeRanges:
    def test_straight_line_constants(self):
        analysis = analyze_ranges(program_of("X = 2\nY = X + 3\nZ = Y * Y\n"))
        node = assign_node(analysis, "Z = Y*Y")
        assert analysis.interval_at(node.id, "X") == Interval.point(2)
        assert analysis.interval_at(node.id, "Y") == Interval.point(5)

    def test_loop_variable_bound_inside_body(self):
        analysis = analyze_ranges(
            raw_of("REAL A(0:9)\nDO i = 2, 7\nA(i) = i\nENDDO\n")
        )
        node = assign_node(analysis, "A(i) = i")
        assert analysis.interval_at(node.id, "i") == Interval(2, 7)

    def test_branch_join(self):
        # X is 1 on the zero-trip path and 9 after the loop body ran.
        analysis = analyze_ranges(
            program_of(
                "REAL A(0:9)\nX = 1\nDO i = 0, M\nX = 9\nA(i) = X\nENDDO\n"
                "Y = X\n"
            )
        )
        node = assign_node(analysis, "Y = X")
        assert analysis.interval_at(node.id, "X") == Interval(1, 9)

    def test_symbolic_parameters_seeded_from_assumptions(self):
        analysis = analyze_ranges(
            program_of("REAL A(0:99)\nDO i = 0, N\nA(i) = i\nENDDO\n"),
            Assumptions({"N": 1}),
        )
        node = assign_node(analysis, "A(i) = i")
        assert analysis.interval_at(node.id, "i") == Interval(0, None)
        assert analysis.interval_at(node.id, "N") == Interval(1, None)

    def test_accumulator_widens_and_terminates(self):
        # K grows every iteration; widening must conclude [0, +inf] rather
        # than iterate forever.
        analysis = analyze_ranges(
            program_of(
                "REAL A(0:9)\nK = 0\nDO i = 0, N\nK = K + 1\nA(i) = K\n"
                "ENDDO\n"
            )
        )
        node = assign_node(analysis, "A(i) = K")
        assert analysis.interval_at(node.id, "K") == Interval(1, None)

    def test_nested_accumulators_terminate(self):
        analysis = analyze_ranges(
            program_of(
                "REAL A(0:9)\nK = 0\nDO i = 0, N\nDO j = 0, M\n"
                "K = K + 2\nA(j) = K\nENDDO\nENDDO\n"
            )
        )
        node = assign_node(analysis, "A(j) = K")
        iv = analysis.interval_at(node.id, "K")
        assert iv.lo == 2 and iv.hi is None

    def test_downward_loop(self):
        analysis = analyze_ranges(
            raw_of("REAL A(0:9)\nDO i = 9, 2, -1\nA(i) = i\nENDDO\n")
        )
        node = assign_node(analysis, "A(i) = i")
        assert analysis.interval_at(node.id, "i") == Interval(2, 9)

    def test_read_hull_sees_only_read_sites(self):
        # M is read (as a bound and a subscript addend) only while it is
        # 100; the later clobber is never consulted.
        analysis = analyze_ranges(
            program_of(
                "REAL A(0:200)\nM = 100\nDO i = 0, 9\nA(i + M) = i\nENDDO\n"
                "M = -5\n"
            )
        )
        assert analysis.read_hull("M") == Interval.point(100)

    def test_assignment_shadowing_loop_variable_is_conservative(self):
        # Inside the loop, reads of "i" see the loop binding; after it they
        # see the assigned scalar.  The analysis must not claim [0, 3].
        program = Program(body=[
            Loop("i", IntLit(0), IntLit(3), [
                Assignment(Name("i"), IntLit(7)),
                Assignment(Name("X"), Name("i")),
            ]),
            Assignment(Name("Y"), Name("i")),
        ])
        analysis = analyze_ranges(program)
        after = assign_node(analysis, "Y = i")
        assert analysis.interval_at(after.id, "i").contains(7)

    def test_zero_trip_loop_body_unreachable(self):
        analysis = analyze_ranges(
            raw_of("REAL A(0:9)\nDO i = 5, 2\nA(i) = i\nENDDO\n")
        )
        node = assign_node(analysis, "A(i) = i")
        assert analysis.env_in[node.id] is None
        assert analysis.interval_at(node.id, "i").is_top()  # sound default


# ---------------------------------------------------------------------------
# Soundness against the reference interpreter
# ---------------------------------------------------------------------------

_SCALARS = ("x", "y", "z")


def _exprs(names, depth=2):
    leaves = st.builds(IntLit, st.integers(-4, 4))
    if names:
        leaves |= st.builds(Name, st.sampled_from(sorted(names)))
    if depth == 0:
        return leaves
    sub = _exprs(names, depth - 1)
    return leaves | st.builds(BinOp, st.sampled_from("+-*"), sub, sub)


@st.composite
def _blocks(draw, defined, loop_depth):
    body = []
    for _ in range(draw(st.integers(1, 3))):
        if loop_depth < 2 and draw(st.booleans()):
            var = f"i{loop_depth}"
            lower = draw(st.integers(-3, 3))
            loop = Loop(
                var,
                IntLit(lower),
                IntLit(lower + draw(st.integers(-1, 5))),
                draw(_blocks(defined | {var}, loop_depth + 1)),
                step=IntLit(draw(st.integers(1, 2))),
            )
            body.append(loop)
        else:
            name = draw(st.sampled_from(_SCALARS))
            body.append(Assignment(Name(name), draw(_exprs(defined))))
            defined = defined | {name}
    return body


@st.composite
def _programs(draw):
    return Program(body=draw(_blocks(frozenset(), 0)))


def _run_checking(analysis, node_of, stmts, store, loops):
    """Execute like :mod:`repro.ir.interp`, asserting every visible value
    lies inside the inferred interval at each assignment's entry point."""
    for stmt in stmts:
        if isinstance(stmt, Loop):
            lower = eval_expr(stmt.lower, store, loops)
            upper = eval_expr(stmt.upper, store, loops)
            step = eval_expr(stmt.step, store, loops)
            value = lower
            while value <= upper:
                _run_checking(
                    analysis, node_of, stmt.body, store,
                    {**loops, stmt.var: value},
                )
                value += step
        else:
            node = node_of[id(stmt)]
            for name, value in {**store.scalars, **loops}.items():
                interval = analysis.interval_at(node.id, name)
                assert interval.contains(value), (
                    f"at {stmt}: {name} = {value} outside {interval}"
                )
            execute_assignment(stmt, store, loops)


@given(_programs())
@settings(max_examples=80, deadline=None)
def test_concrete_values_lie_inside_inferred_intervals(program):
    """Soundness: any value the interpreter observes at a program point is
    contained in the interval the analysis inferred for that point."""
    analysis = analyze_ranges(program)
    node_of = {
        id(node.stmt): node
        for node in analysis.cfg.nodes
        if node.kind == "assign"
    }
    _run_checking(analysis, node_of, program.body, Store(), {})


# ---------------------------------------------------------------------------
# Derived assumptions
# ---------------------------------------------------------------------------


class TestDerivedAssumptions:
    def test_declared_extent_implies_lower_bound(self):
        # The paper's Section 6 inference: A(0:N*N*N-1) entails N >= 1.
        assumed = declared_bound_assumptions(
            program_of("REAL A(0:N*N*N-1)\n")
        )
        assert assumed.lower_bound("N") == 1

    def test_linear_extent(self):
        # Extent 2*N + 4 >= 1 first holds at N = -1.
        assumed = declared_bound_assumptions(program_of("REAL B(0:2*N+3)\n"))
        assert assumed.lower_bound("N") == -1

    def test_constant_extent_adds_nothing(self):
        assumed = declared_bound_assumptions(program_of("REAL C(0:99)\n"))
        assert assumed.is_empty()

    def test_nonempty_loop_assumptions(self):
        base = Assumptions.empty()
        out = nonempty_loop_assumptions(["i"], {"i": N - 2}, base)
        assert out.lower_bound("N") == 2
        # Constant bounds carry no symbol information.
        same = nonempty_loop_assumptions(["i"], {"i": Poly.const(9)}, base)
        assert same.is_empty()

    def test_derive_assumptions_includes_interval_facts(self):
        derived = derive_assumptions(
            program_of(
                "REAL A(0:N-1)\nM = 100\nDO i = 0, 9\nA(i) = M\nENDDO\n"
            )
        )
        assert derived.lower_bound("N") == 1
        assert derived.interval("M") == (100, 100)
        # The interval fact makes M usable by the symbolic prover.
        M = Poly.symbol("M")
        assert derived.is_nonneg(M - 100) is True
        assert derived.is_nonneg(101 - M) is True

    def test_invert_monotone(self):
        assert _invert_monotone(N * N * N, 1) == ("N", 1)
        assert _invert_monotone(3 * N + 1, 0) == ("N", 0)
        assert _invert_monotone(N * N, 1) is None  # even exponent
        assert _invert_monotone(-N, 1) is None  # decreasing
        M = Poly.symbol("M")
        assert _invert_monotone(N + M, 1) is None  # two symbols


# ---------------------------------------------------------------------------
# DB diagnostics
# ---------------------------------------------------------------------------


def db_codes(source, assumptions=None):
    program = program_of(source)
    derived = derive_assumptions(program, assumptions)
    return check_bounds(program, derived)


class TestBoundsDiagnostics:
    def test_db001_provably_out_of_bounds(self):
        diags = db_codes(
            "REAL C(0:99)\nM = 100\nDO i = 0, 9\nDO j = 0, 9\n"
            "C(i + 10*j + M) = C(i + 10*j)\nENDDO\nENDDO\n"
        )
        errors = [d for d in diags if d.code == "DB001"]
        assert len(errors) == 1
        assert "[100, 199]" in errors[0].message
        assert errors[0].severity == "error"

    def test_db002_possible_overrun(self):
        diags = db_codes(
            "REAL C(0:99)\nM = 60\nDO i = 0, 9\nDO j = 0, 9\n"
            "C(i + 10*j + M) = C(i + 10*j)\nENDDO\nENDDO\n"
        )
        warnings = [d for d in diags if d.code == "DB002"]
        assert len(warnings) == 1
        assert "[60, 159]" in warnings[0].message
        assert "overrun" in warnings[0].message

    def test_db004_dimension_overflow(self):
        # i spans 15 values against a recovered dimension of 10/1 = 10.
        diags = db_codes(
            "REAL C(0:99)\nDO i = 0, 14\nDO j = 0, 5\n"
            "C(i + 10*j) = C(i + 10*j) + 1\nENDDO\nENDDO\n"
        )
        warnings = [d for d in diags if d.code == "DB004"]
        assert warnings
        assert "spans 15 values" in warnings[0].message

    def test_db003_equivalence_straddle(self):
        diags = db_codes(
            "REAL A(0:9, 0:9)\nREAL B(0:49)\nEQUIVALENCE (A, B)\n"
            "DO i = 0, 9\nDO j = 0, 9\nA(i, j) = B(5*i) + 1\n"
            "ENDDO\nENDDO\n"
        )
        warnings = [d for d in diags if d.code == "DB003"]
        assert len(warnings) == 1
        assert "EQUIVALENCE'd B" in warnings[0].message

    def test_db003_common_overrun(self):
        diags = db_codes(
            "REAL C(0:9)\nREAL D(0:9)\nCOMMON /BLK/ C, D\n"
            "DO i = 0, 15\nC(i) = 1\nENDDO\n"
        )
        warnings = [d for d in diags if d.code == "DB003"]
        assert len(warnings) == 1
        assert "COMMON /BLK/" in warnings[0].message

    def test_db003_common_overruns_report_in_member_order(self):
        # Both members of one statement overrun: the findings follow the
        # COMMON list (C, then D), not the statement's reference order.
        diags = db_codes(
            "REAL C(0:9)\nREAL D(0:9)\nREAL E(0:9)\nCOMMON /BLK/ C, D, E\n"
            "DO i = 0, 15\nD(i) = C(i)\nENDDO\n"
        )
        warnings = [d.message for d in diags if d.code == "DB003"]
        assert [message.split("(")[0] for message in warnings] == ["C", "D"]

    def test_in_bounds_program_is_clean(self):
        diags = db_codes(
            "REAL C(0:99)\nDO i = 0, 9\nDO j = 0, 9\n"
            "C(i + 10*j) = C(i + 10*j) + 1\nENDDO\nENDDO\n"
        )
        assert diags == []

    def test_paper_symbolic_example_is_clean(self):
        diags = db_codes(
            "REAL A(0:N*N*N-1)\nDO i = 0, N-2\nDO j = 0, N-1\n"
            "DO k = 0, N-2\nA(N*N*k+N*j+i) = A(N*N*k+j+N*i+N*N+N)\n"
            "ENDDO\nENDDO\nENDDO\n"
        )
        assert diags == []


class TestEngineIntegration:
    def test_lint_source_reports_db_codes(self):
        from repro.lint.engine import lint_source

        source = (
            "      REAL C(0:99)\n"
            "      M = 100\n"
            "      DO 1 i = 0, 9\n"
            "      DO 1 j = 0, 9\n"
            "    1 C(i + 10*j + M) = C(i + 10*j)\n"
        )
        report = lint_source(source, audit=False)
        assert any(d.code == "DB001" for d in report.diagnostics)
        off = lint_source(source, audit=False, ranges=False)
        assert not any(
            d.code.startswith("DB") for d in off.diagnostics
        )


# ---------------------------------------------------------------------------
# Linear passes: one hull scan, one derivation, no search for linear bounds
# ---------------------------------------------------------------------------

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def corpus_source(seed):
    return generate_program(
        f"R{seed}", lines=150, linearized_nests=12, seed=seed
    ).source


def reference_hull(analysis, name):
    """The per-name scan ``read_hull`` replaced: every node, every name."""
    arrays = set(analysis.program.decls)
    hull = None
    for node in analysis.cfg.nodes:
        if node.kind not in ("assign", "loop"):
            continue
        if name not in _scalar_reads(node, arrays):
            continue
        if analysis.env_in.get(node.id) is None:
            continue
        value = analysis.interval_at(node.id, name)
        hull = value if hull is None else hull.join(value)
    return TOP if hull is None else hull


def lint_graphs(source, language="fortran", **kwargs):
    """``lint_source``'s report and the graphs it built."""
    import repro.depgraph as depgraph
    from repro.lint.engine import lint_source

    graphs = []
    original = depgraph.analyze_dependences

    def capture(*args, **options):
        graphs.append(original(*args, **options))
        return graphs[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(depgraph, "analyze_dependences", capture)
        return lint_source(source, language=language, **kwargs), graphs


class TestLinearPasses:
    def test_read_hulls_scan_each_node_at_most_once(self, monkeypatch):
        from repro.lint.engine import lint_source

        scanned = Counter()
        real = ranges._scalar_reads

        def counting(node, arrays):
            scanned[node.id] += 1
            return real(node, arrays)

        monkeypatch.setattr(ranges, "_scalar_reads", counting)
        report = lint_source(corpus_source(1), schedule=True)
        nodes = len(build_cfg(report.program).nodes)
        assert 0 < sum(scanned.values()) <= nodes
        assert set(scanned.values()) == {1}

    @pytest.mark.parametrize(
        "assumed", [None, Assumptions({"NX": 4})], ids=["none", "NX>=4"]
    )
    def test_derivation_runs_once_per_lint(self, monkeypatch, assumed):
        from repro.lint.engine import lint_source

        derived = []
        real = ranges._derive

        def counting(*args):
            derived.append(real(*args))
            return derived[-1]

        monkeypatch.setattr(ranges, "_derive", counting)
        report, graphs = lint_graphs(
            corpus_source(1), assumptions=assumed, schedule=True
        )
        assert len(graphs) == 1 and graphs[0].edges
        assert len(derived) == 1
        # Each lint derives afresh: nothing outlives its analysis.
        lint_source(corpus_source(1), assumptions=assumed)
        assert len(derived) == 2

    def test_loop_facts_once_per_loop_set_per_graph(self, monkeypatch):
        from repro.depgraph import analyze_dependences, builder

        program = program_of(corpus_source(1))
        loop_sets = {
            frozenset(loop.var for loop in first.loops + second.loops)
            for first, second in builder.reference_pairs(program)
        }
        calls = []
        real = builder.nonempty_loop_assumptions

        def counting(loop_vars, bounds, base):
            calls.append(frozenset(loop_vars))
            return real(loop_vars, bounds, base)

        # perfbench traces the graph builder's own binding.
        monkeypatch.setattr(builder, "nonempty_loop_assumptions", counting)
        for build in (1, 2):
            # Each graph builds its facts afresh: nothing outlives the call.
            del calls[:]
            graph = analyze_dependences(program, normalized=True)
            assert graph.perf.pairs > len(loop_sets) > 1
            assert Counter(calls) == Counter(loop_sets), build

    def test_linear_bounds_need_no_search(self, monkeypatch):
        from repro.lint.engine import lint_source

        evaluated = []
        real_evaluate = Poly.evaluate

        def counting_evaluate(poly, values):
            evaluated.append(poly)
            return real_evaluate(poly, values)

        inverted = []
        real_invert = ranges._invert_monotone

        def watching(poly, target):
            before = len(evaluated)
            result = real_invert(poly, target)
            inverted.append((poly, len(evaluated) - before, result))
            return result

        monkeypatch.setattr(Poly, "evaluate", counting_evaluate)
        monkeypatch.setattr(ranges, "_invert_monotone", watching)
        lint_source(corpus_source(1), schedule=True)
        linear = [entry for entry in inverted if entry[0].degree() == 1]
        assert linear, "the corpus program has symbolic loop bounds"
        assert any(result is not None for _, _, result in linear)
        assert [searched for _, searched, _ in linear] == [0] * len(linear)
        # Higher odd degrees still search: the paper's N**3 extent.
        evaluated.clear()
        assert real_invert(N * N * N, 1) == ("N", 1)
        assert evaluated

    @pytest.mark.parametrize(
        "name,source",
        [(f"corpus-{seed}", corpus_source(seed)) for seed in (1, 2, 3)]
        + [
            (path.name, path.read_text())
            for path in sorted(EXAMPLES.glob("*.f"))
        ],
    )
    def test_one_pass_hulls_equal_per_name_scan(self, name, source):
        program = program_of(source)
        analysis = analyze_ranges(
            program, declared_bound_assumptions(program)
        )
        arrays = set(program.decls)
        names = {"NEVER_READ"} | summarize(program).loop_table.assigned
        for node in analysis.cfg.nodes:
            names |= _scalar_reads(node, arrays)
        for scalar in sorted(names):
            assert analysis.read_hull(scalar) == reference_hull(
                analysis, scalar
            ), scalar

    def test_stored_derivation_is_keyed_by_base_assumptions(self):
        source = "REAL A(0:N-1)\nM = 100\nDO i = 0, 9\nA(i) = M\nENDDO\n"
        program = program_of(source)
        analysis = analyze_ranges(
            program, declared_bound_assumptions(program)
        )
        bare = derive_assumptions(program, None, analysis)
        four = derive_assumptions(program, Assumptions({"N": 4}), analysis)
        assert bare.lower_bound("N") == 1
        assert four.lower_bound("N") == 4
        assert bare.interval("M") == four.interval("M") == (100, 100)
        # Equal bases share one derivation; no base is the empty base.
        assert derive_assumptions(program, Assumptions.empty(), analysis) is bare
        assert (
            derive_assumptions(program, Assumptions({"N": 4}), analysis)
            is four
        )
        # Another program never reads this analysis's store.
        other = program_of(source)
        assert derive_assumptions(other, None, analysis) is not bare

    @pytest.mark.parametrize(
        "assumed", [None, Assumptions({"N": 4})], ids=["none", "N>=4"]
    )
    @pytest.mark.parametrize(
        "path",
        sorted([*EXAMPLES.glob("*.f"), *EXAMPLES.glob("*.c")]),
        ids=lambda path: path.name,
    )
    def test_lint_graph_equals_cold_graph(self, path, assumed):
        from repro.depgraph import analyze_dependences

        language = "c" if path.suffix == ".c" else "fortran"
        report, graphs = lint_graphs(
            path.read_text(), language, assumptions=assumed, schedule=True
        )
        if not graphs:  # DB errors stop lint before the graph passes
            assert report.error_count
            return
        (graph,) = graphs
        cold = analyze_dependences(
            report.program,
            assumptions=assumed,
            normalized=True,
            audit=True,
            use_cache=False,
        )
        assert graph.format_table() == cold.format_table()
        assert [str(e) for e in graph.edges] == [str(e) for e in cold.edges]
        assert graph.audit_diagnostics == cold.audit_diagnostics
        assert graph.degradations == cold.degradations

"""Dataflow framework: CFG shape, reaching definitions, DF passes."""

from repro.analysis import normalize_program
from repro.frontend import parse_fortran
from repro.lint.dataflow import (
    ENTRY_DEF,
    build_cfg,
    check_assumption_invariance,
    check_bound_invariance,
    check_subscript_invariance,
    check_uninitialized_reads,
    invariant_symbols,
    reaching_definitions,
    run_dataflow_checks,
)


def program_of(source):
    return normalize_program(parse_fortran(source))


class TestCFG:
    def test_straight_line(self):
        cfg = build_cfg(program_of("X = 1\nY = X\n"))
        kinds = [n.kind for n in cfg.nodes]
        assert kinds == ["entry", "exit", "assign", "assign"]
        # entry -> X=1 -> Y=X -> exit
        assert cfg.nodes[2].succs == [3]
        assert cfg.nodes[3].succs == [1]

    def test_loop_has_back_and_bypass_edges(self):
        cfg = build_cfg(program_of("REAL A(0:9)\nDO i = 0, 9\nA(i) = 1\nENDDO\n"))
        header = next(n for n in cfg.nodes if n.kind == "loop")
        body = next(n for n in cfg.nodes if n.kind == "assign")
        assert body.id in header.succs  # into the body
        assert header.id in body.succs  # back edge
        assert cfg.exit.id in header.succs  # zero-trip bypass

    def test_nested_loops_record_enclosing(self):
        cfg = build_cfg(
            program_of(
                "REAL A(0:9)\nDO i = 0, 9\nDO j = 0, 9\nA(i) = j\nENDDO\nENDDO\n"
            )
        )
        body = next(n for n in cfg.nodes if n.kind == "assign")
        assert [loop.var for loop in body.loops] == ["i", "j"]


class TestReachingDefinitions:
    def test_def_reaches_use(self):
        program = program_of("X = 1\nY = X\n")
        cfg = build_cfg(program)
        rd = reaching_definitions(program, cfg)
        use_node = cfg.nodes[3]  # Y = X
        chains = rd.use_def(use_node)
        assert chains["X"] == {2}  # the node of X = 1

    def test_entry_pseudo_def_before_first_assignment(self):
        program = program_of("Y = X\nX = 1\n")
        cfg = build_cfg(program)
        rd = reaching_definitions(program, cfg)
        use_node = cfg.nodes[2]  # Y = X, before X = 1
        assert rd.use_def(use_node)["X"] == {ENTRY_DEF}

    def test_loop_carried_definition_reaches_header(self):
        program = program_of(
            "REAL A(0:9)\nDO i = 0, 9\nX = i\nA(i) = X\nENDDO\n"
        )
        cfg = build_cfg(program)
        rd = reaching_definitions(program, cfg)
        use = next(
            n for n in cfg.nodes
            if n.kind == "assign" and "A(" in str(n.stmt)
        )
        defs = rd.use_def(use)["X"]
        assert any(d != ENTRY_DEF for d in defs)


class TestUninitializedReads:
    def test_read_before_assignment_flagged(self):
        diags = check_uninitialized_reads(program_of("Y = X\nX = 1\n"))
        assert any(d.code == "DF001" and "X" in d.message for d in diags)

    def test_parameters_not_flagged(self):
        # Q is never assigned: a symbolic parameter, not an uninitialized read.
        diags = check_uninitialized_reads(
            program_of("REAL D(0:9)\nDO i = 0, 8\nD(i+1) = D(i) * Q\nENDDO\n")
        )
        assert diags == []

    def test_initialized_scalar_clean(self):
        diags = check_uninitialized_reads(program_of("X = 1\nY = X\n"))
        assert diags == []


class TestInvariance:
    def test_subscript_symbol_modified_in_loop(self):
        source = (
            "REAL B(0:99)\nM = 0\nDO i = 0, 9\nM = M + 2\nB(M) = 1\nENDDO\n"
        )
        diags = check_subscript_invariance(program_of(source))
        assert any(d.code == "DF002" and "M" in d.message for d in diags)

    def test_loop_variable_subscripts_clean(self):
        diags = check_subscript_invariance(
            program_of("REAL A(0:9)\nDO i = 0, 9\nA(i) = 1\nENDDO\n")
        )
        assert diags == []

    def test_bound_modified_inside_loop(self):
        source = "REAL A(0:99)\nN = 9\nDO i = 0, N\nN = N + 1\nA(i) = 1\nENDDO\n"
        diags = check_bound_invariance(program_of(source))
        assert any(d.code == "DF003" and "N" in d.message for d in diags)

    def test_bound_modified_inside_loop_under_top_level_if(self):
        source = (
            "REAL A(0:99)\nN = 10\nIF (N > 0) THEN\nDO 1 i = 0, N\n"
            "N = N - 1\n1 A(i) = 1\nENDIF\n"
        )
        diags = check_bound_invariance(program_of(source))
        assert [d.code for d in diags] == ["DF003"]
        assert "loop i reads N" in diags[0].message

    def test_bound_modified_inside_loop_under_if_in_loop(self):
        # The loop sits in the ELSE arm of an IF nested in another loop.
        source = (
            "REAL A(0:99)\nN = 10\nDO j = 0, 3\nIF (j > 1) THEN\nA(j) = 0\n"
            "ELSE\nDO i = 0, N\nN = N - 1\nA(i) = 1\nENDDO\nENDIF\nENDDO\n"
        )
        diags = check_bound_invariance(program_of(source))
        assert [d.code for d in diags] == ["DF003"]
        assert "loop i reads N" in diags[0].message

    def test_invariant_symbols_excludes_mutated_and_loop_vars(self):
        program = program_of(
            "REAL A(0:99)\nM = 1\nDO i = 0, N-1\nA(i+M) = Q\nENDDO\n"
        )
        symbols = invariant_symbols(program)
        assert "N" in symbols and "Q" in symbols
        assert "M" not in symbols and "i" not in symbols

    def test_assumption_on_mutated_symbol_flagged(self):
        program = program_of(
            "REAL A(0:99)\nM = 1\nDO i = 0, 9\nA(i) = M\nENDDO\n"
        )
        diags = check_assumption_invariance(program, {"M", "N"})
        assert [d.code for d in diags] == ["DF004"]
        assert "M" in diags[0].message

    def test_run_all_clean_on_paper_program(self):
        program = program_of(
            "REAL C(0:99)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n1 C(i+10*j) = C(i+10*j+5)\n"
        )
        assert run_dataflow_checks(program, {"N"}) == []

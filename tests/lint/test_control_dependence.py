"""The CFG shape of IF and CALL statements, and the CD002 check."""

from repro.frontend import parse_fortran
from repro.lint.dataflow import (
    build_cfg,
    check_control_dependent_mutation,
    run_dataflow_checks,
)


def _node(cfg, kind, index=0):
    matches = [n for n in cfg.nodes if n.kind == kind]
    return matches[index]


class TestCfgShape:
    def test_branch_node_two_successors(self):
        cfg = build_cfg(parse_fortran(
            "REAL A(0:9)\nDO i = 0, 8\nIF (i > 2) THEN\nA(i) = 1\n"
            "ELSE\nA(i) = 2\nENDIF\nENDDO\n"
        ))
        branch = _node(cfg, "branch")
        assert len(branch.succs) == 2

    def test_empty_else_falls_through(self):
        cfg = build_cfg(parse_fortran(
            "REAL A(0:9)\nDO i = 0, 8\nIF (i > 2) THEN\nA(i) = 1\nENDIF\n"
            "A(i) = 3\nENDDO\n"
        ))
        branch = _node(cfg, "branch")
        # One successor into the arm, one skipping it.
        assert len(branch.succs) == 2
        then_stmt = _node(cfg, "assign", 0)
        after = _node(cfg, "assign", 1)
        assert then_stmt.id in branch.succs
        assert after.id in branch.succs

    def test_call_node_kind(self):
        cfg = build_cfg(parse_fortran(
            "REAL A(0:9)\nDO i = 0, 8\nCALL UPD(A, i)\nENDDO\n"
        ))
        assert any(n.kind == "call" for n in cfg.nodes)


class TestCd002:
    GUARDED = (
        "REAL B(0:99)\n"
        "INTEGER K\n"
        "K = 0\n"
        "DO 1 I = 0, 98\n"
        "IF (I > 10) THEN\n"
        "B(K) = B(K) + 1\n"
        "K = K + 1\n"
        "ENDIF\n"
        "1 CONTINUE\n"
    )

    def test_guarded_subscript_feeder_flagged(self):
        diags = check_control_dependent_mutation(
            parse_fortran(self.GUARDED)
        )
        assert [d.code for d in diags] == ["CD002"]
        assert "K" in diags[0].message

    def test_unguarded_mutation_not_flagged(self):
        source = (
            "REAL B(0:99)\nINTEGER K\nK = 0\nDO 1 I = 0, 98\n"
            "B(K) = B(K) + 1\nK = K + 1\n1 CONTINUE\n"
        )
        assert check_control_dependent_mutation(parse_fortran(source)) == []

    def test_guarded_nonsubscript_scalar_not_flagged(self):
        source = (
            "REAL B(0:99)\nINTEGER T\nT = 0\nDO 1 I = 0, 98\n"
            "IF (I > 10) THEN\nT = T + 1\nB(I) = T\nENDIF\n1 CONTINUE\n"
        )
        assert check_control_dependent_mutation(parse_fortran(source)) == []

    def test_guard_outside_loop_not_flagged(self):
        source = (
            "REAL B(0:99)\nINTEGER K\n"
            "IF (1 > 0) THEN\nK = 5\nENDIF\n"
            "DO 1 I = 0, 98\n1 B(K) = B(K) + 1\n"
        )
        assert check_control_dependent_mutation(parse_fortran(source)) == []

    def test_cd002_runs_in_dataflow_suite(self):
        diags = run_dataflow_checks(parse_fortran(self.GUARDED))
        assert any(d.code == "CD002" for d in diags)

"""Tests for the command-line interface."""

import pytest

from repro.cli import main

INTRO = """
REAL C(0:99)
DO 1 i = 0, 4
DO 1 j = 0, 9
1 C(i+10*j) = C(i+10*j+5)
"""

C_SOURCE = """
float d[100];
float *i, *j;
for (j = d; j <= d + 90; j += 10)
    for (i = j; i < j + 5; i++)
        *i = *(i + 5);
"""


@pytest.fixture
def fortran_file(tmp_path):
    path = tmp_path / "intro.f"
    path.write_text(INTRO)
    return path


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "walk.c"
    path.write_text(C_SOURCE)
    return path


class TestAnalyze:
    def test_independent_program(self, fortran_file, capsys):
        assert main(["analyze", str(fortran_file)]) == 0
        out = capsys.readouterr().out
        assert "Pair of references" in out

    def test_c_language_inferred(self, c_file, capsys):
        assert main(["analyze", str(c_file)]) == 0

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.f")]) == 1
        assert "error" in capsys.readouterr().err


class TestVectorize:
    def test_doall_output(self, fortran_file, capsys):
        assert main(["vectorize", str(fortran_file)]) == 0
        out = capsys.readouterr().out
        assert "DOALL i" in out

    def test_report_flag(self, fortran_file, capsys):
        assert main(["vectorize", str(fortran_file), "--report"]) == 0
        out = capsys.readouterr().out
        assert "dependences: 0" in out

    def test_c_pipeline(self, c_file, capsys):
        assert main(["vectorize", str(c_file)]) == 0
        out = capsys.readouterr().out
        assert "DOALL" in out


class TestVectorizeVerify:
    RACE = "REAL D(0:5)\nDO 1 i = 0, 4\n1 D(i + 1) = D(i) + 1\n"
    SWAP = (
        "REAL A(0:10, 0:10)\nDO 1 i = 0, 8\nDO 1 j = 1, 9\n"
        "1 A(i + 1, j - 1) = A(i, j)\n"
    )

    @pytest.fixture
    def race_file(self, tmp_path):
        path = tmp_path / "race.f"
        path.write_text(self.RACE)
        return path

    @pytest.fixture
    def swap_file(self, tmp_path):
        path = tmp_path / "swap.f"
        path.write_text(self.SWAP)
        return path

    def test_verify_is_on_by_default_and_clean(self, race_file, capsys):
        assert main(["vectorize", str(race_file)]) == 0
        assert "VR" not in capsys.readouterr().out

    def test_drop_edge_is_rejected(self, race_file, capsys):
        code = main(["vectorize", str(race_file), "--drop-edge", "0"])
        assert code == 2
        out = capsys.readouterr().out
        assert "[VR001]" in out
        assert "D(1:5)" in out  # the (wrong) vector statement is shown

    def test_no_verify_silences_the_rejection(self, race_file, capsys):
        code = main(
            ["vectorize", str(race_file), "--drop-edge", "0", "--no-verify"]
        )
        assert code == 0
        assert "VR001" not in capsys.readouterr().out

    def test_drop_edge_out_of_range(self, race_file, capsys):
        assert main(["vectorize", str(race_file), "--drop-edge", "5"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_illegal_interchange_is_refused(self, swap_file, capsys):
        code = main(["vectorize", str(swap_file), "--interchange", "i"])
        assert code == 2
        assert "[VR004]" in capsys.readouterr().out

    def test_illegal_interchange_forced_without_verify(
        self, swap_file, capsys
    ):
        code = main(
            ["vectorize", str(swap_file), "--interchange", "i", "--no-verify"]
        )
        assert code == 0
        assert "DO j" in capsys.readouterr().out

    def test_legal_interchange_is_performed(self, tmp_path, capsys):
        path = tmp_path / "ok.f"
        path.write_text(
            "REAL A(0:10, 0:10), B(0:10, 0:10)\nDO 1 i = 0, 8\n"
            "DO 1 j = 0, 5\n1 A(i, j) = B(i, j)\n"
        )
        assert main(["vectorize", str(path), "--interchange", "i"]) == 0
        out = capsys.readouterr().out
        assert "A(0:8, 0:5)" in out
        assert "VR" not in out

    def test_interchange_rebuild_honours_strict_and_no_cache(
        self, tmp_path, monkeypatch
    ):
        import repro.depgraph as depgraph
        from repro.depgraph import builder

        path = tmp_path / "ok.f"
        path.write_text(
            "REAL A(0:10, 0:10), B(0:10, 0:10)\nDO 1 i = 0, 8\n"
            "DO 1 j = 0, 5\n1 A(i, j) = B(i, j)\n"
        )
        rebuilds = []
        original = depgraph.analyze_dependences

        def broken(*args, **kwargs):
            raise RuntimeError("pair analysis bug")

        def failing_rebuild(*args, **kwargs):
            rebuilds.append(kwargs)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(builder, "build_pair_problem", broken)
                return original(*args, **kwargs)

        # Only the rebuild after the interchange resolves the name here;
        # the compile before it goes through repro.driver.
        monkeypatch.setattr(depgraph, "analyze_dependences", failing_rebuild)
        argv = ["vectorize", str(path), "--interchange", "i"]
        assert main(argv) == 0  # the failed pair degrades (RS001)
        with pytest.raises(RuntimeError, match="pair analysis bug"):
            main([*argv, "--strict", "--no-cache"])
        assert [(r["strict"], r["use_cache"]) for r in rebuilds] == [
            (False, True),
            (True, False),
        ]

    @pytest.mark.parametrize(
        "tail", ["IF (B(1) > 0) THEN\n  B(2) = 1\nENDIF\n", "CALL F(A)\n"]
    )
    def test_interchange_with_if_or_call(self, tmp_path, capsys, tail):
        path = tmp_path / "f.f"
        path.write_text(
            "REAL A(10, 10), B(10)\nDO i = 1, 5\n  DO j = 1, 7\n"
            "    A(i, j) = A(i, j) + 1\n  ENDDO\nENDDO\n" + tail
        )
        assert main(["vectorize", str(path), "--interchange", "i"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "DO j = 0, 6\n  DO i = 0, 4\n" in captured.out

    def test_unknown_interchange_variable(self, race_file, capsys):
        assert main(["vectorize", str(race_file), "--interchange", "z"]) == 1
        assert "no loop" in capsys.readouterr().err


class TestVectorizeEmitC:
    def test_c_output(self, fortran_file, capsys):
        assert main(["vectorize", str(fortran_file), "--emit", "c"]) == 0
        out = capsys.readouterr().out
        assert "#pragma parallel for" in out
        assert "C[i + 10 * j]" in out


class TestCheck:
    def test_clean_program(self, fortran_file, capsys):
        assert main(["check", str(fortran_file)]) == 0
        assert "no problems" in capsys.readouterr().out

    def test_warning_program(self, tmp_path, capsys):
        path = tmp_path / "warn.f"
        path.write_text("REAL A(0:9)\nDO i = 0, 9\nA(i+5) = 1\nENDDO\n")
        assert main(["check", str(path)]) == 0
        assert "overrun" in capsys.readouterr().out

    def test_error_program_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.f"
        path.write_text("REAL A(0:9,0:9)\nDO i = 0, 9\nA(i) = 1\nENDDO\n")
        assert main(["check", str(path)]) == 2

    def test_unnormalizable_program_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "down.f"
        path.write_text("REAL A(0:9)\nDO i = 9, 0, -1\nA(i) = 1\nENDDO\n")
        assert main(["check", str(path)]) == 1
        assert "non-positive step" in capsys.readouterr().err


class TestLint:
    def test_clean_program(self, fortran_file, capsys):
        assert main(["lint", str(fortran_file)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        path = tmp_path / "warn.f"
        path.write_text("REAL A(0:9)\nDO 1 i = 0, 9\n1 A(i+5) = 1\n")
        assert main(["lint", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        diag = payload["diagnostics"][0]
        assert diag["code"] == "DL005"
        assert diag["line"] == 3

    def test_werror_promotes_warnings(self, tmp_path, capsys):
        path = tmp_path / "warn.f"
        path.write_text("REAL A(0:9)\nDO 1 i = 0, 9\n1 A(i+5) = 1\n")
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--werror"]) == 2

    def test_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.f"
        path.write_text("REAL A(0:9,0:9)\nDO 1 i = 0, 9\n1 A(i) = 1\n")
        assert main(["lint", str(path)]) == 2
        assert "[DL002]" in capsys.readouterr().out

    def test_audited_edges_reported(self, tmp_path, capsys):
        path = tmp_path / "dep.f"
        path.write_text("REAL A(0:99)\nDO 1 i = 0, 94\n1 A(i+5) = A(i) + 1\n")
        assert main(["lint", str(path)]) == 0
        assert "1 dependence edge(s) audited" in capsys.readouterr().out

    def test_no_audit_flag(self, tmp_path, capsys):
        path = tmp_path / "dep.f"
        path.write_text("REAL A(0:99)\nDO 1 i = 0, 94\n1 A(i+5) = A(i) + 1\n")
        assert main(["lint", str(path), "--no-audit"]) == 0
        assert "audited" not in capsys.readouterr().out

    def test_c_file(self, c_file, capsys):
        assert main(["lint", str(c_file)]) == 0

    def test_parse_error_has_position(self, tmp_path, capsys):
        path = tmp_path / "syn.f"
        path.write_text("REAL A(0:9)\nDO 1 i = 0, 9\n1 A(i) = @\n")
        assert main(["lint", str(path)]) == 2
        out = capsys.readouterr().out
        assert "[DL001]" in out
        assert "3:" in out

    def test_json_has_schema_version(self, fortran_file, capsys):
        import json

        from repro.lint import SCHEMA_VERSION

        assert main(["lint", str(fortran_file), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == SCHEMA_VERSION
        assert payload["counts"] == {}

    def test_schedule_flag_runs_clean(self, fortran_file, capsys):
        assert main(["lint", str(fortran_file), "--schedule"]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestLintMultiFile:
    @pytest.fixture
    def pair(self, tmp_path):
        clean = tmp_path / "b_clean.f"
        clean.write_text(INTRO)
        warn = tmp_path / "a_warn.f"
        warn.write_text("REAL A(0:9)\nDO 1 i = 0, 9\n1 A(i+5) = 1\n")
        return clean, warn

    def test_combined_summary_and_worst_exit(self, pair, capsys):
        clean, warn = pair
        assert main(["lint", str(clean), str(warn)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 1 warning(s)" in out
        assert main(["lint", str(clean), str(warn), "--werror"]) == 2

    def test_text_output_is_sorted_by_path(self, pair, capsys):
        clean, warn = pair
        # a_warn.f sorts before b_clean.f regardless of argument order.
        main(["lint", str(clean), str(warn)])
        first = capsys.readouterr().out
        main(["lint", str(warn), str(clean)])
        second = capsys.readouterr().out
        assert first == second
        assert "a_warn.f" in first

    def test_json_many_shape(self, pair, capsys):
        import json

        from repro.lint import SCHEMA_VERSION

        clean, warn = pair
        assert main(["lint", str(warn), str(clean), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == SCHEMA_VERSION
        assert [f["file"] for f in payload["files"]] == sorted(
            [str(warn), str(clean)]
        )
        assert payload["counts"] == {"warning": 1}
        warn_entry = payload["files"][0]
        assert warn_entry["counts"] == {"warning": 1}
        assert warn_entry["diagnostics"][0]["code"] == "DL005"

    def test_schedule_flag_catches_nothing_on_clean_pair(self, pair, capsys):
        clean, warn = pair
        assert main(["lint", str(clean), str(warn), "--schedule"]) == 0


class TestCensus:
    def test_counts(self, fortran_file, capsys):
        assert main(["census", str(fortran_file)]) == 0
        out = capsys.readouterr().out
        assert "1 of 1" in out


class TestDelinearize:
    def test_independent_verdict(self, capsys):
        code = main(
            [
                "delinearize",
                "--equation",
                "i1 + 10*j1 - i2 - 10*j2 - 5",
                "--bounds",
                "i1=4,i2=4,j1=9,j2=9",
                "--pairs",
                "i1:i2,j1:j2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict:  independent" in out
        assert "k=1:" in out

    def test_dependent_with_directions(self, capsys):
        main(
            [
                "delinearize",
                "--equation",
                "i1 - i2 + 1",
                "--bounds",
                "i1=8,i2=8",
                "--pairs",
                "i1:i2",
            ]
        )
        out = capsys.readouterr().out
        assert "direction vectors: (<)" in out
        assert "distance-direction: (+1)" in out

    def test_three_level_split(self, capsys):
        """No barrier after the i pair: the scan splits into cases, each
        solved exactly, and the union of their directions is the oracle's."""
        from repro.deptests import DependenceProblem
        from repro.deptests import exhaustive_direction_vectors

        names = ("i1", "i2", "j1", "j2", "k1", "k2")
        code = main(
            [
                "delinearize",
                "--equation",
                "i1 - i2 + 8*j1 - 8*j2 + 64*k1 - 64*k2 - 10",
                "--bounds",
                ",".join(f"{name}=7" for name in names),
                "--pairs",
                "i1:i2,j1:j2,k1:k2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict:  dependent" in out
        assert "k=3: c=8 smin=-7 smax=7 g=8 r=6  [split: v in {-6, 2}]" in out
        assert "separated: i1 - i2 + 6 = 0  [case v=-6 (pair)]" in out
        assert "separated: i1 - i2 - 2 = 0  [case v=2 (pair)]" in out
        problem = DependenceProblem.single(
            dict(zip(names, (1, -1, 8, -8, 64, -64))),
            -10,
            {name: 7 for name in names},
            pairs=[("i1", "i2"), ("j1", "j2"), ("k1", "k2")],
        )
        # Distances (6,6,-1), (6,-2,0), (-2,7,-1) and (-2,-1,0).
        oracle = sorted(str(v) for v in exhaustive_direction_vectors(problem))
        assert oracle == ["(<, <, >)", "(<, >, =)", "(>, <, >)", "(>, >, =)"]
        assert f"direction vectors: {', '.join(oracle)}" in out

    def test_symbolic_with_assumptions(self, capsys):
        code = main(
            [
                "delinearize",
                "--equation",
                "N*i1 - N*i2 - N",
                "--bounds",
                "i1=N-1,i2=N-1",
                "--pairs",
                "i1:i2",
                "--assume",
                "N=2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict:" in out

    def test_bad_equation(self, capsys):
        assert (
            main(
                [
                    "delinearize",
                    "--equation",
                    "i1 * i2",
                    "--bounds",
                    "i1=4,i2=4",
                ]
            )
            == 1
        )

    def test_bad_binding(self, capsys):
        assert (
            main(
                [
                    "delinearize",
                    "--equation",
                    "i1",
                    "--bounds",
                    "i1=",
                ]
            )
            == 1
        )


class TestScalarExpressions:
    """``--assume``, ``--bounds`` and ``--equation`` values go through the
    FORTRAN expression parser; a subscripted name there is a function
    call, and every bad value is a one-line ``error:`` with exit 1."""

    def test_assume_with_a_call(self, fortran_file, capsys):
        assert main(["lint", str(fortran_file), "--assume", "N=F(3)"]) == 1
        assert capsys.readouterr().err == (
            "error: not a loop-invariant expression: 'F(3)'\n"
        )

    def test_assume_with_a_syntax_error(self, fortran_file, capsys):
        assert main(["lint", str(fortran_file), "--assume", "N=2*"]) == 1
        assert capsys.readouterr().err == (
            "error: unexpected token '\\n' at line 1, column 3\n"
        )

    def test_equation_with_a_call(self, capsys):
        code = main(
            [
                "delinearize",
                "--equation",
                "A(1)*i1 - i2",
                "--bounds",
                "i1=4,i2=4",
                "--pairs",
                "i1:i2",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: equation is not affine: 'A(1)*i1 - i2'\n"
        )

    def test_equation_with_a_syntax_error(self, capsys):
        code = main(
            ["delinearize", "--equation", "i1 - i2 +", "--bounds", "i1=4,i2=4"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: unexpected token '\\n' at line 1, column 10\n"
        )

    def test_trailing_tokens_are_an_error(self, fortran_file, capsys):
        assert main(["lint", str(fortran_file), "--assume", "N=2 3"]) == 1
        assert capsys.readouterr().err == (
            "error: expected 'NEWLINE', found '3' at line 1, column 3\n"
        )


class TestCompare:
    def test_table(self, capsys):
        code = main(
            [
                "compare",
                "--equation",
                "i1 + 10*j1 - i2 - 10*j2 - 5",
                "--bounds",
                "i1=4,i2=4,j1=9,j2=9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GCD test" in out
        assert "Delinearization" in out
        assert "independent" in out


class TestRiceps:
    def test_table(self, capsys):
        assert main(["riceps", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "BOAST" in out and "29" in out


class TestPerfFlags:
    """--jobs/--no-cache never change output; --perf is stderr."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            pytest.param("analyze", ["--jobs", "2"], id="analyze-jobs"),
            pytest.param("analyze", ["--cache-dir", "d"], id="analyze-cache-dir"),
            pytest.param("lint", ["--cache-dir", "d"], id="lint-cache-dir"),
            pytest.param("serve", ["--cache-dir", "d"], id="serve-cache-dir"),
            pytest.param("check", ["--no-cache"], id="check-no-cache"),
            pytest.param("check", ["--strict"], id="check-strict"),
            pytest.param("vectorize", ["--verify"], id="vectorize-verify"),
        ],
    )
    def test_unsupported_flag_is_rejected(
        self, command, flag, fortran_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        source = [] if command == "serve" else [str(fortran_file)]
        with pytest.raises(SystemExit) as exc:
            main([command, *source, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_no_cache_output_is_byte_identical(self, fortran_file, capsys):
        assert main(["analyze", str(fortran_file)]) == 0
        cached = capsys.readouterr().out
        assert main(["analyze", str(fortran_file), "--no-cache"]) == 0
        assert capsys.readouterr().out == cached

    def test_perf_report_goes_to_stderr(self, fortran_file, capsys):
        assert main(["analyze", str(fortran_file), "--perf"]) == 0
        captured = capsys.readouterr()
        assert "pairs=" in captured.err
        assert "cache hit/miss" in captured.err
        assert "pairs=" not in captured.out

    def test_vectorize_perf_flag(self, fortran_file, capsys):
        assert main(["vectorize", str(fortran_file), "--perf"]) == 0
        assert "phase timings:" in capsys.readouterr().err

    def test_lint_jobs_output_is_byte_identical(
        self, fortran_file, c_file, capsys
    ):
        files = [str(fortran_file), str(c_file)]
        assert main(["lint", *files]) == 0
        serial = capsys.readouterr()
        assert main(["lint", *files, "--jobs", "2"]) == 0
        fanned = capsys.readouterr()
        assert fanned.out == serial.out

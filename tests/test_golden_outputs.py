"""Golden outputs: what lint and compile print, pinned by sha256 digest.

Every ``examples/*.f``/``*.c`` program, one generated corpus program per
style for seeds 0-6 (``generate_program(lines=150, linearized_nests=12)``)
and one program mixing all styles per seed is linted with the schedule verifier (``render_json``) and compiled
(emitted text with its schedule diagnostics and degradations, and the
dependence graph's ``format_table()``).  Every ``examples/*.py`` script is
run in a fresh interpreter and its standard output pinned too: the scripts
reach ``interchange``, ``partially_linearize`` and the induction and
EQUIVALENCE passes through the public API.  A refactoring must leave every
digest unchanged; a change that is meant to change answers re-records the
goldens and names each changed one in the change log::

    PYTHONPATH=src python tests/test_golden_outputs.py --update
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus.generator import STYLES, generate_program
from repro.driver import compile_c, compile_fortran
from repro.lint import lint_source, render_json

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.json"


def golden_inputs() -> dict[str, str]:
    """Input name -> source text, in a fixed order."""
    inputs = {
        path.name: path.read_text()
        for pattern in ("*.f", "*.c")
        for path in sorted((ROOT / "examples").glob(pattern))
    }
    for style in STYLES:
        for seed in range(7):
            program = generate_program(
                f"{style}{seed}",
                lines=150,
                linearized_nests=12,
                seed=seed,
                styles=(style,),
            )
            inputs[f"{program.name}.f"] = program.source
    for seed in range(7):
        program = generate_program(
            f"mixed{seed}", lines=150, linearized_nests=12, seed=seed
        )
        inputs[f"{program.name}.f"] = program.source
    return inputs


def outputs(name: str, text: str) -> dict[str, str]:
    """The digest of each printed output of one input."""
    language = "c" if name.endswith(".c") else "fortran"
    lint = lint_source(text, language, schedule=True)
    compile_ = compile_c if language == "c" else compile_fortran
    report = compile_(text)
    emitted = report.output + "".join(
        f"{diag}\n"
        for diag in (*report.schedule_diagnostics, *report.degradations)
    )
    texts = {
        "lint": render_json(lint.diagnostics, filename=name),
        "compile": emitted,
        "table": report.graph.format_table(),
    }
    return {
        kind: hashlib.sha256(value.encode()).hexdigest()
        for kind, value in texts.items()
    }


def script_outputs(name: str) -> dict[str, str]:
    """The digest of what one example script prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stdout = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        env=env,
        capture_output=True,
        check=True,
    ).stdout
    return {"stdout": hashlib.sha256(stdout).hexdigest()}


def recorded() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text())


INPUTS = golden_inputs()
SCRIPTS = [path.name for path in sorted((ROOT / "examples").glob("*.py"))]


def test_every_input_is_recorded():
    assert sorted(recorded()) == sorted([*INPUTS, *SCRIPTS])


@pytest.mark.parametrize("name", list(INPUTS))
def test_outputs_match_golden(name):
    expected = recorded()[name]
    actual = outputs(name, INPUTS[name])
    changed = sorted(kind for kind in expected if actual[kind] != expected[kind])
    assert not changed, f"{name}: changed goldens {changed}"


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_output_matches_golden(name):
    assert script_outputs(name) == recorded()[name]


def main(argv: list[str]) -> int:
    if argv != ["--update"]:
        print(__doc__)
        return 1
    table = {name: outputs(name, text) for name, text in INPUTS.items()}
    table.update({name: script_outputs(name) for name in SCRIPTS})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} inputs in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

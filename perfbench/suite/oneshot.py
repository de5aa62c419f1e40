"""The one-shot CLI oracle for daemon outputs.

Reads a JSON list of ``{"kind", "uri", "text"}`` states from stdin and
prints a JSON list with what ``repro <kind> <uri>`` (``--format=json`` for
``lint``) writes to stdout for each.  Each state runs through
:func:`repro.cli.main` in this one fresh interpreter after
:func:`repro.clear_all`, which gives a cold process's caches without paying
an interpreter start per state.

Usage::

    python -m suite.oneshot WORKDIR < states.json
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path


def main() -> int:
    from repro import clear_all
    from repro.cli import main as cli

    workdir = Path(sys.argv[1])
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    outputs = []
    for state in json.load(sys.stdin):
        Path(state["uri"]).write_text(state["text"])
        argv = [state["kind"]]
        if state["kind"] == "lint":
            argv.append("--format=json")
        clear_all()
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            cli([*argv, state["uri"]])
        outputs.append(buffer.getvalue())
    json.dump(outputs, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Byte-for-byte CLI output on the bundled data.

Each case pins the exit code, stdout and stderr of one command, and for the
commands that write an event log, the log and its message sink as well.
``{data}`` stands for the bundled data directory and ``{log}`` for a fresh
log path. The expected values live in ``cli_golden.json``; to rewrite them
after a deliberate output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from fluxcompose.cli import data_path, run

GOLDEN = Path(__file__).with_name("cli_golden.json")

CASES = {
    "validate": ["validate"],
    "plan": ["plan"],
    "plan-lines": ["plan", "--format", "lines"],
    "compose": ["compose", "--have", "Profession=doctor",
                "--have", "Specialization=Orthopedics", "--have", "Message=help",
                "--want", "ConfirmSend", "--fact", "availableRole(doctor,Orthopedics)"],
    "compose-no-plan": ["compose", "--want", "ConfirmSend", "--max-depth", "3"],
    "trace-validate-all": ["trace", "--coach", "S5", "--spec", "Orthopedics",
                           "--validate-all"],
    "trace-fallback": ["trace", "--coach", "S5", "--spec", "Orthopedics"],
    "severity": ["severity", "--spec", "Orthopedics", "--symptoms", "pain,swelling"],
    "report": ["report", "--log", "{log}", "--pnr", "P003", "--spec", "Orthopedics",
               "--symptoms", "fracture", "--case", "fell", "--now", "2011-11-05T09:20"],
    "simulate": ["simulate", "--log", "{log}", "--script", "{data}/emergency.scn"],
}


def _read_or_none(path: Path):
    return path.read_text(encoding="utf-8") if path.exists() else None


def run_case(argv: list[str], log: Path) -> dict:
    data = str(data_path(""))
    filled = [a.replace("{data}", data).replace("{log}", str(log))
              for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(filled)

    def unfill(text):
        return text.replace(str(log), "{log}").replace(data, "{data}")

    return {
        "exit": code,
        "stdout": unfill(out.getvalue()),
        "stderr": unfill(err.getvalue()),
        "log": _read_or_none(log),
        "messages": _read_or_none(Path(str(log) + ".messages")),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("FLUXCOMPOSE_LOG", raising=False)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_case(CASES[name], tmp_path / "events.log") == expected


def test_parser_keeps_no_state_between_calls(tmp_path, monkeypatch):
    # the parser is built once per process; its append-flag defaults must not fill up
    monkeypatch.delenv("FLUXCOMPOSE_LOG", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    log = tmp_path / "events.log"
    assert run_case(CASES["compose"], log) == golden["compose"]
    assert run_case(CASES["compose-no-plan"], log) == golden["compose-no-plan"]
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        run(["plan", "--no-such-flag"])
    assert exc.value.code == 2
    assert run_case(CASES["plan"], log) == golden["plan"]


if __name__ == "__main__":
    import tempfile

    os.environ.pop("FLUXCOMPOSE_LOG", None)
    golden = {}
    for case, case_argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            golden[case] = run_case(case_argv, Path(tmp) / "events.log")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")

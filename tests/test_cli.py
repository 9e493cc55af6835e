"""Exit codes, output contracts, and golden stability of the CLI."""

import contextlib
import importlib
import importlib.resources
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fluxcompose import cli
from fluxcompose.cli import data_path
from test_cli_golden import CASES, GOLDEN
from test_ontology import chain_taxonomy

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_bundled_fixtures(capsys):
    code, out, _ = run(capsys, "plan",
                       "--domain", str(data_path("emergency.fcd")),
                       "--problem", str(data_path("emergency.fcp")))
    assert code == 0
    assert out == ("1. findResource(doctor,orthopedics)\n"
                   "2. notifyResource(#out_findResource_P_1,"
                   "#out_findResource_CN_1,help)\n")


def test_plan_machine_mode_is_line_stable(capsys):
    args = ("plan", "--format", "lines")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("step\t0\tfindResource(doctor,orthopedics)\n")


def test_plan_unsatisfiable_goal(tmp_path, capsys):
    problem = tmp_path / "impossible.fcp"
    problem.write_text("init: . goal: know(ConfirmSend).\n")
    code, out, _ = run(capsys, "plan", "--problem", str(problem))
    assert code == 1
    assert "no plan within depth 8" in out


def test_plan_parse_error_exit_2_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.fcd"
    bad.write_text("fluent ok/0.\naction broken(]) poss: update: add [] remove [].\n")
    code, _, err = run(capsys, "plan", "--domain", str(bad))
    assert code == 2
    assert f"{bad}:2:15:" in err


def test_severity_minor(capsys):
    code, out, _ = run(capsys, "severity", "--spec", "Orthopedics",
                       "--symptoms", "pain")
    assert code == 0 and out == "Minor\n"


def test_severity_major_and_emergency(capsys):
    assert run(capsys, "severity", "--spec", "Orthopedics",
               "--symptoms", "pain,swelling")[1] == "Major\n"
    assert run(capsys, "severity", "--spec", "Orthopedics",
               "--symptoms", "fracture")[1] == "Emergency\n"
    assert run(capsys, "severity", "--spec", "Cardiology",
               "--symptoms", "pain")[1] == "Emergency\n"


def test_validate_bundled_files(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert out.count("ok:") == 6


@pytest.mark.parametrize("argv", [["validate"], ["compose", "--want", "ConfirmSend"]])
def test_uncompilable_service_exit_2(tmp_path, capsys, argv):
    reg = tmp_path / "bad.reg"
    reg.write_text("service badService\n  hasOutput: P : Name\n"
                   "  effectAdd: availableAt(P,CN)\n  grounding: x\nend\n")
    code, out, err = run(capsys, *argv, "--registry", str(reg))
    assert code == 2
    assert "registry" not in out
    assert err == ("service badService: effect variables left unbound (P, CN) "
                   "must equal the hasOutput variables (P)\n")


def test_compose_workflow(capsys):
    code, out, _ = run(
        capsys, "compose",
        "--have", "Profession=doctor", "--have", "Specialization=Orthopedics",
        "--have", "Message=help", "--want", "ConfirmSend",
        "--fact", "availableRole(doctor,Orthopedics)",
        "--format", "lines")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("step\t0\tfindResource\t")
    assert lines[1].startswith("step\t1\tnotifyResource\t")


def test_compose_no_candidates(capsys):
    code, out, _ = run(capsys, "compose", "--want", "ConfirmSend",
                       "--max-depth", "3")
    assert code == 1
    assert "no plan within depth 3" in out


def test_trace_needs_validated_personnel(capsys):
    # fresh roster: nobody's travel plan is validated yet, so nobody ranks
    code, _, err = run(capsys, "trace", "--coach", "S5", "--spec", "Orthopedics")
    assert code == 1 and "fallback required" in err


def test_trace_ranked_list_with_validate_all(capsys):
    code, out, _ = run(capsys, "trace", "--coach", "S5", "--spec", "Orthopedics",
                       "--validate-all", "--format", "lines")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "responder\t1\tRavi\tdoctor\tOrthopedics\tS7\t2"
    assert lines[1] == "responder\t2\tMeena\tdoctor\tCardiology\tS4\t1"
    assert lines[2] == "responder\t3\tSuresh\tnurse\t-\tS2\t3"


def test_report_responder_and_fallback_exit_codes(tmp_path, capsys, monkeypatch):
    log = tmp_path / "events.log"
    # build a roster whose doctor is travel-validated via the scenario script
    code, out, _ = run(capsys, "simulate", "--log", str(log),
                       "--script", str(data_path("emergency.scn")))
    assert code == 0
    assert "responder-assigned" in out and "fallback-notice" in out

    log2 = tmp_path / "report.log"
    code, out, _ = run(capsys, "report", "--log", str(log2),
                       "--pnr", "P003", "--spec", "Orthopedics",
                       "--symptoms", "fracture", "--case", "fell",
                       "--now", "2011-11-05T09:20")
    # bundled roster alone: doctor not validated, so the report falls back
    assert code == 1
    assert "fallback notice" in out


def test_report_machine_mode_emits_record_line(tmp_path, capsys):
    log = tmp_path / "events.log"
    code, out, _ = run(capsys, "report", "--log", str(log),
                       "--pnr", "P003", "--spec", "Orthopedics",
                       "--symptoms", "fracture", "--case", "fell",
                       "--now", "2011-11-05T09:20", "--format", "lines")
    assert code == 1
    assert out.startswith("id=1\tkind=fallback\t")
    assert "patient_name=Arjun" in out


def test_report_without_a_plan_in_depth_exits_1_and_logs_nothing(tmp_path, capsys):
    # the workflow needs two steps; composing fails before anything is ranked,
    # sent or logged
    log = tmp_path / "events.log"
    code, out, err = run(capsys, "report", "--log", str(log),
                         "--pnr", "P003", "--spec", "Orthopedics",
                         "--now", "2011-11-05T09:20", "--max-depth", "1")
    assert (code, out, err) == (1, "", "no plan within depth 1\n")
    assert log.read_bytes() == b""


def test_env_var_overrides_log_flag(tmp_path, capsys, monkeypatch):
    env_log = tmp_path / "env.log"
    flag_log = tmp_path / "flag.log"
    monkeypatch.setenv("FLUXCOMPOSE_LOG", str(env_log))
    code, _, _ = run(capsys, "report", "--log", str(flag_log),
                     "--pnr", "P003", "--spec", "Orthopedics",
                     "--symptoms", "fracture", "--case", "fell",
                     "--now", "2011-11-05T09:20")
    assert code in (0, 1)
    assert env_log.exists() and not flag_log.exists()


def test_simulate_byte_identical_on_fresh_logs(tmp_path, capsys):
    logs = []
    for name in ("a.log", "b.log"):
        log = tmp_path / name
        code, _, _ = run(capsys, "simulate", "--log", str(log),
                         "--script", str(data_path("emergency.scn")))
        assert code == 0
        logs.append(log.read_bytes())
    assert logs[0] == logs[1]


def broadcast_registry(tmp_path, *inputs):
    path = tmp_path / "broadcast.reg"
    path.write_text("service broadcast\n"
                    + "".join(f"  hasInput: {param}\n" for param in inputs)
                    + "  hasOutput: ACK : ConfirmSend\n"
                      "  grounding: message-send\nend\n", encoding="utf-8")
    return path


def test_send_step_missing_its_inputs_exit_2(tmp_path, capsys):
    log = tmp_path / "events.log"
    code, _, err = run(capsys, "simulate", "--log", str(log),
                       "--registry", str(broadcast_registry(tmp_path, "MSG : Message")),
                       "--script", str(data_path("emergency.scn")))
    assert code == 2
    assert err == "execution failed at step 0: message-send needs inputs P, CN and MSG\n"
    assert log.read_bytes() == b""
    assert not Path(f"{log}.messages").exists()


def test_message_sink_that_cannot_be_written_exit_2(tmp_path, capsys):
    # the first report's send fails, so nothing is logged
    log = tmp_path / "events.log"
    sink = tmp_path / "events.log.messages"
    sink.mkdir()
    code, out, err = run(capsys, "simulate", "--log", str(log),
                         "--script", str(data_path("emergency.scn")))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot append to message sink {sink}: ")
    assert "Is a directory" in err
    assert log.read_bytes() == b""


@pytest.mark.parametrize("flag", ["--case", "--spec"])
def test_report_argument_that_is_not_utf8_exit_2(tmp_path, capsys, flag):
    # a non-UTF-8 byte of an argument reaches the program as a lone
    # surrogate, which neither the log nor the message sink can write
    log = tmp_path / "events.log"
    code, out, err = run(capsys, "report", "--log", str(log), "--pnr", "P003",
                         flag, "fell\udcff", "--now", "2011-11-05T10:00")
    assert (code, out) == (2, "")
    assert err == "text 'fell\\udcff' is not valid UTF-8\n"
    assert log.read_bytes() == b""
    assert not Path(f"{log}.messages").exists()


def test_taxonomy_cycle_5000_long_exit_2(tmp_path, capsys):
    path = tmp_path / "cycle.tax"
    path.write_text(chain_taxonomy(5000, cyclic=True), encoding="utf-8")
    code, out, err = run(capsys, "validate", "--taxonomy", str(path))
    assert code == 2
    assert err.startswith("subClassOf cycle: C00000 -> C00001 -> ")
    assert err.endswith(" -> C04999 -> C00000\n")


def test_workflow_without_a_lookup_step_logs_the_ranking(tmp_path, capsys):
    # the one step sends to the request's own values; the records still name
    # the ranked responders, exactly as with the bundled registry
    reg = broadcast_registry(tmp_path, "P : Profession", "CN : Specialization",
                             "MSG : Message")
    logs = {}
    for name, extra in (("broadcast", ("--registry", str(reg))), ("bundled", ())):
        log = tmp_path / f"{name}.log"
        code, _, _ = run(capsys, "simulate", "--log", str(log), *extra,
                         "--script", str(data_path("emergency.scn")))
        assert code == 0
        logs[name] = log.read_text(encoding="utf-8")
    kinds = re.findall(r"\tkind=(\w+)\t", logs["broadcast"])
    assert kinds == ["event", "event", "fallback"]
    assert logs["broadcast"].count("\tresponders=Ravi@S7\t") == 2
    assert logs["broadcast"] == logs["bundled"]
    sent = (tmp_path / "broadcast.log.messages").read_text(encoding="utf-8")
    assert [line.split("\t")[:2] for line in sent.splitlines()] == [
        ["doctor", "Orthopedics"]] * 2


def test_data_path_is_the_bundled_resource_path():
    package = importlib.resources.files("fluxcompose")
    names = ["", *(f.name for f in package.joinpath("data").iterdir())]
    assert "emergency.fcd" in names
    for name in names:
        assert data_path(name) == Path(str(package.joinpath("data", name)))


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "plan", "--domain", "/nonexistent/x.fcd")
    assert code == 2
    assert "x.fcd" in err


@pytest.mark.parametrize("command, flag, content, reason", [
    ("plan", "--domain", None, "Is a directory"),
    ("plan", "--domain", b"\xff\xfe", "not UTF-8 text"),
    ("simulate", "--script", None, "Is a directory"),
])
def test_unreadable_file_exit_2(tmp_path, capsys, command, flag, content, reason):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    extra = ["--log", str(tmp_path / "log")] if command == "simulate" else []
    code, out, err = run(capsys, command, flag, str(path), *extra)
    assert code == 2 and out == ""
    assert err == f"unreadable input file: {path} ({reason})\n"


@pytest.mark.parametrize("command, extra", [
    ("report", ["--pnr", "P003", "--type", "Medical", "--now", "2011-11-05T09:20"]),
    ("simulate", ["--script", str(data_path("emergency.scn"))]),
])
def test_log_directory_exit_2(tmp_path, capsys, monkeypatch, command, extra):
    monkeypatch.delenv("FLUXCOMPOSE_LOG", raising=False)
    code, out, err = run(capsys, command, "--log", str(tmp_path), *extra)
    assert code == 2 and out == ""
    assert err == f"unreadable input file: {tmp_path} (Is a directory)\n"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.run(["plan", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run([])
    assert exc.value.code == 2


def test_log_required_for_report(capsys, monkeypatch):
    monkeypatch.delenv("FLUXCOMPOSE_LOG", raising=False)
    code, _, err = run(capsys, "report", "--pnr", "P003",
                       "--now", "2011-11-05T09:20")
    assert code == 2
    assert "FLUXCOMPOSE_LOG" in err


@pytest.mark.parametrize("argv", [
    ["plan", "--max-depth", "0"],
    ["compose", "--want", "ConfirmSend", "--max-depth", "-1"],
])
def test_bad_max_depth_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "max_depth must be >= 1\n"


def test_trace_unknown_coach_exit_2(capsys):
    code, _, err = run(capsys, "trace", "--coach", "S99", "--spec", "Orthopedics")
    assert code == 2
    assert "unknown coach 'S99'" in err


def test_too_deep_fact_exit_2(capsys):
    deep = "f(" * 3000 + "a" + ")" * 3000
    code, _, err = run(capsys, "compose", "--want", "ConfirmSend", "--fact", deep)
    assert code == 2
    assert err == "<--fact>:1:1: expected shallower nesting, found term nesting too deep\n"


@pytest.mark.parametrize("depth", [300, 450])
def test_fact_past_the_nesting_limit_exit_2(capsys, depth):
    deep = "f(" * depth + "a" + ")" * depth
    code, out, err = run(capsys, "compose", "--want", "ConfirmSend", "--fact", deep)
    assert code == 2 and out == ""
    assert err == "<--fact>:1:1: expected shallower nesting, found term nesting too deep\n"


@pytest.mark.parametrize("fact, misuse", [
    ("know(a,b)", "expected know with exactly one argument, found 'know(a,b)'"),
    ("know(know(x))", "expected a fluent inside know(...), found nested know"),
    ("know", "expected know with exactly one argument, found 'know'"),
])
def test_fact_misusing_know_exit_2(capsys, fact, misuse):
    code, out, err = run(capsys, "compose", "--have", "Profession=doctor",
                         "--want", "Profession", "--fact", fact)
    assert code == 2 and out == ""
    assert err == f"world fact {fact}: {misuse}\n"


@pytest.mark.parametrize("command", [["validate"], ["compose", "--want", "ConfirmSend"]])
@pytest.mark.parametrize("effect, error", [
    ("effectAdd: know(a,b)", "2:14: expected know with exactly one argument, found 'know(a,b)'"),
    ("effectRemove: know", "2:17: expected know with exactly one argument, found 'know'"),
])
def test_registry_effect_misusing_know_exit_2(tmp_path, capsys, command, effect, error):
    path = tmp_path / "know.reg"
    path.write_text(f"service s\n  {effect}\n  grounding: x\nend\n")
    code, _, err = run(capsys, *command, "--registry", str(path))
    assert code == 2
    assert err == f"{path}:{error}\n"


@pytest.mark.parametrize("argv", [
    ["validate", "--max-depth", "3"],
    ["validate", "--format", "lines"],
    ["trace", "--coach", "S5", "--spec", "Orthopedics", "--max-depth", "3"],
    ["severity", "--spec", "Orthopedics", "--max-depth", "3"],
    ["severity", "--spec", "Orthopedics", "--format", "lines"],
    ["trace", "--coach", "S5", "--spec", "Orthopedics", "--symptoms", "pain"],
])
def test_flag_the_command_does_not_take_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("name", ["plan", "compose", "trace-validate-all", "simulate"])
def test_module_entry_point_plans_in_a_fresh_process(name, hash_seed, tmp_path):
    # a fresh interpreter per hash seed: the golden bytes must not depend on
    # the seed this test process happens to run under
    data, log = str(data_path("")), str(tmp_path / "events.log")
    argv = [a.replace("{data}", data).replace("{log}", log) for a in CASES[name]]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
    env.pop("FLUXCOMPOSE_LOG", None)
    done = subprocess.run([sys.executable, "-m", "fluxcompose.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    stdout = done.stdout.replace(log, "{log}").replace(data, "{data}")
    assert (done.returncode, stdout) == (expected["exit"], expected["stdout"])


def test_console_script_names_a_callable_in_the_cli():
    # a regex, not tomllib: the package supports Python 3.10
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^\[project\.scripts\]\n+fluxcompose = "([\w.]+):(\w+)"$',
                       pyproject, re.MULTILINE)
    assert target is not None
    module, attr = target.groups()
    assert module == "fluxcompose.cli"
    assert callable(getattr(importlib.import_module(module), attr, None))


# Each bundled input file, the flag that reads it, and the command it feeds;
# {tmp} stands for the example's temporary directory.
_PLAN = ["plan", "--max-depth", "4"]
_COMPOSE = ["compose", "--want", "ConfirmSend", "--have", "Profession=doctor",
            "--have", "Specialization=Orthopedics", "--have", "Message=help",
            "--fact", "availableRole(doctor,Orthopedics)", "--max-depth", "4"]
_MUTATED_RUNS = {
    "emergency.fcd": ("domain", _PLAN),
    "emergency.fcp": ("problem", _PLAN),
    "services.reg": ("registry", _COMPOSE),
    "domain.tax": ("taxonomy", _COMPOSE),
    "roster.csv": ("roster", ["trace", "--coach", "S5", "--spec", "Orthopedics",
                              "--validate-all"]),
    "route.schedule": ("schedule", ["validate"]),
    "severity.rules": ("rules", ["severity", "--spec", "Orthopedics",
                                 "--symptoms", "pain,swelling"]),
    "emergency.scn": ("script", ["simulate", "--log", "{tmp}/events.log"]),
}
# inserted characters: the grammars' punctuation, some letters and digits, a
# tab, "\n", and characters other than "\n" that str.splitlines breaks at
_INSERTED = "(),.:;=_ \n\"#aXyz09\x0c\x85\u2028\r\t"


@st.composite
def _mutated(draw):
    """A bundled file with characters deleted, inserted or spans copied elsewhere."""
    name = draw(st.sampled_from(sorted(_MUTATED_RUNS)))
    text = data_path(name).read_text(encoding="utf-8")
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["delete", "insert", "copy"]))
        if kind == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 8)):]
        elif kind == "insert":
            text = text[:at] + draw(st.text(st.sampled_from(_INSERTED),
                                            min_size=1, max_size=3)) + text[at:]
        else:
            start = draw(st.integers(0, len(text)))
            text = text[:at] + text[start:start + draw(st.integers(1, 40))] + text[at:]
    return name, text


@given(_mutated())
@settings(max_examples=300, deadline=None)
def test_mutated_bundled_files_exit_0_1_or_2(mutated):
    name, text = mutated
    flag, argv = _MUTATED_RUNS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([arg.format(tmp=tmp) for arg in argv]
                           + [f"--{flag}", str(path)])
    assert code in (0, 1, 2), (code, err.getvalue())


# A valid run of each command, flag by flag; {tmp} stands for the example's
# temporary directory, which holds a copy of the bundled script and of the
# bundled registry, so that no path an example names is outside it.
_ARGV_BASES = {
    "validate": [],
    "plan": [["--max-depth", "4"], ["--format", "lines"]],
    "compose": [["--want", "ConfirmSend"], ["--have", "Profession=doctor"],
                ["--have", "Specialization=Orthopedics"], ["--have", "Message=help"],
                ["--fact", "availableRole(doctor,Orthopedics)"], ["--max-depth", "4"]],
    "trace": [["--coach", "S5"], ["--spec", "Orthopedics"], ["--validate-all"]],
    "severity": [["--spec", "Orthopedics"], ["--symptoms", "pain,swelling"]],
    "report": [["--log", "{tmp}/events.log"], ["--pnr", "P004"],
               ["--now", "2011-11-05T09:20"], ["--spec", "Orthopedics"], ["--case", "fell"]],
    "simulate": [["--log", "{tmp}/events.log"], ["--script", "{tmp}/emergency.scn"]],
}
_ARGV_VALUES = ("0", "-1", "1", "3", "", "lines", "text", "Medical", "Robbery", "S5", "S99",
                "Orthopedics", "P003", "P004", "P999", "2011-11-05T09:20", "11/05", "{tmp}",
                "{tmp}/missing", "{tmp}/events.log", "{tmp}/services.reg",
                "{tmp}/emergency.scn", "ConfirmSend", "Name", "Profession=doctor", "=",
                "availableRole(doctor,Orthopedics)", "f(X)", "pain,,swelling", ",")
_UNKNOWN_FLAGS = ("--bogus", "--max-dept", "-x", "--have=", "-h")


@st.composite
def _argv(draw):
    """A command's valid argv with a flag dropped, added, repeated, unknown or
    given another value."""
    command = draw(st.sampled_from(sorted(_ARGV_BASES)))
    pairs = [list(pair) for pair in _ARGV_BASES[command]]
    _, _, paths, flags = cli.COMMANDS[command]
    own = [f"--{p}" for p in paths] + [flag for flag, _ in flags]
    value = st.sampled_from(_ARGV_VALUES) | st.text("-=,:()aS5#", max_size=5)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["value", "value", "drop", "add", "repeat", "unknown"]))
        at = draw(st.integers(0, len(pairs)))
        if kind == "value" and pairs:
            pair = pairs[min(at, len(pairs) - 1)]
            pair[1:] = [draw(value)]
        elif kind == "drop" and pairs:
            del pairs[min(at, len(pairs) - 1)]
        elif kind == "repeat" and pairs:
            pairs.append(list(draw(st.sampled_from(pairs))))
        elif kind == "unknown":
            pairs.insert(at, [draw(st.sampled_from(_UNKNOWN_FLAGS))]
                         + draw(st.lists(value, max_size=1)))
        else:
            pairs.insert(at, [draw(st.sampled_from(own)), draw(value)])
    return [command] + [arg for pair in pairs for arg in pair]


@given(_argv())
@settings(max_examples=300, deadline=None)
def test_mutated_argv_exits_0_1_or_2(argv):
    # run in the temporary directory, as a mutated --log names a relative
    # path, and with no FLUXCOMPOSE_LOG, which would override it
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("FLUXCOMPOSE_LOG", None)
        for name in ("emergency.scn", "services.reg"):
            shutil.copy(data_path(name), Path(tmp) / name)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run([arg.replace("{tmp}", tmp) for arg in argv])
        except SystemExit as exc:  # argparse: usage errors, and -h
            code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (code, err.getvalue())

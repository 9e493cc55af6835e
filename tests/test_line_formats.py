"""The exact message of every load error of the six line formats.

One row per raise or append in the loaders of the taxonomy, the severity
rules, the registry, the roster, the schedule and the simulate script, with
its line number. A line ends at "\\n" only, as in the dsl tokenizer and the
event log: the LINE_RULE rows put other characters that str.splitlines breaks
at inside a line.
"""

import csv

import pytest

from fluxcompose.errors import FluxError
from fluxcompose.ontology import load_severity_rules, load_taxonomy
from fluxcompose.registry import load_registry
from fluxcompose.scenario import ROSTER_HEADER, load_roster, load_schedule, run_script

_LOADERS = {
    "taxonomy": lambda text, fixture: load_taxonomy(text),
    "rules": lambda text, fixture: load_severity_rules(text),
    "registry": lambda text, fixture: load_registry(text, fixture("taxonomy")),
    "roster": lambda text, fixture: load_roster(text),
    "schedule": lambda text, fixture: load_schedule(text),
    "script": lambda text, fixture: run_script(fixture("dispatch_context"), text),
}

_GOOD_ROW = dict(zip(ROSTER_HEADER.split(","),
                     "P1,Asha,S1,1,Patient,,,yes,asthma,,,A,B,2011-11-05".split(",")))


def _row(**cells) -> str:
    """A roster row: a valid one with the given cells replaced."""
    return ",".join({**_GOOD_ROW, **cells}.values()) + "\n"


def _csv_error(line: str) -> str:
    try:
        next(csv.reader((line,)))
    except csv.Error as exc:
        return str(exc)
    raise AssertionError(f"csv accepts {line!r}")


_HEAD = "#coach-order: S1,S2\n" + ROSTER_HEADER + "\n"
_DECL = "expected 'root', 'concept' or 'individual' declaration"
_RULE = "expected rule <Spec> {syms} -> <Severity> @<priority>"
_STOP = "expected 'station <id> @ <HH:MM>'"
_END = "expected 'end', found <end of input>"
_LIMIT = csv.field_size_limit()

# (format, text, str of the error)
BYTE_PRESERVING = [
    # taxonomy
    ("taxonomy", "root A\nconcept 9B subClassOf A\n",
     "<string>:2:1: expected a concept name, found '9B'"),
    ("taxonomy", "root A\n\nindividual x type B\n",
     "<string>:3:1: expected a declared concept, found 'B'"),
    ("taxonomy", "root A\nconcept B A\n", f"<string>:2:1: {_DECL}, found 'concept B A'"),
    ("taxonomy", "root A # the top\nconcept B subClassOf A # one below\nnote\n",
     f"<string>:3:1: {_DECL}, found 'note'"),
    ("taxonomy", "root A\nconcept B subClassOf C\nconcept C subClassOf B\n",
     "subClassOf cycle: B -> C -> B"),
    # severity rules
    ("rules", "# rules\nrule X {a} -> Severe @1\n",
     f"<string>:2:1: {_RULE}, found 'rule X {{a}} -> Severe @1'"),
    ("rules", "rule X {a} -> Minor @1\nrule X {b} -> Major @1 # again\n",
     "<string>:2:1: expected a unique priority per specialization, "
     "found 'rule X {b} -> Major @1'"),
    # registry
    ("registry", "service s\n  hasInput: P\n",
     "<string>:2:1: expected <PARAM> : <Concept>, found 'P'"),
    ("registry", "service s\n  hasInput: p : Profession\n",
     "<string>:2:1: expected an all-caps parameter name, found 'p'"),
    ("registry", "service s\n  hasInput: P : Nope\n", "unknown concept: Nope"),
    ("registry", "service s\n  hasInput: P : Profession\n  hasOutput: P : Message\n",
     "<string>:3:1: expected a fresh parameter name, found 'P'"),
    ("registry", "service s\nend\n",
     "<string>:2:1: expected a grounding field before 'end', found 'end'"),
    ("registry", "service s\n  grounding: g\nend\nservice s\n  grounding: g\nend\n",
     "duplicate service name: s"),
    ("registry", "\nserve s\n", "<string>:2:1: expected 'service <name>', found 'serve s'"),
    ("registry", "service s\n  grounding:\n",
     "<string>:2:1: expected a grounding stub id, found 'grounding:'"),
    ("registry", "service s\n  output: X\n",
     "<string>:2:1: expected a service field or 'end', found 'output: X'"),
    ("registry", "service s\n  precondition: holds(f(\n",
     "<string>:2:25: expected a term, found '<end of input>'"),
    ("registry", "service s\n\n  effectAdd: p(X,\n",
     "<string>:3:18: expected a term, found '<end of input>'"),
    ("registry", "service s\n  grounding: g\n", f"<string>:3:1: {_END}"),
    ("registry", "service s\n  grounding: g", f"<string>:3:1: {_END}"),
    ("registry", "service s\n  grounding: g\n\n  \n", f"<string>:5:1: {_END}"),
    ("registry", "service s # the first\n  grounding: g # a stub\n  bogus\n",
     "<string>:3:1: expected a service field or 'end', found 'bogus'"),
    # roster
    ("roster", "#coach-order: S1\npnr,name\n",
     f"<string>:2: expected header {ROSTER_HEADER!r}"),
    ("roster", _HEAD + _row(illness="a\0b"), "<string>:3: bad row: line contains NUL"),
    ("roster", _HEAD + _row(illness="x" * (_LIMIT + 1)),
     f"<string>:3: bad row: field larger than field limit ({_LIMIT})"),
    ("roster", _HEAD + "P1,Asha\n", "<string>:3: expected 14 fields, found 2"),
    ("roster", _HEAD + _row(pnr=""), "<string>:3: missing pnr"),
    ("roster", _HEAD + _row() + _row(), "<string>:4: duplicate pnr P1"),
    ("roster", _HEAD + _row(name="Bad;Name"), "<string>:3: bad passenger name 'Bad;Name'"),
    ("roster", _HEAD + _row(coach="S9"),
     "<string>:3: unknown coach 'S9' (not in #coach-order)"),
    ("roster", _HEAD + _row(seat="x"), "<string>:3: bad seat 'x'"),
    ("roster", _HEAD + _row(role="Doctor"), "<string>:3: bad role 'Doctor'"),
    ("roster", _HEAD + _row(role="DeliveryPersonnel"),
     "<string>:3: delivery personnel must have a registered profession"),
    ("roster", _HEAD + _row(registered="YES"),
     "<string>:3: registered must be yes or no, found 'YES'"),
    ("roster", _HEAD + _row(destination="A"),
     "<string>:3: origin and destination must differ"),
    ("roster", _HEAD + _row(date="2011-02-30"), "<string>:3: bad journey date '2011-02-30'"),
    ("roster",
     _HEAD + "# a note\n" + _row(pnr="", seat="x") + "\n" + _row(illness="#3", coach="S9"),
     "<string>:4: missing pnr; <string>:4: bad seat 'x'; "
     "<string>:6: unknown coach 'S9' (not in #coach-order)"),
    ("roster", "", "<string>:1: missing roster header row"),
    ("roster", "#coach-order: S1\n", "<string>:2: missing roster header row"),
    ("roster", "#coach-order: S1", "<string>:2: missing roster header row"),
    ("roster", "#coach-order: S1\n\n  \n", "<string>:4: missing roster header row"),
    # schedule
    ("schedule", "station A 06:00\n", f"<string>:1: {_STOP}, found 'station A 06:00'"),
    ("schedule", "station A @ 6h\n", "<string>:1: bad time '6h'"),
    ("schedule", "station A @ 06:00 # first\nstation B @ 05:00\n",
     "<string>:2: arrival times must strictly increase"),
    ("schedule", "station A @ x\n\nstation B\n",
     f"<string>:1: bad time 'x'; <string>:3: {_STOP}, found 'station B'"),
    ("schedule", "", "<string>:1: expected at least one station"),
    ("schedule", "# none\n\n", "<string>:3: expected at least one station"),
    ("schedule", "# none", "<string>:2: expected at least one station"),
    # simulate script
    ("script", 'report pnr="P1\n', "<script>:1: No closing quotation: 'report pnr=\"P1'"),
    ("script", "# steps\nvalidate P001\n",
     "<script>:2: expected key=value arguments, found 'validate P001'"),
    ("script", "validate pnr=P001\n", "<script>:1: missing origin=..."),
    ("script", "validate pnr=P1 origin=A destination=B date=x\n", "<script>:1: bad date 'x'"),
    ("script", "report pnr=P1 now=x\n", "<script>:1: Invalid isoformat string: 'x'"),
    ("script", 'report pnr=P1 case="#3" now=x\n', "<script>:1: Invalid isoformat string: 'x'"),
    ("script", "report pnr=P1 now=2011-11-05T09:20 type=Fire\n",
     "<script>:1: 'Fire' is not a valid EventType"),
    ("script", "\n\nwait pnr=P1\n", "<script>:3: unknown script command 'wait'"),
    # a registry fragment's column counts a tab indent as one character
    ("registry", "service s\n\teffectRemove:  p(X, # c\n",
     "<string>:2:21: expected a term, found '<end of input>'"),
]


_CR_ROW = _row(illness="a\rb")
# Each line number is one more than the count of "\n" before the line.
LINE_RULE = [
    ("taxonomy", "root A # see\x0cnote\nbad\n", f"<string>:2:1: {_DECL}, found 'bad'"),
    ("taxonomy", "root A\x1cconcept B subClassOf A\nbad\n",
     f"<string>:1:1: {_DECL}, found 'root A\\x1cconcept B subClassOf A'"),
    ("rules", "rule X {a} -> Minor @1 \x85\nrule X {b} -> Major @1\n",
     "<string>:2:1: expected a unique priority per specialization, "
     "found 'rule X {b} -> Major @1'"),
    ("registry", "service s\n  textDescription: a\u2028b\n  bogus\n",
     "<string>:3:1: expected a service field or 'end', found 'bogus'"),
    ("registry", "service s\n  textDescription: a\x0bb\u2029c\n  grounding: g\n",
     f"<string>:4:1: {_END}"),
    ("roster", _HEAD + _row(illness="a\u2028b") + _row(pnr="P2", seat="x"),
     "<string>:4: bad seat 'x'"),
    ("roster", _HEAD + _row(illness='"a\rb"') + _row(pnr="P2", seat="x"),
     "<string>:4: bad seat 'x'"),
    ("roster", _HEAD + _CR_ROW, f"<string>:3: bad row: {_csv_error(_CR_ROW.strip())}"),
    ("roster", "#coach-order: S1\x1e\n", "<string>:2: missing roster header row"),
    ("schedule", "station A @ 06:00 # stop\x0cone\nstation B @ 05:00\n",
     "<string>:2: arrival times must strictly increase"),
    ("schedule", "# none\x1d\n", "<string>:2: expected at least one station"),
    ("script", 'report pnr=P1 case="a\x85b" now=x\n', "<script>:1: Invalid isoformat string: 'x'"),
    ("script", "# steps\u2028validate P001\nwait\n", "<script>:2: unknown script command 'wait'"),
]


@pytest.mark.parametrize(
    "fmt, text, message",
    [pytest.param(*row, id=f"{i}-{row[0]}") for i, row in enumerate(BYTE_PRESERVING)]
    + [pytest.param(*row, id=f"line-rule-{i}-{row[0]}") for i, row in enumerate(LINE_RULE)])
def test_line_format_message(request, fmt, text, message):
    with pytest.raises(FluxError) as exc:
        _LOADERS[fmt](text, request.getfixturevalue)
    assert str(exc.value) == message

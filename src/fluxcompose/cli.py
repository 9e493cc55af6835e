"""Command-line front end for batch use and scenario replay.

Human-readable output goes to stdout, diagnostics to stderr; machine mode
(`--format lines`) emits the serialization records documented in the README.
Exit codes: 0 success, 1 domain-level failure (no plan, fallback required),
2 usage or parse errors. FLUXCOMPOSE_LOG overrides --log.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from datetime import datetime
from pathlib import Path

from . import composer, dsl, ontology, planner, registry as registry_mod, scenario
from .errors import FluxError
from .terms import is_ground


# The package's bundled data directory, found once per process.
_DATA_DIR = Path(__file__).parent / "data"


def data_path(name: str) -> Path:
    """Path of a bundled data file shipped with the package."""
    return _DATA_DIR / name


DEFAULTS = {
    "domain": "emergency.fcd",
    "problem": "emergency.fcp",
    "taxonomy": "domain.tax",
    "registry": "services.reg",
    "roster": "roster.csv",
    "schedule": "route.schedule",
    "rules": "severity.rules",
}


def _unreadable(path: Path, reason: str) -> FluxError:
    return FluxError(f"unreadable input file: {path} ({reason})")


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FluxError(f"missing input file: {path}") from None
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise _unreadable(path, reason)


def _path_arg(args: argparse.Namespace, name: str) -> Path:
    given = getattr(args, name, None)
    return Path(given) if given else data_path(DEFAULTS[name])


def _load(args: argparse.Namespace, name: str, parse, *extra):
    """Parse the input file named by --<name> (default: bundled) with parse.

    parse takes the text, then any extra arguments, then the source name.
    """
    path = _path_arg(args, name)
    return parse(_read(path), *extra, str(path))


def _search_config(args: argparse.Namespace) -> planner.SearchConfig:
    return planner.SearchConfig(max_depth=args.max_depth)


def _open_log(args: argparse.Namespace) -> scenario.EventLog:
    """Open the event log named by FLUXCOMPOSE_LOG or --log."""
    path = os.environ.get("FLUXCOMPOSE_LOG") or args.log
    if not path:
        raise FluxError("an event log path is required (--log or FLUXCOMPOSE_LOG)")
    path = Path(path)
    try:
        return scenario.EventLog(path)
    except FileNotFoundError:
        raise FluxError(f"missing input file: {path}") from None
    except OSError as exc:
        raise _unreadable(path, exc.strerror) from None


def _load_context(args: argparse.Namespace, log: scenario.EventLog
                  ) -> scenario.DispatchContext:
    graph = _load(args, "taxonomy", ontology.load_taxonomy)
    reg = _load(args, "registry", registry_mod.load_registry, graph)
    roster = _load(args, "roster", scenario.load_roster)
    schedule = _load(args, "schedule", scenario.load_schedule)
    rules = _load(args, "rules", ontology.load_severity_rules)
    sink = scenario.MessageSink(Path(str(log.path) + ".messages"))
    return scenario.DispatchContext(
        roster=roster, taxonomy=graph, registry=reg, severity_rules=rules,
        schedule=schedule, log=log, message_sink=sink,
        search_config=_search_config(args),
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    def ok(name: str, summary: str) -> None:
        print(f"ok: {_path_arg(args, name)} ({summary})")

    domain = _load(args, "domain", dsl.parse_domain)
    ok("domain", f"{len(domain.fluent_decls)} fluents, {len(domain.actions)} actions")
    problem = _load(args, "problem", dsl.parse_problem)
    planner.make_problem(domain, problem)
    ok("problem",
       f"{len(problem.initial)} initial fluents, {len(problem.goal)} goal atoms")
    graph = _load(args, "taxonomy", ontology.load_taxonomy)
    ok("taxonomy", f"{len(graph.concepts)} concepts")
    reg = _load(args, "registry", registry_mod.load_registry, graph)
    ok("registry", f"{len(reg.actions)} services")  # compiles every service
    roster = _load(args, "roster", scenario.load_roster)
    ok("roster", f"{len(roster.passengers)} passengers")
    schedule = _load(args, "schedule", scenario.load_schedule)
    ok("schedule", f"{len(schedule)} stops")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    domain = _load(args, "domain", dsl.parse_domain)
    problem = planner.make_problem(domain, _load(args, "problem", dsl.parse_problem))
    try:
        found = planner.plan(problem, _search_config(args))
    except planner.NoPlanFound as exc:
        print(exc)
        return 1
    if args.format == "lines":
        for i, step in enumerate(found.steps):
            print(f"step\t{i}\t{step}")
    else:
        if not found.steps:
            print("goal already satisfied; empty plan")
        for i, step in enumerate(found.steps, start=1):
            print(f"{i}. {step}")
    return 0


def cmd_compose(args: argparse.Namespace) -> int:
    graph = _load(args, "taxonomy", ontology.load_taxonomy)
    reg = _load(args, "registry", registry_mod.load_registry, graph)
    have = []
    for item in args.have:
        concept, sep, value = item.partition("=")
        if not sep or not concept or not value:
            raise FluxError(f"--have expects CONCEPT=VALUE, found {item!r}")
        have.append((concept, value))
    facts = []
    for text in args.fact:
        term = dsl.parse_term_text(text, "<--fact>")
        if not is_ground(term):
            raise FluxError(f"--fact must be ground, found {text!r}")
        facts.append(term)
    request = composer.CompositionRequest(
        have=tuple(have), want=tuple(args.want), world_facts=tuple(facts))
    try:
        workflow = composer.compose(request, reg, graph, _search_config(args))
    except planner.NoPlanFound as exc:
        print(exc)
        return 1
    if args.format == "lines":
        for line in workflow.to_lines(reg):
            print(line)
    else:
        if workflow.is_empty:
            print("request already satisfied; empty workflow")
        for i, (name, wires) in enumerate(zip(workflow.services, workflow.wiring), start=1):
            text = "; ".join(f"{param}<-{source}" for param, source in wires)
            print(f"{i}. {name}" + (f"  [{text}]" if text else ""))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    roster = _load(args, "roster", scenario.load_roster)
    if args.validate_all:
        for p in roster.passengers:
            if p.registered_for_service:
                roster, _ = scenario.validate_travel_plan(
                    roster, p.pnr, p.travel.origin, p.travel.destination,
                    p.travel.journey_date)
    ranked = scenario.trace_resources(roster, scenario.EventType(args.type), args.coach,
                                      args.spec, args.patient)
    for i, r in enumerate(ranked, start=1):
        if args.format == "lines":
            print(f"responder\t{i}\t{r.name}\t{r.profession}\t"
                  f"{r.specialization or '-'}\t{r.coach}\t{r.distance}")
        else:
            print(f"{i}. {r.name} ({r.profession}"
                  + (f"/{r.specialization}" if r.specialization else "")
                  + f", coach {r.coach}, distance {r.distance})")
    return 0


def cmd_severity(args: argparse.Namespace) -> int:
    rules = _load(args, "rules", ontology.load_severity_rules)
    print(ontology.classify_severity(args.spec, args.symptoms, rules))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    try:
        now = datetime.fromisoformat(args.now)
    except ValueError:
        raise FluxError(f"--now expects an ISO timestamp, found {args.now!r}") from None
    with _open_log(args) as log:
        ctx = _load_context(args, log)
        info = scenario.EmergencyInfo(
            event_type=scenario.EventType(args.type),
            specialization=args.spec,
            symptoms=args.symptoms,
            case_history=args.case,
        )
        outcome = scenario.report_emergency(ctx, args.pnr, info, now=now)
    if args.format == "lines":
        print(scenario.record_to_line(outcome.record_id, outcome.record))
        if outcome.trace is not None:
            for line in outcome.trace.to_lines():
                print(line)
    else:
        if outcome.kind is scenario.OutcomeKind.RESPONDER_ASSIGNED:
            print(f"record {outcome.record_id}: responder "
                  f"{outcome.record.delivery_personnel} notified "
                  f"({outcome.record.confirmation})")
        else:
            print(f"record {outcome.record_id}: fallback notice to station "
                  f"{outcome.record.station} ({outcome.record.reason})")
    return 0 if outcome.kind is scenario.OutcomeKind.RESPONDER_ASSIGNED else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    script_path = Path(args.script)
    with _open_log(args) as log:
        ctx = _load_context(args, log)
        steps = scenario.run_script(ctx, _read(script_path), str(script_path))
    for step in steps:
        if args.format == "lines" and step.outcome is not None:
            print(scenario.record_to_line(step.outcome.record_id,
                                          step.outcome.record))
        else:
            print(f"{script_path}:{step.lineno}: {step.command}: {step.summary}")
    return 0


_MAX_DEPTH = ("--max-depth", {"type": int, "default": 8})
_FORMAT = ("--format", {"choices": ("text", "lines"), "default": "text"})
_TYPE = ("--type", {"default": "Medical", "choices": ("Medical", "Robbery")})
_SYMPTOMS = ("--symptoms", {"type": scenario.parse_symptoms, "default": ""})
_LOG = ("--log", {"help": "event log path (FLUXCOMPOSE_LOG overrides)"})

# name: (handler, help, input-file flags (default: bundled), other flags).
# A command takes only the flags it reads, in the order listed here.
COMMANDS = {
    "validate": (cmd_validate, "parse and check input files",
                 ("domain", "problem", "taxonomy", "registry", "roster", "schedule"),
                 ()),
    "plan": (cmd_plan, "plan a domain/problem pair", ("domain", "problem"),
             (_MAX_DEPTH, _FORMAT)),
    "compose": (cmd_compose, "compose a workflow for a request",
                ("taxonomy", "registry"),
                (("--have", {"action": "append", "default": [],
                             "metavar": "CONCEPT=VALUE"}),
                 ("--want", {"action": "append", "default": [], "metavar": "CONCEPT"}),
                 ("--fact", {"action": "append", "default": [], "metavar": "FLUENT"}),
                 _MAX_DEPTH, _FORMAT)),
    "trace": (cmd_trace, "rank responders for an event", ("roster",),
              (("--coach", {"required": True}), ("--spec", {}), _TYPE,
               ("--patient", {"default": "", "help": "patient name (excluded)"}),
               ("--validate-all", {"action": "store_true",
                                   "help": "validate every registered passenger's "
                                           "travel plan against the roster before "
                                           "ranking"}),
               _FORMAT)),
    "severity": (cmd_severity, "classify severity from symptoms", (),
                 (("--spec", {"required": True}), _SYMPTOMS,
                  ("--rules", {"help": "severity rules file (default: bundled)"}))),
    "report": (cmd_report, "run the full report-emergency flow",
               ("taxonomy", "registry", "roster", "schedule"),
               (_LOG, ("--pnr", {"required": True}), _TYPE, ("--spec", {}), _SYMPTOMS,
                ("--case", {"default": ""}),
                ("--now", {"required": True, "help": "ISO timestamp of the report"}),
                _MAX_DEPTH, _FORMAT)),
    "simulate": (cmd_simulate, "replay a scripted scenario file",
                 ("taxonomy", "registry", "roster", "schedule"),
                 (_LOG, ("--script", {"required": True}), _MAX_DEPTH, _FORMAT)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every command in COMMANDS, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fluxcompose",
        description="fluent-calculus planning and service composition",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, paths, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        for path in paths:
            command.add_argument(f"--{path}", help=f"{path} file (default: bundled)")
        for flag, options in flags:
            command.add_argument(flag, **options)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except planner.NoPlanFound as exc:
        print(exc, file=sys.stderr)
        return 1
    except scenario.FallbackRequired as exc:
        print(f"fallback required: {exc}", file=sys.stderr)
        return 1
    except FluxError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())

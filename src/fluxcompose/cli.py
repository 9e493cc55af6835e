"""Command-line front end for batch use and scenario replay.

Human-readable output goes to stdout, diagnostics to stderr; machine mode
(`--format lines`) emits the serialization records documented in the README.
Exit codes: 0 success, 1 domain-level failure (no plan, fallback required),
2 usage or parse errors. FLUXCOMPOSE_LOG overrides --log.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime
from importlib.resources import files as package_files
from pathlib import Path

from . import composer, dsl, ontology, planner, registry as registry_mod, scenario
from .errors import FluxError
from .terms import is_ground


def data_path(name: str) -> Path:
    """Path of a bundled data file shipped with the package."""
    return Path(str(package_files("fluxcompose").joinpath("data", name)))


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
        raise  # `run` reports it
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


def _add_path_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument(f"--{name}", help=f"{name} file (default: bundled)")


def _search_config(args: argparse.Namespace) -> planner.SearchConfig:
    return planner.SearchConfig(max_depth=args.max_depth)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxcompose",
        description="fluent-calculus planning and service composition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and check input files")
    _add_path_flags(p_validate, "domain", "problem", "taxonomy", "registry",
                    "roster", "schedule")

    p_plan = sub.add_parser("plan", help="plan a domain/problem pair")
    _add_path_flags(p_plan, "domain", "problem")

    p_compose = sub.add_parser("compose", help="compose a workflow for a request")
    _add_path_flags(p_compose, "taxonomy", "registry")
    p_compose.add_argument("--have", action="append", default=[],
                           metavar="CONCEPT=VALUE")
    p_compose.add_argument("--want", action="append", default=[], metavar="CONCEPT")
    p_compose.add_argument("--fact", action="append", default=[], metavar="FLUENT")

    p_trace = sub.add_parser("trace", help="rank responders for an event")
    _add_path_flags(p_trace, "roster")
    p_trace.add_argument("--coach", required=True)
    p_trace.add_argument("--spec")
    p_trace.add_argument("--type", default="Medical", choices=("Medical", "Robbery"))
    p_trace.add_argument("--patient", default="", help="patient name (excluded)")
    p_trace.add_argument("--symptoms", default="")
    p_trace.add_argument("--validate-all", action="store_true",
                         help="validate every registered passenger's travel plan "
                              "against the roster before ranking")

    p_sev = sub.add_parser("severity", help="classify severity from symptoms")
    p_sev.add_argument("--spec", required=True)
    p_sev.add_argument("--symptoms", default="")
    p_sev.add_argument("--rules", help="severity rules file (default: bundled)")

    p_report = sub.add_parser("report", help="run the full report-emergency flow")
    _add_path_flags(p_report, "taxonomy", "registry", "roster", "schedule")
    p_report.add_argument("--log", help="event log path (FLUXCOMPOSE_LOG overrides)")
    p_report.add_argument("--pnr", required=True)
    p_report.add_argument("--type", default="Medical", choices=("Medical", "Robbery"))
    p_report.add_argument("--spec")
    p_report.add_argument("--symptoms", default="")
    p_report.add_argument("--case", default="")
    p_report.add_argument("--now", required=True, help="ISO timestamp of the report")

    p_sim = sub.add_parser("simulate", help="replay a scripted scenario file")
    _add_path_flags(p_sim, "taxonomy", "registry", "roster", "schedule")
    p_sim.add_argument("--log", help="event log path (FLUXCOMPOSE_LOG overrides)")
    p_sim.add_argument("--script", required=True)

    # Each command gets only the flags it reads.
    for p in (p_plan, p_compose, p_report, p_sim):
        p.add_argument("--max-depth", type=int, default=8)
    for p in (p_plan, p_compose, p_trace, p_report, p_sim):
        p.add_argument("--format", choices=("text", "lines"), default="text")
    return parser


def _open_log(args: argparse.Namespace) -> scenario.EventLog:
    """Open the event log named by FLUXCOMPOSE_LOG or --log."""
    path = os.environ.get("FLUXCOMPOSE_LOG") or args.log
    if not path:
        raise FluxError("an event log path is required (--log or FLUXCOMPOSE_LOG)")
    path = Path(path)
    try:
        return scenario.EventLog(path)
    except FileNotFoundError:
        raise  # `run` reports it
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
    for svc in reg.sorted_services():
        registry_mod.compile_service_to_action(svc)
    ok("registry", f"{len(reg)} services")
    roster = _load(args, "roster", scenario.load_roster)
    ok("roster", f"{len(roster.passengers)} passengers")
    schedule = _load(args, "schedule", scenario.load_schedule)
    ok("schedule", f"{len(schedule.stops)} stops")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    domain = _load(args, "domain", dsl.parse_domain)
    problem = planner.make_problem(domain, _load(args, "problem", dsl.parse_problem))
    try:
        found = planner.plan(problem, _search_config(args))
    except planner.NoPlanFound as exc:
        print(f"no plan within depth {exc.depth}")
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
        print(f"no plan within depth {exc.depth}")
        return 1
    if args.format == "lines":
        for line in workflow.to_lines(reg):
            print(line)
    else:
        if workflow.is_empty:
            print("request already satisfied; empty workflow")
        for i, step in enumerate(workflow.plan.steps, start=1):
            wires = "; ".join(
                f"{w.param}<-{w.source}" for w in workflow.wiring if w.step == i - 1)
            print(f"{i}. {step.name}" + (f"  [{wires}]" if wires else ""))
    return 0


def _event_from_args(args: argparse.Namespace,
                     rules: tuple) -> scenario.EmergencyEvent:
    symptoms = frozenset(s for s in args.symptoms.split(",") if s)
    severity = ontology.classify_severity(args.spec, symptoms, rules)
    return scenario.EmergencyEvent(
        date="-", time="-", patient_name=args.patient, case_history="",
        coach=args.coach, seat=0, delivery_personnel=None,
        event_type=scenario.EventType(args.type), specialization=args.spec,
        symptoms=symptoms, severity=severity,
    )


def cmd_trace(args: argparse.Namespace) -> int:
    roster = _load(args, "roster", scenario.load_roster)
    if args.validate_all:
        for p in roster.passengers:
            if p.registered_for_service:
                roster, _ = scenario.validate_travel_plan(
                    roster, p.pnr, p.travel.origin, p.travel.destination,
                    p.travel.journey_date)
    event = _event_from_args(args, _load(args, "rules", ontology.load_severity_rules))
    ranked = scenario.trace_resources(roster, event)
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
    symptoms = frozenset(s for s in args.symptoms.split(",") if s)
    print(ontology.classify_severity(args.spec, symptoms, rules))
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
            symptoms=frozenset(s for s in args.symptoms.split(",") if s),
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


_COMMANDS = {
    "validate": cmd_validate,
    "plan": cmd_plan,
    "compose": cmd_compose,
    "trace": cmd_trace,
    "severity": cmd_severity,
    "report": cmd_report,
    "simulate": cmd_simulate,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except planner.NoPlanFound as exc:
        print(f"no plan within depth {exc.depth}", file=sys.stderr)
        return 1
    except scenario.FallbackRequired as exc:
        print(f"fallback required: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except FluxError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())

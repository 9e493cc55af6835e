"""Independent oracles the implementation is checked against.

These deliberately avoid the package's own code paths: plans are enumerated
exhaustively with no pruning, reachability is a plain recursive DFS,
responder ranking is a pairwise-comparator sort, the next-station rule is a
linear scan, log-field unescaping is a walk over the characters, and a
roster is read through csv one row at a time.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from dataclasses import dataclass
from datetime import date as Date, time as Time
from typing import Optional

from fluxcompose.errors import ParseError
from fluxcompose.planner import (
    GroundAction,
    Plan,
    PlanningProblem,
    apply_update,
    check_poss,
    satisfies_goal,
)
from fluxcompose.scenario import (
    ROSTER_HEADER,
    EventType,
    LoadError,
    Passenger,
    Role,
    Roster,
    TravelPlan,
)


def _applications(problem: PlanningProblem, state):
    """Every (schema, bindings, ground action) applicable in state, canonically sorted."""
    out = [(schema, bindings, GroundAction(schema.name,
                                           tuple(bindings[p] for p in schema.params)))
           for schema in sorted(problem.actions, key=lambda a: a.name)
           for bindings in check_poss(schema, state)]
    out.sort(key=lambda app: app[2].sort_key())
    return out


def enumerate_plans(problem: PlanningProblem, max_depth: int) -> list[Plan]:
    """Every valid plan of length <= max_depth, in canonical order.

    Exhaustive and unpruned: this is the oracle the searching planner is
    checked against. Canonical order is (length, per-step action/argument
    keys), so the first element is exactly what plan() must return.
    """
    found: list[Plan] = []

    def rec(state, steps: tuple[GroundAction, ...]) -> None:
        if satisfies_goal(state, problem.goal):
            found.append(Plan(steps))
        if len(steps) == max_depth:
            return
        for schema, bindings, ga in _applications(problem, state):
            rec(apply_update(schema, bindings, state, step=len(steps) + 1, _checked=True),
                steps + (ga,))

    rec(problem.initial, ())
    return sorted(dict.fromkeys(found), key=Plan.sort_key)


@dataclass(frozen=True)
class PlanCheck:
    ok: bool
    failed_step: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def validate_plan(problem: PlanningProblem, p: Plan) -> PlanCheck:
    """Simulate a plan from the initial state; report the first failing step.

    A step is its ground action, so it is applied under every binding of
    its poss that binds its params to its arguments, and the simulation
    follows every state that reaches. The check passes when each step's poss
    holds in one of the progressed states and one final state satisfies the
    goal (failed_step == len(steps) marks a goal failure).
    """
    schemas = {a.name: a for a in problem.actions}
    states = [problem.initial]
    for i, ga in enumerate(p.steps):
        schema = schemas.get(ga.name)
        if schema is None or len(ga.args) != len(schema.params):
            return PlanCheck(False, i)
        states = list(dict.fromkeys(
            apply_update(schema, bindings, state, step=i + 1, _checked=True)
            for state in states
            for bindings in check_poss(schema, state)
            if all(bindings[param] == arg
                   for param, arg in zip(schema.params, ga.args))))
        if not states:
            return PlanCheck(False, i)
    if not any(satisfies_goal(state, problem.goal) for state in states):
        return PlanCheck(False, len(p.steps))
    return PlanCheck(True, None)


def reachable(parents: dict[str, set], child: str, ancestor: str) -> bool:
    """Exhaustive-DFS reflexive-transitive reachability over parent edges."""
    if child == ancestor:
        return True
    return any(reachable(parents, p, ancestor) for p in parents[child])


# The professions that answer a Medical event, written out here rather than
# imported, so a change to the package's set shows up as a disagreement.
MEDICAL_PROFESSIONS = frozenset({"doctor", "nurse", "paramedic", "pharmacist"})


def rank_responders(roster, event_type, coach, specialization, patient_name):
    """Filter and comparator-sort, independent of trace_resources: the
    responders' fields in Responder order, ties kept in roster order."""
    pool = [p for p in roster.passengers
            if p.role is Role.DELIVERY_PERSONNEL
            and p.registered_for_service and p.travel.validated
            and (event_type is EventType.MEDICAL
                 and p.profession in MEDICAL_PROFESSIONS)
            and p.name != patient_name]

    def tier(p):
        if p.profession == "doctor":
            if specialization is not None and p.specialization == specialization:
                return 0
            return 1
        return 2

    def dist(p):
        return abs(roster.coach_order.index(p.coach)
                   - roster.coach_order.index(coach))

    def cmp(a, b):
        ka = (tier(a), dist(a), a.coach, a.name)
        kb = (tier(b), dist(b), b.coach, b.name)
        return -1 if ka < kb else (1 if ka > kb else 0)

    return [(p.name, p.profession, p.specialization, p.coach, dist(p))
            for p in sorted(pool, key=functools.cmp_to_key(cmp))]


def scan_next_station(stops: list[tuple[str, Time]], now: Time) -> str:
    """Linear scan for the first arrival strictly after now, clamped to the last."""
    chosen = stops[-1][0]
    for station, arrival in stops:
        if arrival > now:
            chosen = station
            break
    return chosen


def walk_unescape(value: str) -> str:
    """Undo the event log's field escaping one character at a time."""
    out = []
    i = 0
    while i < len(value):
        c = value[i]
        if c == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"t": "\t", "n": "\n", "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>%[^\n]*)"
    r"|(?P<number>\d+)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<punct>[()\[\],./:])"
)


def match_loop_tokenize(source: str, source_name: str) -> list[tuple[str, str, int, int]]:
    """The (kind, text, line, col) rows of `dsl._tokenize`, eof row last.

    One `match` per token from the current position, line breaks counted in
    every token's text; a position no token matches is a ParseError there.
    """
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(line, pos - line_start + 1, "a token",
                             repr(source[pos]), source_name)
        kind = m.lastgroup or ""
        text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, text, line, pos - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(("eof", "<end of input>", line, pos - line_start + 1))
    return tokens


def csv_load_roster(source: str, source_name: str = "<string>") -> Roster:
    """Parse and validate a roster with csv on every row and a per-character
    name check; as in load_roster, a row holding a NUL or one csv refuses is
    a row error and all bad rows are reported together."""
    errors: list[tuple[int, str]] = []
    coach_order: tuple[str, ...] = ()
    header_seen = False
    passengers: list[Passenger] = []
    seen_pnrs: set[str] = set()

    lines = list(io.StringIO(source, newline="\n"))  # a line ends at "\n" only
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#coach-order:"):
            coach_order = tuple(
                c.strip() for c in line.split(":", 1)[1].split(",") if c.strip()
            )
            continue
        if line.startswith("#"):
            continue
        if not header_seen:
            if line != ROSTER_HEADER:
                raise LoadError([(lineno, f"expected header {ROSTER_HEADER!r}")],
                                source_name)
            header_seen = True
            continue
        if "\0" in line:
            errors.append((lineno, "bad row: line contains NUL"))
            continue
        try:
            row = next(csv.reader(io.StringIO(line)))
        except csv.Error as exc:
            errors.append((lineno, f"bad row: {exc}"))
            continue
        if len(row) != 14:
            errors.append((lineno, f"expected 14 fields, found {len(row)}"))
            continue
        (pnr, name, coach, seat, role, profession, specialization, registered,
         illness, medication, medicine, origin, destination, journey) = [
            c.strip() for c in row]
        row_errors = len(errors)
        if not pnr:
            errors.append((lineno, "missing pnr"))
        elif pnr in seen_pnrs:
            errors.append((lineno, f"duplicate pnr {pnr}"))
        if not name or not all(c.isalnum() or c in " .,'-" for c in name):
            errors.append((lineno, f"bad passenger name {name!r}"))
        if coach not in coach_order:
            errors.append((lineno, f"unknown coach {coach!r} (not in #coach-order)"))
        try:
            seat_num = int(seat)
        except ValueError:
            errors.append((lineno, f"bad seat {seat!r}"))
            seat_num = 0
        try:
            role_val = Role(role) if role else Role.NONE
        except ValueError:
            errors.append((lineno, f"bad role {role!r}"))
            role_val = Role.NONE
        if role_val is Role.DELIVERY_PERSONNEL and not profession:
            errors.append((lineno, "delivery personnel must have a registered profession"))
        if registered not in ("yes", "no"):
            errors.append((lineno, f"registered must be yes or no, found {registered!r}"))
        if origin == destination:
            errors.append((lineno, "origin and destination must differ"))
        try:
            journey_date = Date.fromisoformat(journey)
        except ValueError:
            errors.append((lineno, f"bad journey date {journey!r}"))
            journey_date = Date(1970, 1, 1)
        if len(errors) > row_errors:
            continue
        seen_pnrs.add(pnr)
        passengers.append(Passenger(
            pnr=pnr, name=name, coach=coach, seat=seat_num, role=role_val,
            profession=profession or None, specialization=specialization or None,
            registered_for_service=(registered == "yes"),
            illness=illness or None, medication=medication or None,
            medicine_in_hand=medicine or None,
            travel=TravelPlan(origin=origin, destination=destination,
                              journey_date=journey_date),
        ))
    if not header_seen:
        errors.append((len(lines) + 1, "missing roster header row"))
    if errors:
        raise LoadError(errors, source_name)
    return Roster(tuple(passengers), coach_order)

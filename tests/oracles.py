"""Independent oracles the implementation is checked against.

These deliberately avoid the package's own code paths: reachability is a
plain recursive DFS, responder ranking is a pairwise-comparator sort, the
next-station rule is a linear scan, log-field unescaping is a walk over
the characters, and a roster is read through csv one row at a time.
"""

from __future__ import annotations

import csv
import functools
import io
from datetime import date as Date, time as Time

from fluxcompose.scenario import (
    DEFAULT_MEDICAL_PROFESSIONS,
    ROSTER_HEADER,
    EventType,
    LoadError,
    Passenger,
    Role,
    Roster,
    TravelPlan,
)


def reachable(parents: dict[str, set], child: str, ancestor: str) -> bool:
    """Exhaustive-DFS reflexive-transitive reachability over parent edges."""
    if child == ancestor:
        return True
    return any(reachable(parents, p, ancestor) for p in parents[child])


def rank_responders(roster, event, professions=DEFAULT_MEDICAL_PROFESSIONS):
    """Filter and comparator-sort, independent of trace_resources."""
    pool = [p for p in roster.passengers
            if p.role is Role.DELIVERY_PERSONNEL
            and p.registered_for_service and p.travel.validated
            and (event.event_type is EventType.MEDICAL
                 and p.profession in professions)
            and p.name != event.patient_name]

    def tier(p):
        if p.profession == "doctor":
            if event.specialization is not None \
                    and p.specialization == event.specialization:
                return 0
            return 1
        return 2

    def dist(p):
        return abs(roster.coach_order.index(p.coach)
                   - roster.coach_order.index(event.coach))

    def cmp(a, b):
        ka = (tier(a), dist(a), a.coach, a.name)
        kb = (tier(b), dist(b), b.coach, b.name)
        return -1 if ka < kb else (1 if ka > kb else 0)

    return [(p.name, p.coach, dist(p))
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


def csv_load_roster(source: str, source_name: str = "<string>") -> Roster:
    """Parse and validate a roster with csv on every row and a per-character
    name check; as in load_roster, a row holding a NUL or one csv refuses is
    a row error and all bad rows are reported together."""
    errors: list[tuple[int, str]] = []
    coach_order: tuple[str, ...] = ()
    header_seen = False
    passengers: list[Passenger] = []
    seen_pnrs: set[str] = set()

    lines = source.splitlines()
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
            travel=TravelPlan(origin, destination, journey_date),
        ))
    if not header_seen:
        errors.append((len(lines) + 1, "missing roster header row"))
    if errors:
        raise LoadError(errors, source_name)
    return Roster(tuple(passengers), coach_order)

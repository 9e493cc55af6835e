"""Independent oracles the implementation is checked against.

These deliberately avoid the package's own code paths: reachability is a
plain recursive DFS, responder ranking is a pairwise-comparator sort, the
next-station rule is a linear scan, and log-field unescaping is a walk over
the characters.
"""

from __future__ import annotations

import functools
from datetime import time as Time

from fluxcompose.scenario import (
    DEFAULT_MEDICAL_PROFESSIONS,
    EventType,
    Role,
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

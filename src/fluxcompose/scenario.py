"""Emergency-healthcare application layer.

Covers the train scenario end to end: roster ingestion, passenger
registration and travel validation, responder tracing with coach-distance
ranking, the full report-emergency flow (compose + execute + log), the
next-station fallback, and an append-only single-writer event log.

Roster files are comma-separated with a fixed header plus a ``#coach-order:``
line naming the train's coach sequence; coach distance is the absolute index
difference in that sequence. The event log holds one structured record per
line and reads back into equal records.
"""

from __future__ import annotations

import csv
import fcntl
import os
import re
import shlex
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from datetime import date as Date, datetime, time as Time
from enum import Enum
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Union

from .composer import (
    CompositionRequest,
    ExecutionTrace,
    GroundingEnv,
    GroundingFailure,
    StubResult,
    compose,
    execute,
)
from .errors import FluxError, numbered_lines
from .ontology import SeverityRule, TaxonomyGraph, classify_severity
from .planner import SearchConfig
from .registry import Registry
from .terms import Compound, Constant

ROSTER_HEADER = (
    "pnr,name,coach,seat,role,profession,specialization,registered,"
    "illness,medication,medicine_in_hand,origin,destination,date"
)

# The professions that answer a Medical event; no other event type has any.
MEDICAL_PROFESSIONS = frozenset({"doctor", "nurse", "paramedic", "pharmacist"})

# Concepts the report flow wires into composition requests; they must exist in
# the loaded taxonomy (the bundled domain taxonomy declares all of them).
PROFESSION_CONCEPT = "Profession"
SPECIALIZATION_CONCEPT = "Specialization"
MESSAGE_CONCEPT = "Message"
CONFIRM_CONCEPT = "ConfirmSend"
PATIENT_CONCEPT = "PatientPopulation"
PERSONNEL_CONCEPT = "DeliveryPersonnel"


class UnknownPassengerError(FluxError):
    def __init__(self, pnr: str):
        self.pnr = pnr
        super().__init__(f"no passenger with pnr {pnr}")


class NotRegisteredError(FluxError):
    def __init__(self, pnr: str):
        self.pnr = pnr
        super().__init__(f"passenger {pnr} is not registered for the emergency service")


class ValidationMismatch(FluxError):
    """A supplied travel detail differs from the roster; names the field."""

    def __init__(self, field_name: str):
        self.field = field_name
        super().__init__(f"travel plan mismatch on {field_name}")


class FallbackRequired(GroundingFailure):
    """No responder is aboard for the event's major category."""

    def __init__(self, reason: str = "no matching resource"):
        super().__init__(reason)


class LoadError(FluxError):
    """One or more roster/schedule rows failed validation; carries (line, message) pairs."""

    def __init__(self, errors: list[tuple[int, str]], source_name: str = "<string>"):
        self.errors = errors
        self.source_name = source_name
        super().__init__("; ".join(f"{source_name}:{line}: {msg}" for line, msg in errors))


class LogLockedError(FluxError):
    """A second writer tried to open the single-writer event log."""


# ---------------------------------------------------------------------------
# Passengers and roster
# ---------------------------------------------------------------------------


class Role(Enum):
    PATIENT = "Patient"
    DELIVERY_PERSONNEL = "DeliveryPersonnel"
    NONE = "None"


class EventType(Enum):
    MEDICAL = "Medical"
    ROBBERY = "Robbery"


class TravelPlan(NamedTuple):
    origin: str
    destination: str
    journey_date: Date
    validated: bool = False


class Passenger(NamedTuple):
    pnr: str
    name: str
    coach: str
    seat: int
    role: Role
    profession: Optional[str]
    specialization: Optional[str]
    registered_for_service: bool
    illness: Optional[str]
    medication: Optional[str]
    medicine_in_hand: Optional[str]
    travel: TravelPlan
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class MedicalDetails:
    illness: Optional[str] = None
    medication: Optional[str] = None
    medicine_in_hand: Optional[str] = None
    profession: Optional[str] = None
    specialization: Optional[str] = None


# Passengers per block of a roster's storage: an update copies one block and
# the tuple of blocks, never the whole passenger list.
_BLOCK = 128


def _unknown_coach(coach: str) -> FluxError:
    return FluxError(f"unknown coach {coach!r} (not in #coach-order)")


def _is_ready(p: Passenger) -> bool:
    """Whether p can be traced as a responder, given a matching profession."""
    return (p.role is Role.DELIVERY_PERSONNEL and p.registered_for_service
            and p.travel.validated)


class Roster:
    """An immutable passenger list and the train's coach sequence.

    The passengers are kept in blocks of _BLOCK, so with_passenger copies one
    block and the tuple of blocks; `passengers` joins the blocks when first
    read, once per roster. Three indexes are built with the first roster of
    a list: pnr -> position (the first passenger with that pnr; later
    duplicates are never returned or updated), coach -> position in
    coach_order (the first, as tuple.index gives it), and the positions of
    the ready personnel (delivery personnel registered for service with a
    validated travel plan), in roster order. Positions never move, so a
    roster made by with_passenger shares its parent's pnr and coach maps, and
    shares its ready pool unless the update makes the passenger ready or no
    longer ready; then one position is inserted or removed. Equality and
    hashing see only passengers and coach_order.

    Passenger and TravelPlan are NamedTuples: immutable, compared and hashed
    by their field tuple, and updated with _replace.
    """

    __slots__ = ("coach_order", "_blocks", "_positions", "_coach_positions", "_ready",
                 "_passengers")

    def __init__(self, passengers: tuple[Passenger, ...], coach_order: tuple[str, ...]):
        passengers = tuple(passengers)
        positions: dict[str, int] = {}
        for i, p in enumerate(passengers):
            positions.setdefault(p.pnr, i)
        coach_positions: dict[str, int] = {}
        for i, coach in enumerate(coach_order):
            coach_positions.setdefault(coach, i)
        self._set(coach_order,
                  tuple(passengers[i:i + _BLOCK] for i in range(0, len(passengers), _BLOCK)),
                  positions, coach_positions,
                  tuple(i for i, p in enumerate(passengers) if _is_ready(p)),
                  passengers)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Roster is immutable: cannot set {name}")

    @property
    def passengers(self) -> tuple[Passenger, ...]:
        if self._passengers is None:
            object.__setattr__(self, "_passengers", tuple(chain.from_iterable(self._blocks)))
        return self._passengers

    def __eq__(self, other):
        if not isinstance(other, Roster):
            return NotImplemented
        return (self.coach_order, self.passengers) == (other.coach_order, other.passengers)

    def __hash__(self):
        return hash((self.passengers, self.coach_order))

    def __repr__(self):
        return f"Roster(passengers={self.passengers!r}, coach_order={self.coach_order!r})"

    def _at(self, i: int) -> Passenger:
        return self._blocks[i // _BLOCK][i % _BLOCK]

    def get(self, pnr: str) -> Passenger:
        try:
            return self._at(self._positions[pnr])
        except KeyError:
            raise UnknownPassengerError(pnr) from None

    def ready_personnel(self) -> Iterator[Passenger]:
        """The delivery personnel registered for service with a validated
        travel plan, in roster order."""
        return map(self._at, self._ready)

    def coach_index(self, coach: str) -> int:
        try:
            return self._coach_positions[coach]
        except KeyError:
            raise _unknown_coach(coach) from None

    def with_passenger(self, updated: Passenger) -> "Roster":
        """The roster with the passenger of updated's pnr replaced; unchanged if none."""
        i = self._positions.get(updated.pnr)
        if i is None:
            return self
        b, j = divmod(i, _BLOCK)
        block = self._blocks[b]
        ready, now_ready = self._ready, _is_ready(updated)
        if now_ready != _is_ready(block[j]):
            k = bisect_left(ready, i)
            ready = ready[:k] + (i,) + ready[k:] if now_ready else ready[:k] + ready[k + 1:]
        block = block[:j] + (updated,) + block[j + 1:]
        new = object.__new__(Roster)
        new._set(self.coach_order, self._blocks[:b] + (block,) + self._blocks[b + 1:],
                 self._positions, self._coach_positions, ready, None)
        return new


# characters that survive the log's line format unescaped, as a table that
# deletes them
_SAFE_TEXT = str.maketrans("", "", " .,'-")

# a roster's role cell; an empty one is Role.NONE
_ROLES = {role.value: role for role in Role} | {"": Role.NONE}


def _checked_text(value: str) -> bool:
    """Whether every character of value is alphanumeric or in _SAFE_TEXT."""
    rest = value.translate(_SAFE_TEXT)
    return rest == "" or rest.isalnum()


def load_roster(source: str, source_name: str = "<string>") -> Roster:
    """Parse and validate a roster file; all bad rows are reported together.

    A row holding a NUL is a row error on every Python version (csv refuses
    it on 3.10 and passes it on from 3.11). Any other row is split on its
    commas unless it holds a quote or a "\\r", or is longer than csv's field
    size limit; only those rows go through csv, and a row csv refuses is a
    row error. The split gives csv's fields: a line ends at "\\n", so a row
    holds none, and without a quote or a "\\r" csv's default dialect ends a
    field at each comma and nowhere else. csv refuses such a row only for a
    field over the limit, and those rows are the ones sent to it. A "\\r" in
    an unquoted field is a row error, as csv refuses it. Rows with equal
    origin, destination and date cells share one immutable TravelPlan. Each
    accepted row is built with one positional Passenger._make call, in field
    order.
    """
    errors: list[tuple[int, str]] = []
    coach_order: tuple[str, ...] = ()
    coaches: frozenset[str] = frozenset()
    header_seen = False
    passengers: list[Passenger] = []
    seen_pnrs: set[str] = set()
    plans: dict[tuple[str, str, str], TravelPlan] = {}
    field_limit = csv.field_size_limit()
    make, append = Passenger._make, passengers.append

    lines, end = numbered_lines(source, False)
    for lineno, line in lines:
        if line.startswith("#coach-order:"):
            coach_order = tuple(
                c.strip() for c in line.split(":", 1)[1].split(",") if c.strip()
            )
            coaches = frozenset(coach_order)
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
        if '"' in line or "\r" in line or len(line) > field_limit:
            try:
                row = next(csv.reader((line,)))
            except csv.Error as exc:
                errors.append((lineno, f"bad row: {exc}"))
                continue
        else:
            row = line.split(",")
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
        if not name or not _checked_text(name):
            errors.append((lineno, f"bad passenger name {name!r}"))
        if coach not in coaches:
            errors.append((lineno, f"unknown coach {coach!r} (not in #coach-order)"))
        try:
            seat_num = int(seat)
        except ValueError:
            errors.append((lineno, f"bad seat {seat!r}"))
        role_val = _ROLES.get(role)
        if role_val is None:
            errors.append((lineno, f"bad role {role!r}"))
        elif role_val is Role.DELIVERY_PERSONNEL and not profession:
            errors.append((lineno, "delivery personnel must have a registered profession"))
        if registered not in ("yes", "no"):
            errors.append((lineno, f"registered must be yes or no, found {registered!r}"))
        if origin == destination:
            errors.append((lineno, "origin and destination must differ"))
        travel = plans.get((origin, destination, journey))
        if travel is None:
            try:
                travel = plans[origin, destination, journey] = TravelPlan(
                    origin, destination, Date.fromisoformat(journey))
            except ValueError:
                errors.append((lineno, f"bad journey date {journey!r}"))
        if len(errors) > row_errors:
            continue
        seen_pnrs.add(pnr)
        append(make((
            pnr, name, coach, seat_num, role_val, profession or None,
            specialization or None, registered == "yes", illness or None,
            medication or None, medicine or None, travel, ())))
    if not header_seen:
        errors.append((end, "missing roster header row"))
    if errors:
        raise LoadError(errors, source_name)
    return Roster(tuple(passengers), coach_order)


# ---------------------------------------------------------------------------
# Registration and travel validation
# ---------------------------------------------------------------------------


def register_passenger(roster: Roster, graph: TaxonomyGraph, pnr: str,
                       opt_in: bool, details: MedicalDetails
                       ) -> tuple[Roster, TaxonomyGraph, Passenger]:
    """Register a reserved passenger for the emergency service.

    Opting in stores the medical details and asserts an individual of the
    matching concept into the taxonomy; opting out flags the passenger with
    the "no medical Service" prompt and leaves the taxonomy untouched.
    """
    p = roster.get(pnr)
    if opt_in:
        updated = p._replace(
            registered_for_service=True,
            illness=details.illness or p.illness,
            medication=details.medication or p.medication,
            medicine_in_hand=details.medicine_in_hand or p.medicine_in_hand,
            profession=details.profession or p.profession,
            specialization=details.specialization or p.specialization,
        )
        concept = (PERSONNEL_CONCEPT if updated.role is Role.DELIVERY_PERSONNEL
                   else PATIENT_CONCEPT)
        graph = graph.with_individual(pnr, concept)
    else:
        updated = p._replace(registered_for_service=False,
                             flags=p.flags + ("no medical Service",))
    return roster.with_passenger(updated), graph, updated


def validate_travel_plan(roster: Roster, pnr: str, origin: str, destination: str,
                         journey_date: Date) -> tuple[Roster, Passenger]:
    """Mark a passenger's travel plan validated iff the supplied triple matches."""
    p = roster.get(pnr)
    if not p.registered_for_service:
        raise NotRegisteredError(pnr)
    if origin != p.travel.origin:
        raise ValidationMismatch("origin")
    if destination != p.travel.destination:
        raise ValidationMismatch("destination")
    if journey_date != p.travel.journey_date:
        raise ValidationMismatch("journeyDate")
    updated = p._replace(travel=p.travel._replace(validated=True))
    return roster.with_passenger(updated), updated


# ---------------------------------------------------------------------------
# Responder tracing
# ---------------------------------------------------------------------------


def parse_symptoms(text: str) -> frozenset[str]:
    """The symptoms in a comma-separated list; empty items are dropped."""
    return frozenset(s for s in text.split(",") if s)


class Responder(NamedTuple):
    name: str
    profession: str
    specialization: Optional[str]
    coach: str
    distance: int


def trace_resources(roster: Roster, event_type: EventType, coach: str,
                    specialization: Optional[str],
                    patient_name: str) -> tuple[Responder, ...]:
    """Ranked responders for an event in a coach, nearest qualified personnel first.

    Eligible responders are validated, service-registered delivery personnel
    whose profession belongs to the event type's major category; the patient
    (by name) is never their own responder. Ranked by tier (specialist doctor,
    doctor, other), coach distance, coach and name; ties keep roster order.
    Raises FallbackRequired when nobody qualifies, which routes the event to
    the next-station notice.
    """
    category = MEDICAL_PROFESSIONS if event_type is EventType.MEDICAL else frozenset()
    patient_pos = roster.coach_index(coach)
    coach_positions = roster._coach_positions
    # sorted by key alone: a None specialization does not order against a str
    keyed = []
    for p in roster.ready_personnel():
        profession = p.profession
        if profession not in category or p.name == patient_name:
            continue
        try:
            distance = abs(coach_positions[p.coach] - patient_pos)
        except KeyError:
            raise _unknown_coach(p.coach) from None
        if profession != "doctor":
            tier = 2
        elif specialization is not None and p.specialization == specialization:
            tier = 0
        else:
            tier = 1
        keyed.append(((tier, distance, p.coach, p.name),
                      Responder(p.name, profession, p.specialization, p.coach, distance)))
    if not keyed:
        raise FallbackRequired()
    keyed.sort(key=itemgetter(0))
    return tuple([r for _, r in keyed])


# ---------------------------------------------------------------------------
# Route schedule
# ---------------------------------------------------------------------------


def load_schedule(source: str, source_name: str = "<string>"
                  ) -> tuple[tuple[str, Time], ...]:
    """The (station, arrival) stops of `station <id> @ <HH:MM>` lines: at
    least one, arrivals strictly increasing."""
    stops: list[tuple[str, Time]] = []
    errors: list[tuple[int, str]] = []
    lines, end = numbered_lines(source, True)
    for lineno, line in lines:
        words = line.split()
        if len(words) != 4 or words[0] != "station" or words[2] != "@":
            errors.append((lineno, f"expected 'station <id> @ <HH:MM>', found {line!r}"))
            continue
        try:
            arrival = Time.fromisoformat(words[3])
        except ValueError:
            errors.append((lineno, f"bad time {words[3]!r}"))
            continue
        if stops and arrival <= stops[-1][1]:
            errors.append((lineno, "arrival times must strictly increase"))
            continue
        stops.append((words[1], arrival))
    if not (stops or errors):
        errors.append((end, "expected at least one station"))
    if errors:
        raise LoadError(errors, source_name)
    return tuple(stops)


def next_station(schedule: tuple[tuple[str, Time], ...], now: Time) -> str:
    """First stop with scheduled arrival after now; the final stop once past all."""
    for station, arrival in schedule:
        if arrival > now:
            return station
    return schedule[-1][0]


# ---------------------------------------------------------------------------
# Event log records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RecordCommon:
    """Fields shared by every log record kind."""

    date: str
    time: str
    patient_name: str
    case_history: str
    coach: str
    seat: int
    delivery_personnel: str
    event_type: str
    specialization: str
    symptoms: frozenset
    severity: str
    payment_collected: bool


@dataclass(frozen=True)
class EventRecord(_RecordCommon):
    responders: tuple[str, ...]
    confirmation: str

    KIND = "event"


@dataclass(frozen=True)
class FallbackRecord(_RecordCommon):
    station: str
    reason: str

    KIND = "fallback"


LogRecord = Union[EventRecord, FallbackRecord]

_RECORD_TYPES = {cls.KIND: cls for cls in (EventRecord, FallbackRecord)}
_RECORD_FIELDS = {kind: tuple(f.name for f in fields(cls))
                  for kind, cls in _RECORD_TYPES.items()}


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


_ESCAPED = re.compile(r"\\(.)", re.DOTALL)
_UNESCAPED = {"t": "\t", "n": "\n"}


def _unescape(value: str) -> str:
    """Undo _escape; any other escaped character stands for itself, and a
    lone trailing backslash reads back as itself."""
    if "\\" not in value:
        return value
    return _ESCAPED.sub(lambda m: _UNESCAPED.get(m[1], m[1]), value)


def _field_from_text(name: str, text: str):
    if name == "symptoms":
        return parse_symptoms(text)
    if name == "responders":
        return tuple(s for s in text.split(";") if s)
    if name == "payment_collected":
        return text == "true"
    if name == "seat":
        return int(text)
    return text


def record_to_line(record_id: int, record: LogRecord) -> str:
    kind = record.KIND
    parts = [f"id={record_id}", f"kind={kind}"]
    for name in _RECORD_FIELDS[kind]:
        value = getattr(record, name)
        if name == "symptoms":
            text = ",".join(sorted(value))
        elif name == "responders":
            text = ";".join(value)
        elif name == "payment_collected":
            text = "true" if value else "false"
        else:
            text = str(value)
        if "\\" in text or "\t" in text or "\n" in text:
            text = _escape(text)
        parts.append(f"{name}={text}")
    return "\t".join(parts)


# A field's values where they are narrower than text free of tab and newline:
# the seat's int and payment_collected's bool as record_to_line writes them.
_VALUE_SHAPES = {"seat": "-?[0-9]+", "payment_collected": "true|false"}

# The one grammar of a log line: exactly what record_to_line writes, with or
# without its newline, one alternative per record kind; the id is in ASCII
# digits. Group 1 is the id; the matched alternative's groups are its kind
# and then its values in _RECORD_FIELDS order, and the other alternatives'
# groups are None.
_LINE_SHAPE = re.compile("id=([0-9]+)\t(?:%s)\n?" % "|".join(
    "\t".join([f"kind=({kind})"] + [
        f"{name}=(" + _VALUE_SHAPES.get(name, "[^\t\n]*") + ")" for name in names])
    for kind, names in _RECORD_FIELDS.items()))


def _record_of(shape: re.Match) -> tuple[int, LogRecord]:
    """The id and record of a _LINE_SHAPE match."""
    rid, kind, *texts = [g for g in shape.groups() if g is not None]
    return int(rid), _RECORD_TYPES[kind](**{
        name: _field_from_text(name, _unescape(text))
        for name, text in zip(_RECORD_FIELDS[kind], texts)})


def parse_record_line(line: str) -> tuple[int, LogRecord]:
    """The id and record of a line record_to_line wrote, with or without its
    newline; any other line raises FluxError."""
    shape = _LINE_SHAPE.fullmatch(line)
    if shape is None:
        raise FluxError(f"malformed log line: {line!r}")
    return _record_of(shape)


def _whole_lines(fh) -> Iterator[tuple[int, bytes]]:
    """Numbered lines of a log opened in binary.

    A final line without its newline is a write that stopped partway; it is
    skipped, not read.
    """
    for lineno, raw in enumerate(fh, 1):
        if not raw.endswith(b"\n"):
            return
        yield lineno, raw


def _log_shapes(fh, path) -> Iterator[re.Match]:
    """The _LINE_SHAPE match of each whole line of a log opened in binary.

    Blank lines are skipped; any other line that does not match, or is not
    UTF-8, raises FluxError naming the file and line.
    """
    for lineno, raw in _whole_lines(fh):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FluxError(f"event log {path}:{lineno}: {exc}") from None
        shape = _LINE_SHAPE.fullmatch(line)
        if shape is not None:
            yield shape
        elif line.strip():
            raise FluxError(f"event log {path}:{lineno}: malformed log line: {line!r}")


def _next_record_id(fh, path) -> int:
    """One past the largest id of a log opened in binary (1 if it has none)."""
    return max((int(shape[1]) for shape in _log_shapes(fh, path)), default=0) + 1


# Bytes read at a time while looking back for the end of a torn final line.
_TAIL_CHUNK = 1 << 16


def _cut_torn_tail(fd: int) -> None:
    """Truncate the file to its last complete line.

    Only its last byte is read when it ends in a newline; otherwise it is
    read back from the end in chunks of _TAIL_CHUNK up to the last newline.
    """
    end = os.fstat(fd).st_size
    if end == 0 or os.pread(fd, 1, end - 1) == b"\n":
        return
    while end > 0:
        start = max(end - _TAIL_CHUNK, 0)
        newline = os.pread(fd, end - start, start).rfind(b"\n")
        if newline >= 0:
            end = start + newline + 1
            break
        end = start
    os.ftruncate(fd, end)


def _write_all(fd: int, data: bytes) -> None:
    """Write data to fd, continuing after a short write."""
    while data:
        data = data[os.write(fd, data):]


class EventLog:
    """Append-only, single-writer event log with monotonically increasing ids.

    The writer holds an exclusive advisory lock on the log file for its whole
    lifetime; a second writer fails fast with LogLockedError. Readers never
    take the lock. Opening cuts a torn final line (one without its newline,
    left by a write that stopped partway) so the next record starts a line,
    then reads the ids through the locked descriptor, checking every line.
    """

    def __init__(self, path):
        self.path = Path(path)
        # a raw file owns the descriptor and the lock; append writes with os.write
        self._fh = open(self.path, "ab+", buffering=0)
        fd = self._fh.fileno()
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._fh.close()
            raise LogLockedError(
                f"event log {self.path} is held by another writer") from None
        try:
            _cut_torn_tail(fd)
            os.lseek(fd, 0, os.SEEK_SET)
            with open(fd, "rb", closefd=False) as fh:
                self._next_id = _next_record_id(fh, self.path)
        except BaseException:
            self.close()
            raise

    def append(self, record: LogRecord) -> int:
        """Append the record as one UTF-8 line with one O_APPEND write."""
        rid = self._next_id
        data = (record_to_line(rid, record) + "\n").encode("utf-8")
        try:
            _write_all(self._fh.fileno(), data)
        except OSError as exc:
            raise FluxError(f"cannot append to event log {self.path}: {exc}") from exc
        self._next_id += 1
        return rid

    def close(self) -> None:
        if not self._fh.closed:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            self._fh.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_event_log(path) -> list[tuple[int, LogRecord]]:
    """Read a log back into (id, record) pairs; safe while a writer is active."""
    with open(path, "rb") as fh:
        return [_record_of(shape) for shape in _log_shapes(fh, path)]


# ---------------------------------------------------------------------------
# Report-emergency flow
# ---------------------------------------------------------------------------


class OutcomeKind(Enum):
    RESPONDER_ASSIGNED = "responder-assigned"
    FALLBACK_NOTICE = "fallback-notice"


@dataclass(frozen=True)
class EmergencyInfo:
    event_type: EventType
    specialization: Optional[str]
    symptoms: frozenset
    case_history: str


@dataclass(frozen=True)
class ReportOutcome:
    kind: OutcomeKind
    record_id: int
    record: LogRecord
    responders: tuple[Responder, ...] = ()
    trace: Optional[ExecutionTrace] = None


@dataclass
class DispatchContext:
    """Everything the report flow needs; roster/taxonomy snapshots are rebound
    as registrations happen. Time is always injected, never read from the wall."""

    roster: Roster
    taxonomy: TaxonomyGraph
    registry: Registry
    severity_rules: tuple[SeverityRule, ...]
    schedule: tuple[tuple[str, Time], ...]
    log: EventLog
    message_sink: "MessageSink"
    search_config: SearchConfig = SearchConfig()
    # composer.compose's wired workflows by request shape, keyed from the
    # request itself, kept across reports
    plan_memo: dict = field(default_factory=dict)


class MessageSink:
    """Destination for notify messages: in memory, optionally mirrored to a file.

    Single-writer per sink: entries get sequence numbers used as confirmation
    token suffixes.
    """

    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self.entries: list[tuple[str, str, str]] = []

    def append(self, name: str, coach: str, message: str) -> int:
        """Record one message; with a path, append it as one UTF-8 line with
        one O_APPEND write, keeping no handle open."""
        if self.path is not None:
            data = f"{name}\t{coach}\t{message}\n".encode("utf-8")
            try:
                fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                try:
                    _write_all(fd, data)
                finally:
                    os.close(fd)
            except OSError as exc:
                raise FluxError(f"cannot append to message sink {self.path}: {exc}") from exc
        self.entries.append((name, coach, message))
        return len(self.entries)


def build_grounding_env(ranked: tuple[Responder, ...],
                        sink: MessageSink) -> GroundingEnv:
    """Bundled stubs over one report's ranking (nonempty, as trace_resources
    returns it): the lookup names the top-ranked responder and their coach; the
    send appends to the message sink and returns a confirmation token.
    """
    top = ranked[0]

    def message_send(inputs: dict) -> StubResult:
        if not {"P", "CN", "MSG"} <= inputs.keys():
            raise GroundingFailure("message-send needs inputs P, CN and MSG")
        seq = sink.append(inputs["P"], inputs["CN"], inputs["MSG"])
        return StubResult({"ACK": f"msg-{seq}"}, outcome="ConfirmSend")

    return GroundingEnv(stubs={
        "roster-lookup": lambda inputs: StubResult({"P": top.name, "CN": top.coach}),
        "message-send": message_send,
    })


def report_emergency(ctx: DispatchContext, pnr: str, info: EmergencyInfo,
                     now: datetime) -> ReportOutcome:
    """Handle one reported emergency end to end and append exactly one record.

    Registered callers go straight to dispatch; unregistered callers are
    registered with the payment-collected flag set. A Medical event composes
    the findResource/notifyResource workflow, then ranks the responders once
    and executes the workflow with stubs that close over that ranking; the
    record names the ranked responders. When nobody is ranked (or the event
    type has no responder category) no stub runs and a fallback notice naming
    the next station is logged instead. A symptom that is empty or holds a
    comma is rejected: the log joins symptoms with commas, so its record would
    read back as another. So is text UTF-8 cannot encode (a lone surrogate,
    as a non-UTF-8 argv byte arrives) in the case, specialization or a
    symptom. So is a ranked responder whose name or coach holds a semicolon,
    the separator of the responders field, before any message is sent.

    ctx.roster and ctx.taxonomy are rebound only after the record is
    appended: a report that raises leaves them and the log as they were, but
    a message it already sent stays sent.
    """
    symptoms = sorted(info.symptoms)
    for symptom in symptoms:
        if not symptom or "," in symptom:
            raise FluxError(f"symptom {symptom!r} is empty or holds a comma")
    for text in (info.case_history, info.specialization or "", *symptoms):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise FluxError(f"text {text!r} is not valid UTF-8") from None
    roster, taxonomy = ctx.roster, ctx.taxonomy
    p = roster.get(pnr)
    payment_collected = not p.registered_for_service
    if payment_collected:
        roster, taxonomy, p = register_passenger(
            roster, taxonomy, pnr, True, MedicalDetails(illness=info.case_history))

    severity = classify_severity(info.specialization, info.symptoms,
                                 ctx.severity_rules)
    common = dict(
        date=now.date().isoformat(), time=f"{now.hour:02d}:{now.minute:02d}",
        patient_name=p.name, case_history=info.case_history, coach=p.coach,
        seat=p.seat, event_type=info.event_type.value,
        specialization=info.specialization or "-", symptoms=info.symptoms,
        severity=str(severity), payment_collected=payment_collected,
    )

    trace = None
    if info.event_type is EventType.MEDICAL:
        spec_value = info.specialization or "Medical"
        message = (f"{severity.value} {spec_value} emergency coach {p.coach} "
                   f"seat {p.seat}: {info.case_history}")
        request = CompositionRequest(
            have=((PROFESSION_CONCEPT, "doctor"),
                  (SPECIALIZATION_CONCEPT, spec_value),
                  (MESSAGE_CONCEPT, message)),
            want=(CONFIRM_CONCEPT,),
            world_facts=(Compound("availableRole",
                                  (Constant("doctor"), Constant(spec_value))),),
        )
        workflow = compose(request, ctx.registry, taxonomy, ctx.search_config,
                           ctx.plan_memo)
        try:
            ranked = trace_resources(roster, info.event_type, p.coach,
                                     info.specialization, p.name)
        except FallbackRequired as exc:
            reason = str(exc)
        else:
            responders = tuple([f"{r.name}@{r.coach}" for r in ranked])
            for responder in responders:
                if ";" in responder:
                    raise FluxError(f"responder {responder!r} holds a semicolon")
            env = build_grounding_env(ranked, ctx.message_sink)
            trace = execute(workflow, env, ctx.registry)
    else:
        reason = "no responder category for event type " + info.event_type.value

    if trace is None:
        kind, ranked = OutcomeKind.FALLBACK_NOTICE, ()
        record = FallbackRecord(**common, delivery_personnel="-",
                                station=next_station(ctx.schedule, now.time()),
                                reason=reason)
    else:
        kind = OutcomeKind.RESPONDER_ASSIGNED
        confirmation = trace.records[-1].outcome if trace.records else "ok"
        record = EventRecord(
            **common, delivery_personnel=ranked[0].name, responders=responders,
            confirmation=trace.resolved_values().get("ACK", confirmation),
        )
    rid = ctx.log.append(record)
    ctx.roster, ctx.taxonomy = roster, taxonomy
    return ReportOutcome(kind, rid, record, responders=ranked, trace=trace)


# ---------------------------------------------------------------------------
# Scripted scenario replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScriptStep:
    lineno: int
    command: str
    summary: str
    outcome: Optional[ReportOutcome] = None


def run_script(ctx: DispatchContext, script: str,
               source_name: str = "<script>") -> list[ScriptStep]:
    """Replay a scenario script of validate/report commands against a context.

    Lines are shell-like words: a command followed by key=value pairs. Blank
    lines and lines starting with `#` are skipped; any other `#` is text.
    """
    steps: list[ScriptStep] = []

    def bad(lineno: int, message: str) -> LoadError:
        return LoadError([(lineno, message)], source_name)

    def need(kv: dict, lineno: int, *keys: str) -> None:
        for key in keys:
            if key not in kv:
                raise bad(lineno, f"missing {key}=...")

    for lineno, line in numbered_lines(script, False)[0]:
        if line.startswith("#"):
            continue
        try:
            words = shlex.split(line)
        except ValueError as exc:
            raise bad(lineno, f"{exc}: {line!r}") from None
        command = words[0]
        if any("=" not in w for w in words[1:]):
            raise bad(lineno, f"expected key=value arguments, found {line!r}")
        kv = dict(w.split("=", 1) for w in words[1:])
        if command == "validate":
            need(kv, lineno, "pnr", "origin", "destination", "date")
            try:
                journey = Date.fromisoformat(kv["date"])
            except ValueError:
                raise bad(lineno, f"bad date {kv['date']!r}") from None
            ctx.roster, p = validate_travel_plan(
                ctx.roster, kv["pnr"], kv["origin"], kv["destination"], journey)
            steps.append(ScriptStep(lineno, command,
                                    f"validated {p.pnr} ({p.name})"))
        elif command == "report":
            need(kv, lineno, "pnr", "now")
            try:
                now = datetime.fromisoformat(kv["now"])
                event_type = EventType(kv.get("type", "Medical"))
            except ValueError as exc:
                raise bad(lineno, str(exc)) from None
            info = EmergencyInfo(
                event_type=event_type,
                specialization=kv.get("spec"),
                symptoms=parse_symptoms(kv.get("symptoms", "")),
                case_history=kv.get("case", ""),
            )
            outcome = report_emergency(ctx, kv["pnr"], info, now=now)
            steps.append(ScriptStep(
                lineno, command,
                f"record {outcome.record_id}: {outcome.kind.value}", outcome))
        else:
            raise bad(lineno, f"unknown script command {command!r}")
    return steps

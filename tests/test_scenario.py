"""Roster handling, responder ranking, the report flow, and the event log."""

import csv
import random
from dataclasses import fields, replace
from datetime import date as Date, datetime, time as Time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import randgen
from fluxcompose import scenario
from fluxcompose.ontology import Severity
from fluxcompose.scenario import (
    EmergencyEvent,
    EmergencyInfo,
    EventLog,
    EventRecord,
    EventType,
    FallbackRecord,
    FallbackRequired,
    LoadError,
    LogLockedError,
    NotRegisteredError,
    OutcomeKind,
    Passenger,
    Role,
    Roster,
    TravelPlan,
    UnknownPassengerError,
    ValidationMismatch,
    load_roster,
    load_schedule,
    next_station,
    parse_record_line,
    read_event_log,
    record_to_line,
    register_passenger,
    report_emergency,
    trace_resources,
    validate_travel_plan,
)

HEADER = ("#coach-order: S1,S2,S3\n" + scenario.ROSTER_HEADER + "\n")


def medical_event(coach="S2", spec="Orthopedics", patient_name="", etype=EventType.MEDICAL):
    return EmergencyEvent(
        date="2011-11-05", time="10:00", patient_name=patient_name,
        case_history="case", coach=coach, seat=1, delivery_personnel=None,
        event_type=etype, specialization=spec, symptoms=frozenset(),
        severity=Severity.EMERGENCY)


def passenger(pnr, name, coach, role=Role.DELIVERY_PERSONNEL, profession="doctor",
              specialization="Orthopedics", registered=True, validated=True):
    return Passenger(
        pnr=pnr, name=name, coach=coach, seat=1, role=role, profession=profession,
        specialization=specialization, registered_for_service=registered,
        illness=None, medication=None, medicine_in_hand=None,
        travel=TravelPlan("A", "B", Date(2011, 11, 5), validated=validated))


# ---------------------------------------------------------------------------
# roster loading
# ---------------------------------------------------------------------------


def test_load_roster_three_rows():
    src = HEADER + (
        "P1,Asha,S1,1,Patient,,,yes,,,,A,B,2011-11-05\n"
        "P2,Binu,S2,2,DeliveryPersonnel,doctor,Orthopedics,yes,,,,A,B,2011-11-05\n"
        "P3,Chitra,S3,3,,,,no,,,,A,B,2011-11-05\n")
    roster = load_roster(src)
    assert len(roster.passengers) == 3
    assert roster.get("P2").profession == "doctor"
    assert roster.get("P3").role is Role.NONE
    assert roster.coach_order == ("S1", "S2", "S3")


def test_load_roster_delivery_personnel_needs_profession():
    src = HEADER + "P1,Asha,S1,1,DeliveryPersonnel,,,yes,,,,A,B,2011-11-05\n"
    with pytest.raises(LoadError) as exc:
        load_roster(src)
    assert "profession" in str(exc.value)


def test_load_roster_duplicate_pnr():
    src = HEADER + ("P1,Asha,S1,1,Patient,,,yes,,,,A,B,2011-11-05\n"
                    "P1,Binu,S2,2,Patient,,,yes,,,,A,B,2011-11-05\n")
    with pytest.raises(LoadError) as exc:
        load_roster(src)
    assert any("duplicate pnr" in msg for _, msg in exc.value.errors)


def test_load_roster_unknown_coach_and_row_numbers():
    src = HEADER + ("P1,Asha,S9,1,Patient,,,yes,,,,A,B,2011-11-05\n"
                    "P2,Binu,S2,x,Patient,,,yes,,,,A,B,2011-11-05\n")
    with pytest.raises(LoadError) as exc:
        load_roster(src)
    lines = [line for line, _ in exc.value.errors]
    assert lines == [3, 4]


def test_load_roster_same_origin_destination():
    src = HEADER + "P1,Asha,S1,1,Patient,,,yes,,,,A,A,2011-11-05\n"
    with pytest.raises(LoadError):
        load_roster(src)


def test_load_roster_travel_plans_follow_each_row():
    src = HEADER + ("P1,Asha,S1,1,Patient,,,yes,,,,A,B,2011-11-05\n"
                    "P2,Binu,S2,2,Patient,,,yes,,,,A,B,2011-11-06\n"
                    "P3,Chitra,S3,3,Patient,,,yes,,,,A,C,2011-11-05\n"
                    "P4,Devi,S3,4,Patient,,,yes,,,,A,B,2011-11-05\n")
    roster = load_roster(src)
    assert [(p.travel.destination, p.travel.journey_date.day)
            for p in roster.passengers] == [("B", 5), ("B", 6), ("C", 5), ("B", 5)]


def test_load_roster_nul_in_a_quoted_cell_is_a_row_error():
    # csv refuses a NUL on Python 3.10 and passes it on from 3.11; the row is
    # rejected with one message either way
    src = HEADER + ('P1,"As\0ha",S1,1,Patient,,,yes,,,,A,B,2011-11-05\n'
                    'P2,Binu,S2,2,Patient,,,yes,,,,A,B,2011-11-05\n')
    with pytest.raises(LoadError) as exc:
        load_roster(src)
    assert exc.value.errors == [(3, "bad row: line contains NUL")]


def test_load_roster_nul_in_an_unquoted_cell_is_a_row_error():
    # an illness cell takes any text, so only the NUL rule rejects this row
    src = HEADER + "P1,Asha,S1,1,Patient,,,yes,asth\0ma,,,A,B,2011-11-05\n"
    with pytest.raises(LoadError) as exc:
        load_roster(src)
    assert exc.value.errors == [(3, "bad row: line contains NUL")]


def test_load_roster_field_over_the_csv_limit_is_a_row_error():
    long_cell = "x" * (csv.field_size_limit() + 1)
    src = HEADER + f"P1,Asha,S1,1,Patient,,,yes,{long_cell},,,A,B,2011-11-05\n"
    with pytest.raises(LoadError) as exc:
        load_roster(src)
    assert exc.value.errors == [(3, "bad row: field larger than field limit "
                                    f"({csv.field_size_limit()})")]


# (valid cells, invalid cells) per roster column. An invalid cell makes its
# row an error; so can valid cells together: a duplicate pnr, delivery
# personnel without a profession, or equal origin and destination.
ROSTER_CELLS = (
    (tuple(f"P{i}" for i in range(1, 13)), ("",)),
    (("Asha", "Zoë", "O'Neil", "Ravi K.", "Ana-Maria", "李雷", "Asha, Jr.", "-. '"),
     ("", "Bad;Name", "x\0y", "Tab\tbed")),
    (("S1", "S2", "S3"), ("S9", "s1")),
    (("1", "42", "٣"), ("x", "", "4.5")),
    (("", "Patient", "None", "DeliveryPersonnel"), ("Doctor", "patient")),
    (("doctor", "nurse"), ("",)),
    (("", "Orthopedics"), ()),
    (("yes", "no"), ("YES", "")),
    (("", "asthma", "café", "", "flu", "a,b", 'say "hi"'), ("x\0",)),
    (("", "insulin"), ()),
    (("", "inhaler"), ()),
    (("A", "Agra"), ("",)),
    (("B", "Bhopal"), ("A",)),
    (("2011-11-05", "2012-02-29"), ("2011-02-30", "11/05/2011", "")),
)


@st.composite
def roster_rows(draw):
    bad = draw(st.sampled_from([None] * 56 + list(range(len(ROSTER_CELLS)))))
    cells = [draw(st.sampled_from(bad_values if i == bad and bad_values else good))
             for i, (good, bad_values) in enumerate(ROSTER_CELLS)]
    width = draw(st.sampled_from([14] * 28 + [13, 15]))
    cells = (cells + ["extra"])[:width]
    forms = st.sampled_from(["plain", "plain", "plain", "quoted", "padded"])
    out = []
    for cell in cells:
        form = draw(forms)
        if form == "quoted":
            cell = '"' + cell.replace('"', '""') + '"'
        elif form == "padded":
            cell = f" {cell}\t"
        out.append(cell)
    return ",".join(out)


@st.composite
def roster_sources(draw):
    lines = [draw(st.sampled_from(["#coach-order: S1,S2,S3",
                                   "#coach-order:  S1 , S2,,S3 "] * 3
                                  + ["#coach-order: S2"]))]
    lines.append(draw(st.sampled_from([scenario.ROSTER_HEADER] * 12
                                      + ["", "pnr,name", "# no header"])))
    for _ in range(draw(st.integers(0, 8))):
        lines.append(draw(st.one_of(roster_rows(), roster_rows(), roster_rows(),
                                    st.sampled_from(["", "   ", "# comment"]))))
    return "\n".join(lines) + "\n"


def _roster_or_errors(load, src):
    try:
        return load(src, "r.csv")
    except LoadError as exc:
        return exc.errors


@given(roster_sources())
@settings(max_examples=300, deadline=None)
def test_load_roster_matches_the_csv_oracle(src):
    assert _roster_or_errors(load_roster, src) == \
        _roster_or_errors(oracles.csv_load_roster, src)


def test_bundled_roster(roster):
    assert len(roster.passengers) == 5
    assert roster.get("P001").specialization == "Orthopedics"


# ---------------------------------------------------------------------------
# registration and validation
# ---------------------------------------------------------------------------


def test_register_passenger_opt_in(roster, taxonomy):
    details = scenario.MedicalDetails(illness="diabetes", medication="insulin")
    updated, graph, p = register_passenger(roster, taxonomy, "P004", True, details)
    assert p.registered_for_service and p.illness == "diabetes"
    assert graph.individuals["P004"] == "PatientPopulation"
    assert updated.get("P004").registered_for_service
    # original snapshots untouched
    assert not roster.get("P004").registered_for_service
    assert "P004" not in taxonomy.individuals


def test_register_delivery_personnel_concept(roster, taxonomy):
    _, graph, _ = register_passenger(
        roster, taxonomy, "P001", True, scenario.MedicalDetails())
    assert graph.individuals["P001"] == "DeliveryPersonnel"


def test_register_passenger_opt_out(roster, taxonomy):
    updated, graph, p = register_passenger(
        roster, taxonomy, "P004", False, scenario.MedicalDetails())
    assert not p.registered_for_service
    assert "no medical Service" in p.flags
    assert "P004" not in graph.individuals


def test_register_unknown_passenger(roster, taxonomy):
    with pytest.raises(UnknownPassengerError):
        register_passenger(roster, taxonomy, "P999", True, scenario.MedicalDetails())


def test_validate_travel_plan_matches(roster):
    updated, p = validate_travel_plan(roster, "P001", "Chennai", "Delhi",
                                      Date(2011, 11, 5))
    assert p.travel.validated
    assert not roster.get("P001").travel.validated


def test_validate_travel_plan_mismatch_names_field(roster):
    with pytest.raises(ValidationMismatch) as exc:
        validate_travel_plan(roster, "P001", "Chennai", "Delhi", Date(2011, 11, 6))
    assert exc.value.field == "journeyDate"
    with pytest.raises(ValidationMismatch) as exc:
        validate_travel_plan(roster, "P001", "Madurai", "Delhi", Date(2011, 11, 5))
    assert exc.value.field == "origin"


def test_validate_travel_plan_requires_registration(roster):
    with pytest.raises(NotRegisteredError):
        validate_travel_plan(roster, "P004", "Chennai", "Delhi", Date(2011, 11, 5))


# ---------------------------------------------------------------------------
# responder tracing
# ---------------------------------------------------------------------------


def test_trace_resources_tier_then_distance():
    # patient in S5: specialist in S7 outranks nearer non-specialists
    roster = Roster((
        passenger("P1", "OrthoDoc", "S7", specialization="Orthopedics"),
        passenger("P2", "CardioDoc", "S4", specialization="Cardiology"),
        passenger("P3", "Nurse", "S5", profession="nurse", specialization=None),
    ), tuple(f"S{i}" for i in range(1, 9)))
    got = trace_resources(roster, medical_event(coach="S5"))
    assert [(r.name, r.distance) for r in got] == [
        ("OrthoDoc", 2), ("CardioDoc", 1), ("Nurse", 0)]


def test_trace_resources_empty_is_fallback():
    roster = Roster((passenger("P1", "Cook", "S1", profession="cook"),),
                    ("S1", "S2"))
    with pytest.raises(FallbackRequired):
        trace_resources(roster, medical_event(coach="S1"))


def test_trace_resources_single_responder():
    roster = Roster((passenger("P1", "OrthoDoc", "S3"),), ("S1", "S2", "S3"))
    got = trace_resources(roster, medical_event(coach="S1"))
    assert [(r.name, r.distance) for r in got] == [("OrthoDoc", 2)]


def test_trace_resources_gates_on_registration_and_validation():
    roster = Roster((
        passenger("P1", "Unregistered", "S1", registered=False),
        passenger("P2", "Unvalidated", "S1", validated=False),
        passenger("P3", "Good", "S3"),
    ), ("S1", "S2", "S3"))
    got = trace_resources(roster, medical_event(coach="S1"))
    assert [r.name for r in got] == ["Good"]


def test_trace_resources_excludes_the_patient():
    roster = Roster((passenger("P1", "OnlyDoc", "S1"),), ("S1",))
    with pytest.raises(FallbackRequired):
        trace_resources(roster, medical_event(coach="S1", patient_name="OnlyDoc"))


def test_trace_resources_robbery_has_no_category():
    roster = Roster((passenger("P1", "Doc", "S1"),), ("S1",))
    with pytest.raises(FallbackRequired):
        trace_resources(roster, medical_event(etype=EventType.ROBBERY, coach="S1"))


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_trace_resources_matches_comparator_oracle(seed):
    rng = random.Random(seed)
    roster = randgen.random_roster(rng, max_passengers=60, max_coaches=10)
    event = medical_event(
        coach=rng.choice(roster.coach_order),
        spec=rng.choice(("Orthopedics", "Cardiology", None)),
        patient_name=rng.choice(roster.passengers).name if rng.random() < 0.5 else "")
    expected = oracles.rank_responders(roster, event)
    if not expected:
        with pytest.raises(FallbackRequired):
            trace_resources(roster, event)
        return
    got = trace_resources(roster, event)
    assert [(r.name, r.coach, r.distance) for r in got] == expected
    for r in got:
        p = roster.get([q.pnr for q in roster.passengers if q.name == r.name][0])
        assert p.registered_for_service and p.travel.validated


def test_roster_with_duplicate_pnrs_keeps_the_first():
    # load_roster rejects duplicates; a roster built directly looks up and
    # updates only the first passenger with a pnr
    first, second = passenger("P1", "First", "S1"), passenger("P1", "Second", "S2")
    roster = Roster((first, second), ("S1", "S2"))
    assert roster.get("P1") == first
    updated = replace(first, name="Updated")
    assert roster.with_passenger(updated).passengers == (updated, second)
    assert roster.with_passenger(passenger("P9", "Nobody", "S1")) == roster


def test_roster_is_immutable():
    roster = Roster((passenger("P1", "Doc", "S1"),), ("S1",))
    with pytest.raises(AttributeError):
        roster.coach_order = ("S2",)
    assert roster.coach_order == ("S1",)


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_roster_index_follows_updates(taxonomy, seed):
    # updated rosters share their parent's index and blocks; after every
    # update, lookups and ranking must agree with scans of the passengers.
    # Rosters of up to 300 span several storage blocks.
    rng = random.Random(seed)
    roster = randgen.random_roster(rng, max_passengers=300, max_coaches=8)
    model = list(roster.passengers)
    graph = taxonomy
    steps = ["validate", "register"] * 6
    steps.insert(rng.randrange(len(steps) + 1), "role")
    for step in steps:
        i = rng.randrange(len(model))
        pnr = model[i].pnr
        if step == "validate":
            try:
                roster, updated = validate_travel_plan(
                    roster, pnr, "A", "B", Date(2011, 11, 5))
            except NotRegisteredError:
                assert not model[i].registered_for_service
                continue
        elif step == "register":
            roster, graph, updated = register_passenger(
                roster, graph, pnr, rng.random() < 0.7, scenario.MedicalDetails())
        elif model[i].role is Role.DELIVERY_PERSONNEL:
            updated = replace(model[i], role=Role.NONE)
            roster = roster.with_passenger(updated)
        else:
            updated = replace(model[i], role=Role.DELIVERY_PERSONNEL, profession="doctor",
                              registered_for_service=True,
                              travel=replace(model[i].travel, validated=True))
            roster = roster.with_passenger(updated)
        model[i] = updated
        fresh = Roster(tuple(model), roster.coach_order)
        assert roster == fresh and hash(roster) == hash(fresh)
        first = {}
        for q in roster.passengers:
            first.setdefault(q.pnr, q)
        for p in model:
            assert roster.get(p.pnr) == first[p.pnr]
        with pytest.raises(UnknownPassengerError):
            roster.get("NOPE")
        event = medical_event(
            coach=rng.choice(roster.coach_order),
            spec=rng.choice(("Orthopedics", "Cardiology", None)),
            patient_name=rng.choice(model).name if rng.random() < 0.3 else "")
        expected = oracles.rank_responders(roster, event)
        try:
            got = trace_resources(roster, event)
        except FallbackRequired:
            assert expected == []
        else:
            assert [(r.name, r.coach, r.distance) for r in got] == expected


# ---------------------------------------------------------------------------
# schedule and fallback
# ---------------------------------------------------------------------------


def test_next_station_scan(schedule):
    assert next_station(schedule, Time(9, 0)) == "Vijayawada"
    assert next_station(schedule, Time(5, 0)) == "Chennai"
    assert next_station(schedule, Time(23, 59)) == "Delhi"


def test_load_schedule_rejects_non_increasing():
    with pytest.raises(LoadError):
        load_schedule("station A @ 10:00\nstation B @ 09:00\n")
    with pytest.raises(LoadError):
        load_schedule("station A 10:00\n")


def test_load_schedule_rejects_no_stations():
    for source in ("", "# comment only\n\n"):
        with pytest.raises(LoadError) as exc:
            load_schedule(source, "empty.schedule")
        assert str(exc.value).startswith("empty.schedule:")
        assert "expected at least one station" in str(exc.value)


def test_fallback_station_notice_fields(schedule):
    event = medical_event(coach="S2", patient_name="Arjun")
    notice = scenario.fallback_station_notice(
        event, schedule, datetime(2011, 11, 5, 16, 10))
    assert notice.station == "Nagpur"
    assert notice.delivery_personnel == "-"
    assert notice.patient_name == "Arjun"


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------


def sample_event_record(**overrides):
    base = dict(
        date="2011-11-05", time="09:20", patient_name="Arjun",
        case_history="fell from berth", coach="S5", seat=21,
        delivery_personnel="Ravi", event_type="Medical",
        specialization="Orthopedics", symptoms=frozenset({"pain", "fracture"}),
        severity="Emergency", payment_collected=False,
        responders=("Ravi@S7", "Meena@S4"), confirmation="msg-1")
    base.update(overrides)
    return EventRecord(**base)


def test_record_line_round_trip():
    rec = sample_event_record()
    rid, back = parse_record_line(record_to_line(7, rec))
    assert rid == 7 and back == rec


def test_record_round_trip_with_escapes():
    rec = sample_event_record(case_history="fell\tdown\nhard\\ly")
    _, back = parse_record_line(record_to_line(1, rec))
    assert back.case_history == "fell\tdown\nhard\\ly"


@given(st.one_of(st.text(alphabet="\\tn\t\nx"), st.text()))
def test_unescape_matches_the_character_walk(value):
    assert scenario._unescape(value) == oracles.walk_unescape(value)
    assert scenario._unescape(scenario._escape(value)) == value


def test_unescape_keeps_a_lone_trailing_backslash():
    assert scenario._unescape("ab\\") == "ab\\"
    assert scenario._unescape("a\\\\\\") == "a\\\\"


def test_fallback_record_round_trip(schedule):
    notice = scenario.fallback_station_notice(
        medical_event(), schedule, datetime(2011, 11, 5, 7, 0))
    rid, back = parse_record_line(record_to_line(2, notice))
    assert rid == 2 and back == notice and isinstance(back, FallbackRecord)


def test_event_log_append_and_read_back(tmp_path):
    path = tmp_path / "events.log"
    with EventLog(path) as log:
        assert log.append(sample_event_record()) == 1
        assert log.append(sample_event_record(patient_name="Binu")) == 2
    got = read_event_log(path)
    assert [rid for rid, _ in got] == [1, 2]
    assert got[1][1].patient_name == "Binu"


def test_event_log_round_trips_a_negative_seat(tmp_path):
    path = tmp_path / "events.log"
    rec = sample_event_record(seat=-4)
    with EventLog(path) as log:
        assert log.append(rec) == 1
    with EventLog(path) as log:
        assert log.append(rec) == 2
    assert read_event_log(path) == [(1, rec), (2, rec)]


def test_event_log_ids_continue_after_reopen(tmp_path):
    path = tmp_path / "events.log"
    with EventLog(path) as log:
        log.append(sample_event_record())
    with EventLog(path) as log:
        assert log.append(sample_event_record()) == 2


def test_event_log_second_writer_rejected(tmp_path):
    path = tmp_path / "events.log"
    with EventLog(path):
        with pytest.raises(LogLockedError):
            EventLog(path)
    # lock released on close; a new writer may take over
    with EventLog(path) as log:
        log.append(sample_event_record())


def test_event_log_readable_while_locked(tmp_path):
    path = tmp_path / "events.log"
    with EventLog(path) as log:
        log.append(sample_event_record())
        assert len(read_event_log(path)) == 1


@pytest.mark.parametrize("bad", [
    "kind=event\tid=3\tdate=2011",
    record_to_line(1, sample_event_record()).replace("id=1", "id=one"),
    record_to_line(1, sample_event_record()).replace("seat=21", "seat="),
    "kind=memo\tid=2",
    # every field of a record is there, but not as record_to_line writes it
    record_to_line(1, sample_event_record()).replace(
        "date=2011-11-05\ttime=09:20", "time=09:20\tdate=2011-11-05"),
    record_to_line(1, sample_event_record()) + "\textra=1",
    record_to_line(3, sample_event_record()).replace("id=3", "id=\u0663"),
    record_to_line(1, sample_event_record()).replace("seat=21", "seat=+3"),
    record_to_line(1, sample_event_record()).replace("payment_collected=false",
                                                     "payment_collected=no"),
])
def test_malformed_log_line_names_file_and_line(tmp_path, bad):
    path = tmp_path / "events.log"
    path.write_text(record_to_line(1, sample_event_record()) + "\n\n" + bad + "\n",
                    encoding="utf-8")
    for open_log in (read_event_log, EventLog):
        with pytest.raises(scenario.FluxError) as exc:
            open_log(path)
        assert f"{path}:3: malformed log line" in str(exc.value)
    path.write_text(record_to_line(1, sample_event_record()) + "\n", encoding="utf-8")
    with EventLog(path) as log:  # a failed open released the writer lock
        assert log.append(sample_event_record()) == 2


LOG_TEXT = st.text(alphabet="ab =\\\t\né", max_size=6)


@st.composite
def log_lines(draw):
    """A line record_to_line writes, then maybe one mutation of it, as bytes."""
    rec = sample_event_record(patient_name=draw(LOG_TEXT), case_history=draw(LOG_TEXT),
                              seat=draw(st.integers(-3, 99)))
    if draw(st.booleans()):
        rec = FallbackRecord(**{f.name: getattr(rec, f.name)
                                for f in fields(scenario._RecordCommon)},
                             station=draw(LOG_TEXT), reason="none")
    parts = record_to_line(draw(st.integers(0, 10**6)), rec).split("\t")
    i = draw(st.integers(0, len(parts) - 1))
    mutation = draw(st.sampled_from([None, None, "reorder", "duplicate", "equals",
                                     "digits", "blank", "kind", "missing", "bytes"]))
    if mutation == "reorder":
        parts = draw(st.permutations(parts))
    elif mutation == "duplicate":
        key = draw(st.sampled_from(["id", "kind", "seat", parts[i].split("=")[0]]))
        parts.insert(draw(st.integers(0, len(parts))), key + "=7")
    elif mutation == "equals":
        parts[i] += "=1"
    elif mutation == "digits":
        digits = draw(st.sampled_from(["٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９"]))
        j = 0 if draw(st.booleans()) else [p.split("=")[0] for p in parts].index("seat")
        parts[j] = parts[j].translate(str.maketrans("0123456789", digits))
    elif mutation == "blank":
        parts = [draw(st.sampled_from(["", " ", "\t", "\r", "\x1c", "\u3000"]))]
    elif mutation == "kind":
        parts[1] = "kind=memo"
    elif mutation == "missing":
        del parts[i]
    line = "\t".join(parts).encode("utf-8")
    if mutation == "bytes":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + line[at:]
    return line + b"\n"


@given(st.lists(log_lines(), max_size=6), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_event_log_open_agrees_with_the_full_parse(tmp_path_factory, lines, torn):
    # the writer's next id is one past the largest id read_event_log returns,
    # and a log read_event_log rejects fails to open with the same message
    data = b"".join(lines)
    data = data[:len(data) - torn] if torn < len(data) else data
    path = tmp_path_factory.mktemp("logs") / "events.log"
    path.write_bytes(data)
    try:
        expected = max([1] + [rid + 1 for rid, _ in read_event_log(path)])
    except scenario.FluxError as exc:
        with pytest.raises(scenario.FluxError) as got:
            EventLog(path)
        assert str(got.value) == str(exc)
    else:
        with EventLog(path) as log:
            assert log.append(sample_event_record()) == expected


@pytest.mark.parametrize("before", [0, 2])
@pytest.mark.parametrize("torn", [1, scenario._TAIL_CHUNK - 1, scenario._TAIL_CHUNK,
                                  scenario._TAIL_CHUNK + 1, 3 * scenario._TAIL_CHUNK + 5])
def test_event_log_cuts_a_torn_line_longer_than_a_chunk(tmp_path, before, torn):
    whole = b"".join((record_to_line(i, sample_event_record()) + "\n").encode("utf-8")
                     for i in range(1, before + 1))
    path = tmp_path / "events.log"
    path.write_bytes(whole + b"x" * torn)
    with EventLog(path) as log:
        assert path.read_bytes() == whole
        assert log.append(sample_event_record()) == before + 1


def test_event_log_cut_at_every_byte_keeps_whole_records(tmp_path, schedule):
    # a final line without its newline is a torn write: readers skip it and a
    # writer cuts it off before its first append
    records = [sample_event_record(patient_name="Zoë"),
               scenario.fallback_station_notice(medical_event(), schedule,
                                                datetime(2011, 11, 5, 7, 0))]
    lines = [(record_to_line(i, r) + "\n").encode("utf-8")
             for i, r in enumerate(records, 1)]
    data = b"".join(lines)
    path = tmp_path / "events.log"
    for cut in range(len(data) + 1):
        whole = [(i, r) for i, r in enumerate(records, 1)
                 if len(b"".join(lines[:i])) <= cut]
        path.write_bytes(data[:cut])
        assert read_event_log(path) == whole, cut
        with EventLog(path) as log:
            assert log.append(records[0]) == len(whole) + 1
        after = whole + [(len(whole) + 1, records[0])]
        assert read_event_log(path) == after, cut
        with EventLog(path) as log:
            assert log.append(records[1]) == len(after) + 1


# ---------------------------------------------------------------------------
# report_emergency
# ---------------------------------------------------------------------------


def info(etype=EventType.MEDICAL, spec="Orthopedics", symptoms=("fracture",),
         case="fell from berth"):
    return EmergencyInfo(event_type=etype, specialization=spec,
                         symptoms=frozenset(symptoms), case_history=case)


NOW = datetime(2011, 11, 5, 9, 20)


def test_report_registered_patient_assigns_responder(dispatch_context):
    outcome = report_emergency(dispatch_context, "P003", info(), NOW)
    assert outcome.kind is OutcomeKind.RESPONDER_ASSIGNED
    rec = outcome.record
    assert rec.severity == "Emergency" and rec.delivery_personnel == "Ravi"
    assert rec.patient_name == "Arjun" and rec.coach == "S5" and rec.seat == 21
    assert not rec.payment_collected
    assert rec.confirmation == "msg-1"
    assert [r.outcome for r in outcome.trace.records] == ["ok", "ConfirmSend"]
    assert dispatch_context.message_sink.entries[0][0] == "Ravi"
    logged = read_event_log(dispatch_context.log.path)
    assert len(logged) == 1 and logged[0][1] == rec


def test_report_unregistered_caller_pays_then_proceeds(dispatch_context):
    outcome = report_emergency(dispatch_context, "P004",
                               info(symptoms=("pain", "swelling")), NOW)
    assert outcome.kind is OutcomeKind.RESPONDER_ASSIGNED
    assert outcome.record.payment_collected
    assert outcome.record.severity == "Major"
    assert dispatch_context.roster.get("P004").registered_for_service
    assert dispatch_context.taxonomy.individuals["P004"] == "PatientPopulation"


def test_report_no_responder_falls_back_to_station(dispatch_context):
    # the only validated responder is the patient himself
    outcome = report_emergency(dispatch_context, "P001", info(),
                               datetime(2011, 11, 5, 16, 10))
    assert outcome.kind is OutcomeKind.FALLBACK_NOTICE
    assert outcome.record.station == "Nagpur"
    assert outcome.record.reason == "no matching resource"


def test_report_robbery_routes_to_fallback(dispatch_context):
    outcome = report_emergency(dispatch_context, "P003",
                               info(etype=EventType.ROBBERY, spec=None,
                                    symptoms=()), NOW)
    assert outcome.kind is OutcomeKind.FALLBACK_NOTICE
    assert "Robbery" in outcome.record.reason
    assert outcome.record.event_type == "Robbery"


def test_report_unknown_pnr(dispatch_context):
    with pytest.raises(UnknownPassengerError):
        report_emergency(dispatch_context, "P999", info(), NOW)


def test_report_needs_a_time_source(dispatch_context):
    with pytest.raises(scenario.FluxError):
        report_emergency(dispatch_context, "P003", info())


@pytest.mark.parametrize("symptoms", [("",), ("chest pain, mild",), ("pain", ",")])
def test_report_rejects_a_symptom_that_would_not_read_back(dispatch_context, symptoms):
    # P004 is unregistered: a rejected report must not register him either
    ctx = dispatch_context
    roster, taxonomy = ctx.roster, ctx.taxonomy
    before = ctx.log.path.read_bytes()
    with pytest.raises(scenario.FluxError, match="empty or holds a comma"):
        report_emergency(ctx, "P004", info(symptoms=symptoms), NOW)
    assert ctx.roster is roster and ctx.taxonomy is taxonomy
    assert not ctx.roster.get("P004").registered_for_service
    assert ctx.log.path.read_bytes() == before
    assert ctx.message_sink.entries == []


def test_report_always_appends_exactly_one_record(dispatch_context):
    report_emergency(dispatch_context, "P003", info(), NOW)
    report_emergency(dispatch_context, "P001", info(), NOW)  # fallback
    report_emergency(dispatch_context, "P004", info(), NOW)  # payment flow
    logged = read_event_log(dispatch_context.log.path)
    assert [rid for rid, _ in logged] == [1, 2, 3]


@given(st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_report_trichotomy_on_random_rosters(taxonomy, service_registry,
                                             severity_rules, schedule,
                                             tmp_path_factory, seed):
    # every report ends in a responder record, a fallback record, or an error;
    # exactly one log line either way
    rng = random.Random(seed)
    roster = randgen.random_roster(rng, max_passengers=40, max_coaches=8)
    log_path = tmp_path_factory.mktemp("logs") / f"r{seed}.log"
    with EventLog(log_path) as log:
        ctx = scenario.DispatchContext(
            roster=roster, taxonomy=taxonomy, registry=service_registry,
            severity_rules=severity_rules, schedule=schedule, log=log,
            message_sink=scenario.MessageSink())
        pnr = rng.choice(roster.passengers).pnr if rng.random() < 0.9 else "NOPE"
        spec = rng.choice(("Orthopedics", "Cardiology", None))
        etype = EventType.MEDICAL if rng.random() < 0.8 else EventType.ROBBERY
        try:
            outcome = report_emergency(
                ctx, pnr, info(etype=etype, spec=spec), NOW)
        except UnknownPassengerError:
            assert pnr == "NOPE"
            assert read_event_log(log_path) == []
            return
    assert outcome.kind in (OutcomeKind.RESPONDER_ASSIGNED,
                            OutcomeKind.FALLBACK_NOTICE)
    logged = read_event_log(log_path)
    assert len(logged) == 1 and logged[0][1] == outcome.record


# ---------------------------------------------------------------------------
# scripted replay
# ---------------------------------------------------------------------------


def test_run_script_bundled(dispatch_context):
    from fluxcompose.cli import data_path
    # the bundled script starts from an unvalidated roster
    dispatch_context.roster = load_roster(data_path("roster.csv").read_text())
    steps = scenario.run_script(dispatch_context,
                                data_path("emergency.scn").read_text())
    kinds = [s.outcome.kind for s in steps if s.outcome is not None]
    assert kinds == [OutcomeKind.RESPONDER_ASSIGNED, OutcomeKind.RESPONDER_ASSIGNED,
                     OutcomeKind.FALLBACK_NOTICE]


def test_run_script_rejects_unknown_command(dispatch_context):
    with pytest.raises(LoadError):
        scenario.run_script(dispatch_context, "explode pnr=P1\n")


def test_run_script_unbalanced_quote_names_file_and_line(dispatch_context):
    script = "# comment\nreport pnr=P003 case='fell now=2011-11-05T09:20\n"
    with pytest.raises(LoadError) as exc:
        scenario.run_script(dispatch_context, script, "bad.scn")
    assert exc.value.errors[0][0] == 2
    assert str(exc.value).startswith("bad.scn:2: No closing quotation")

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts. Counts and time bounds are pinned
here, not configurable.
"""

import random
import time
from contextlib import contextmanager
from datetime import time as Time

import pytest

import oracles
import randgen
from fluxcompose import dsl, ontology, scenario
from fluxcompose.cli import data_path, run
from fluxcompose.ontology import MatchDegree, Severity, classify_severity
from fluxcompose.planner import (
    NoPlanFound,
    SearchConfig,
    apply_update,
    check_poss,
    output_binding,
    plan,
)
from fluxcompose.scenario import EventType, FallbackRequired, trace_resources
from fluxcompose.terms import Compound, Constant, Variable, instantiate, know


@contextmanager
def criterion(number: int, title: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {title}", flush=True)
        raise
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {number} PASS: {title} ({elapsed:.2f}s)", flush=True)


def _var(name):
    return Variable(name)


def test_criterion_1_axiom_reproduction(planning_problem, emergency_domain):
    with criterion(1, "bundled axioms reproduce; plan and oracle agree in < 1 s"):
        started = time.monotonic()

        schemas = {a.name: a for a in emergency_domain.actions}
        fr = schemas["findResource"]
        assert fr.params == (_var("PR"), _var("SP"))
        assert fr.poss == (
            know(Compound("Profession", (_var("PR"),))),
            know(Compound("Specialization", (_var("SP"),))),
            Compound("availableRole", (_var("PR"), _var("SP"))),
        )
        assert Compound("know", (Compound("Name", (_var("P"),)),)) in fr.adds
        assert Compound("know", (Compound("CoachNum", (_var("CN"),)),)) in fr.adds
        assert fr.removes == ()
        nr = schemas["notifyResource"]
        assert nr.params == (_var("P"), _var("CN"), _var("MSG"))
        assert nr.poss == (
            know(Compound("Name", (_var("P"),))),
            know(Compound("CoachNum", (_var("CN"),))),
            know(Compound("Message", (_var("MSG"),))),
            Compound("availableAt", (_var("P"), _var("CN"))),
        )
        assert nr.adds == (
            Compound("SendMsg", (_var("P"), _var("CN"), _var("MSG"))),
            Compound("know", (Constant("ConfirmSend"),)),
        )
        assert nr.removes == ()

        found = plan(planning_problem)
        assert [s.name for s in found.steps] == ["findResource", "notifyResource"]
        all_plans = oracles.enumerate_plans(planning_problem, 2)
        assert all_plans == [found]

        assert time.monotonic() - started < 1.0


def test_criterion_2_frame_property():
    with criterion(2, "frame property over 1000 randomized applications in < 5 s"):
        started = time.monotonic()
        rng = random.Random(20111105)
        applications = 0
        while applications < 1000:
            problem = randgen.random_problem(rng)
            state = problem.initial
            for step in range(1, 5):
                options = [(a, s) for a in problem.actions
                           for s in check_poss(a, state)]
                if not options:
                    break
                schema, bindings = rng.choice(options)
                z1 = state
                z2 = apply_update(schema, bindings, z1, step=step, _checked=True)
                full = {**bindings, **output_binding(schema, step)}
                adds = {instantiate(t, full) for t in schema.adds}
                removes = {instantiate(t, full) for t in schema.removes}
                before = z1.fluents
                after = z2.fluents
                for f in before:
                    if f not in removes:
                        assert f in after, f"untouched fluent {f} was dropped"
                for f in adds:
                    assert f in after
                for f in after:
                    assert f in before or f in adds, f"invented fluent {f}"
                assert after == (before - removes) | adds
                applications += 1
                state = z2
                if applications == 1000:
                    break
        assert time.monotonic() - started < 5.0


def test_criterion_3_planner_oracle_equivalence():
    with criterion(3, "plan() agrees with enumeration on 200 random domains in < 60 s"):
        started = time.monotonic()
        rng = random.Random(42)
        lengths = []
        for _ in range(200):
            problem = randgen.random_problem(rng, max_actions=5, max_fluents=8)
            depth = rng.randint(1, 4)
            all_plans = oracles.enumerate_plans(problem, depth)
            try:
                got = plan(problem, SearchConfig(max_depth=depth))
            except NoPlanFound:
                assert all_plans == [], "plan() missed an existing plan"
                continue
            assert all_plans, "plan() invented a plan the oracle cannot find"
            assert got == all_plans[0], "plan() is not the canonical-first plan"
            lengths.append(len(got.steps))
        assert any(n >= 2 for n in lengths), "no multi-step plans exercised"
        assert time.monotonic() - started < 60.0


def test_criterion_4_severity_rules(severity_rules):
    with criterion(4, "orthopedics severity cases exact; unmatched sets are Emergency"):
        assert classify_severity("Orthopedics", {"pain"},
                                 severity_rules) is Severity.MINOR
        assert classify_severity("Orthopedics", {"pain", "swelling"},
                                 severity_rules) is Severity.MAJOR
        assert classify_severity("Orthopedics", {"fracture"},
                                 severity_rules) is Severity.EMERGENCY
        for symptoms in ({"dizziness"}, set(), {"pain", "nausea", "fracture"}):
            got = classify_severity("Orthopedics", symptoms, severity_rules)
            if "fracture" in symptoms:
                assert got is Severity.EMERGENCY
        assert classify_severity("Orthopedics", {"dizziness"},
                                 severity_rules) is Severity.EMERGENCY
        assert classify_severity("Cardiology", {"pain"},
                                 severity_rules) is Severity.EMERGENCY


def test_criterion_5_subsumption_laws():
    with criterion(5, "subsumption laws vs DFS oracle on 100 random DAGs"):
        rng = random.Random(7)
        for _ in range(100):
            source, parents = randgen.random_dag_source(rng, max_nodes=30)
            g = ontology.load_taxonomy(source)
            nodes = sorted(g.concepts)
            for c in nodes:
                assert ontology.is_subsumed_by(c, c, g), "reflexivity violated"
                assert ontology.match_degree(c, c, g) is MatchDegree.EXACT
            for _ in range(40):
                a, b = rng.choice(nodes), rng.choice(nodes)
                assert ontology.is_subsumed_by(a, b, g) == \
                    oracles.reachable(parents, a, b)
            for _ in range(20):
                a, b, c = (rng.choice(nodes) for _ in range(3))
                if ontology.is_subsumed_by(a, b, g) and ontology.is_subsumed_by(b, c, g):
                    assert ontology.is_subsumed_by(a, c, g), "transitivity violated"


def test_criterion_6_trace_ranking(schedule):
    with criterion(6, "responder ranking vs comparator oracle on 1000 rosters; "
                      "fallback names the next station"):
        rng = random.Random(1105)
        fallbacks = 0
        for _ in range(1000):
            roster = randgen.random_roster(rng, max_passengers=200, max_coaches=26)
            event = dict(
                patient_name=(rng.choice(roster.passengers).name
                              if rng.random() < 0.4 else ""),
                coach=rng.choice(roster.coach_order), event_type=EventType.MEDICAL,
                specialization=rng.choice(("Orthopedics", "Cardiology", None)))
            expected = oracles.rank_responders(roster, **event)
            if expected:
                got = trace_resources(roster, **event)
                assert [(r.name, r.coach, r.distance) for r in got] == expected
            else:
                # the alternate flow fires exactly when the filtered list is empty
                with pytest.raises(FallbackRequired):
                    trace_resources(roster, **event)
                fallbacks += 1
                now = Time(rng.randint(0, 23), rng.randint(0, 59))
                assert scenario.next_station(schedule, now) == \
                    oracles.scan_next_station(list(schedule), now)
        assert fallbacks > 0, "fallback branch never exercised"


def test_criterion_7_parser_round_trip(emergency_domain):
    with criterion(7, "parse/pretty-print identity on bundled and 500 generated domains"):
        for name in ("emergency.fcd",):
            source = data_path(name).read_text()
            parsed = dsl.parse_domain(source, name)
            assert dsl.parse_domain(dsl.pretty_print(parsed)) == parsed
        assert dsl.parse_domain(dsl.pretty_print(emergency_domain)) == emergency_domain
        rng = random.Random(500)
        for _ in range(500):
            d = randgen.random_domain_file(rng)
            assert dsl.parse_domain(dsl.pretty_print(d)) == d


def test_criterion_8_end_to_end_golden(tmp_path, capsys):
    with criterion(8, "simulate is byte-identical across fresh logs; "
                      "every record carries the stored fields"):
        script = str(data_path("emergency.scn"))
        contents = []
        for name in ("first.log", "second.log"):
            log = tmp_path / name
            assert run(["simulate", "--script", script, "--log", str(log)]) == 0
            contents.append(log.read_bytes())
        capsys.readouterr()
        assert contents[0] == contents[1], "event logs differ across runs"

        records = scenario.read_event_log(tmp_path / "first.log")
        assert len(records) == 3
        kinds = [type(r).KIND for _, r in records]
        assert kinds == ["event", "event", "fallback"]
        assert records[1][1].payment_collected, "alternate registration flow missing"
        assert records[2][1].station == "Nagpur"
        raw_lines = (tmp_path / "first.log").read_text().splitlines()
        for line in raw_lines:
            for field in ("date=", "time=", "patient_name=", "case_history=",
                          "coach=", "seat=", "delivery_personnel="):
                assert field in line, f"stored field {field} missing in {line!r}"

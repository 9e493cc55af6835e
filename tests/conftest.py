"""Shared fixtures: bundled data files parsed once per session."""

from __future__ import annotations

from datetime import date as Date

import pytest

from fluxcompose import dsl, ontology, planner, registry, scenario
from fluxcompose.cli import data_path


@pytest.fixture(scope="session")
def emergency_domain() -> dsl.DomainFile:
    return dsl.parse_domain(data_path("emergency.fcd").read_text(), "emergency.fcd")


@pytest.fixture(scope="session")
def emergency_problem() -> dsl.ProblemFile:
    return dsl.parse_problem(data_path("emergency.fcp").read_text(), "emergency.fcp")


@pytest.fixture(scope="session")
def planning_problem(emergency_domain, emergency_problem) -> planner.PlanningProblem:
    return planner.make_problem(emergency_domain, emergency_problem)


@pytest.fixture(scope="session")
def taxonomy() -> ontology.TaxonomyGraph:
    return ontology.load_taxonomy(data_path("domain.tax").read_text(), "domain.tax")


@pytest.fixture(scope="session")
def cloud_taxonomy() -> ontology.TaxonomyGraph:
    return ontology.load_taxonomy(data_path("cloud.tax").read_text(), "cloud.tax")


@pytest.fixture(scope="session")
def service_registry(taxonomy) -> registry.Registry:
    return registry.load_registry(data_path("services.reg").read_text(), taxonomy,
                                  "services.reg")


@pytest.fixture(scope="session")
def severity_rules() -> tuple[ontology.SeverityRule, ...]:
    return ontology.load_severity_rules(data_path("severity.rules").read_text(),
                                        "severity.rules")


@pytest.fixture(scope="session")
def schedule() -> tuple:
    return scenario.load_schedule(data_path("route.schedule").read_text(),
                                  "route.schedule")


@pytest.fixture()
def roster() -> scenario.Roster:
    return scenario.load_roster(data_path("roster.csv").read_text(), "roster.csv")


@pytest.fixture()
def validated_roster(roster) -> scenario.Roster:
    updated, _ = scenario.validate_travel_plan(
        roster, "P001", "Chennai", "Delhi", Date(2011, 11, 5))
    return updated


@pytest.fixture()
def dispatch_context(validated_roster, taxonomy, service_registry, severity_rules,
                     schedule, tmp_path) -> scenario.DispatchContext:
    log = scenario.EventLog(tmp_path / "events.log")
    ctx = scenario.DispatchContext(
        roster=validated_roster, taxonomy=taxonomy, registry=service_registry,
        severity_rules=severity_rules, schedule=schedule, log=log,
        message_sink=scenario.MessageSink(),
    )
    yield ctx
    log.close()

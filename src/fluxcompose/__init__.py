"""Fluent-calculus planning and semantic service composition.

The package compiles ontology-typed service descriptions into actions, plans
workflows by progression over state-update axioms, and executes them against
an emergency-healthcare train scenario (roster, responder tracing, dispatch
log). See README.md for the file formats and the CLI.
"""

from .composer import (
    CompositionRequest,
    ExecutionError,
    ExecutionTrace,
    GroundingEnv,
    Workflow,
    build_problem,
    compose,
    execute,
)
from .dsl import (
    ActionSchema,
    ArityError,
    DomainFile,
    GroundnessError,
    ProblemFile,
    parse_domain,
    parse_problem,
    pretty_print,
)
from .errors import FluxError, ParseError
from .ontology import (
    CycleError,
    MatchDegree,
    Severity,
    SeverityRule,
    TaxonomyGraph,
    UnknownConceptError,
    classify_severity,
    is_subsumed_by,
    load_severity_rules,
    load_taxonomy,
    match_degree,
)
from .planner import (
    GroundAction,
    NoPlanFound,
    Plan,
    PlanningProblem,
    SearchConfig,
    apply_update,
    check_poss,
    enumerate_plans,
    make_problem,
    plan,
    validate_plan,
)
from .registry import (
    DuplicateServiceError,
    Registry,
    ServiceDescription,
    compile_service_to_action,
    find_candidates,
    load_registry,
)
from .scenario import (
    DispatchContext,
    EmergencyEvent,
    EmergencyInfo,
    EventLog,
    EventType,
    FallbackRequired,
    Passenger,
    Roster,
    fallback_station_notice,
    load_roster,
    load_schedule,
    read_event_log,
    register_passenger,
    report_emergency,
    trace_resources,
    validate_travel_plan,
)
from .terms import (
    Compound,
    Constant,
    Placeholder,
    State,
    Substitution,
    Term,
    Variable,
    holds,
    knows_val,
    unify,
)

__version__ = "0.1.0"

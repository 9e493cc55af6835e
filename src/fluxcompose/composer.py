"""End-to-end composition: request -> planning problem -> workflow -> execution.

A composition request names typed values the caller already has, the concepts
it wants known at completion, and ground facts seeding the initial state. The
composer compiles every registered service into an action, plans by
progression, wires each step input to its source (a request value or an
earlier step's output placeholder), and can execute the workflow against
in-process grounding stubs, feeding each step input from its wired source.

Workflows and traces serialize to tab-separated lines (one record per line)
for golden tests; the field order is documented in the README.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from .dsl import know_misuse
from .errors import FluxError
from .ontology import Concept, MatchDegree, TaxonomyGraph, UnknownConceptError, match_degree
from .planner import GroundAction, Plan, PlanningProblem, SearchConfig, plan as find_plan
from .registry import Registry
from .terms import (
    Compound,
    Constant,
    Placeholder,
    State,
    Term,
    Variable,
    fluent_symbol,
    know,
    leaf_args,
)


class ExecutionError(FluxError):
    """A grounding stub failed; carries the step index and the partial trace."""

    def __init__(self, step: int, reason: str, trace: "ExecutionTrace"):
        self.step = step
        self.reason = reason
        self.trace = trace
        super().__init__(f"execution failed at step {step}: {reason}")


class GroundingFailure(FluxError):
    """Raised by a stub to signal a domain-level failure (e.g. no matching resource)."""


@dataclass(frozen=True)
class CompositionRequest:
    have: tuple[tuple[Concept, str], ...] = ()
    want: tuple[Concept, ...] = ()
    world_facts: tuple[Term, ...] = ()


@dataclass(frozen=True)
class RequestSource:
    concept: Concept
    value: str
    degree: MatchDegree

    def __str__(self) -> str:
        return f"req:{self.concept}:{self.value}:{self.degree}"


@dataclass(frozen=True)
class StepSource:
    step: int
    out_param: str

    def __str__(self) -> str:
        return f"out:{self.step}:{self.out_param}"


Source = Union[RequestSource, StepSource]


@dataclass(frozen=True)
class Workflow:
    """Service names in step order, and each step's (param, source) pairs in its
    service's input order. `plan` is read from the wiring: a request source
    gives its value, a step source the placeholder that step minted."""

    services: tuple[str, ...]
    wiring: tuple[tuple[tuple[str, Source], ...], ...]

    @property
    def plan(self) -> Plan:
        return Plan(tuple(
            GroundAction(name, tuple(
                Constant(s.value) if isinstance(s, RequestSource)
                else Placeholder(self.services[s.step], s.out_param, s.step + 1)
                for _, s in wires))
            for name, wires in zip(self.services, self.wiring)))

    @property
    def is_empty(self) -> bool:
        return not self.services

    def to_lines(self, reg: Registry) -> list[str]:
        """One `step` record per step: index, service, semicolon-joined wires."""
        return [f"step\t{i}\t{name}\t" + ";".join(f"{p}={s}" for p, s in wires)
                for i, (name, wires) in enumerate(zip(self.services, self.wiring))]


@dataclass(frozen=True)
class TraceRecord:
    step: int
    service: str
    inputs: tuple[tuple[str, str], ...]
    outputs: tuple[tuple[str, str], ...]
    outcome: str

    def to_line(self) -> str:
        ins = ",".join(f"{k}={v}" for k, v in self.inputs)
        outs = ",".join(f"{k}={v}" for k, v in self.outputs)
        return f"exec\t{self.step}\t{self.service}\t{ins}\t{outs}\t{self.outcome}"


@dataclass(frozen=True)
class ExecutionTrace:
    records: tuple[TraceRecord, ...] = ()

    def to_lines(self) -> list[str]:
        return [r.to_line() for r in self.records]

    def resolved_values(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for r in self.records:
            out.update(dict(r.outputs))
        return out


@dataclass(frozen=True)
class StubResult:
    outputs: Mapping[str, str]
    outcome: str = "ok"


Executor = Callable[[dict[str, str]], StubResult]


@dataclass
class GroundingEnv:
    """In-process stand-in for service groundings: the stub map only.

    Maps stub ids to executors over bound inputs; a stub closes over whatever
    it works against and returns its outputs, with no other channel back.
    """

    stubs: dict[str, Executor]


# ---------------------------------------------------------------------------
# Request -> problem -> workflow
# ---------------------------------------------------------------------------


def build_problem(req: CompositionRequest, reg: Registry,
                  g: TaxonomyGraph) -> PlanningProblem:
    """Translate a request into a planning problem over compiled service actions.

    The initial state holds the request's world facts plus know(C(v)) for each
    typed value; when a held concept strictly specializes a concept some
    service takes as input, the knowledge is also asserted at the ancestor
    concept so the planner can wire it (a plugin-degree match). Goals are
    know(C(_)) patterns, one per wanted concept. A world fact misusing the
    reserved know is refused as `planner.make_problem` refuses an initial one.
    """
    for concept, _ in req.have:
        if not g.declares(concept):
            raise UnknownConceptError(concept)
    for concept in req.want:
        if not g.declares(concept):
            raise UnknownConceptError(concept)

    for fact in req.world_facts:
        misuse = know_misuse(fact)
        if misuse:
            raise FluxError("world fact %s: expected %s, found %s" % (fact, *misuse))

    initial: list[Term] = list(req.world_facts)
    for concept, value in req.have:
        initial.append(know(Compound(concept, (Constant(value),))))
        for wider in g.ancestors(concept) & reg.input_concepts:
            if wider != concept:
                initial.append(know(Compound(wider, (Constant(value),))))

    goal = tuple(know(Compound(concept, (Variable(f"WANT{i}"),)))
                 for i, concept in enumerate(req.want))
    return PlanningProblem(State.from_terms(initial), goal, reg.actions)


def compose(req: CompositionRequest, reg: Registry, g: TaxonomyGraph,
            cfg: SearchConfig = SearchConfig(),
            memo: Optional[dict] = None) -> Workflow:
    """Plan a workflow for the request and wire every step input to a source.

    Raises NoPlanFound when the registry cannot satisfy the request within the
    configured depth.

    memo, when given, is a dict the caller keeps across calls (a
    `DispatchContext` keeps one); it composes each request *shape* once. Each
    request value that no action names (`Registry.action_constants`) becomes
    a slot, numbered by first appearance in req.have. The key is read from
    the request alone: the registry; cfg; the taxonomy's concept structure
    (the identity of g.concepts and g.parents, which
    `TaxonomyGraph.with_individual` shares); req.want; req.have in order as
    (concept, slot or value) pairs; the world facts with slots for values;
    and the text order of every constant that can become a step argument,
    the values' and the world facts', merged with the actions' and a "#"
    sentinel that stands for every placeholder text. A miss builds the
    problem, plans and wires it, and stores the workflow it returns with the
    request's values by slot; a hit rewrites the stored workflow's request
    sources that hold a slot value to this request's value in that slot, and
    builds no problem. Only a workflow is stored, never an error. The memo
    holds each registry and concept structure it keys on, so no other object
    can take their ids. A value starting with "#", or a world fact or action pattern
    with a compound argument (or a bare-variable one), composes without the
    memo: "#" stands in for placeholder texts only when no value starts with
    it, and a compound's text order does not follow its constants' order.

    Soundness. The built initial state is a function of req.have, the world
    facts, the concept structure and reg.input_concepts, and the goal one of
    req.want. So two requests with one key give problems P and P' whose
    initial states, with slots for values, are equal, as are their goals,
    actions and cfg. `plan` returns the lexicographically first shortest
    plan, and `Plan.sort_key` compares args one whole text at a time. Let σ
    map each slot's value in P to its value in P', fixing every other
    constant. σ is a bijection on the constants of P and the actions: those
    outside the slots appear alike in both keys, and a slot's value appears
    in neither key. No action or goal names
    a value σ moves, so matching a pattern commutes with σ, and σ maps the
    plans of P onto the plans of σ(P) = P'. With no compound argument in a
    pattern or initial fluent, every step argument is a constant of the
    initial state or the actions, or a placeholder; as the key's order
    signature matches, σ keeps the text order of every two of them (a value
    not starting with "#" sorts against every placeholder text as against
    "#"). So σ also keeps the order of the plans, and the first plan of P
    maps to the first plan of P'. The wiring maps too: `_source_of` compares
    values only for equality, which the bijection σ keeps, and reads the
    held concepts from the key and match degrees from the same concept
    structure. A request source holds a value of req.have, which σ moves
    exactly when it is a slot value, as `_rebind` does. `plan` is a function
    of the wiring, so σ maps it exactly as it maps the wiring. A hit skips
    `build_problem`'s concept, know and ground checks: the miss that stored
    its key passed them.
    """
    shape = None if memo is None else _shape(req, reg, g, cfg)
    if shape is not None:
        key, values = shape
        stored = memo.get(key)
        if stored is not None:
            return _rebind(stored, values)
    steps = find_plan(build_problem(req, reg, g), cfg).steps
    workflow = Workflow(
        tuple(ga.name for ga in steps),
        tuple(tuple((param, _source_of(arg, concept, req, g, steps[:i], reg))
                    for (param, concept), arg in zip(reg.get(ga.name).inputs, ga.args))
              for i, ga in enumerate(steps)))
    if shape is not None:
        memo[key] = ((reg, g.concepts, g.parents), workflow, values)
    return workflow


def _shape(req: CompositionRequest, reg: Registry, g: TaxonomyGraph,
           cfg: SearchConfig) -> Optional[tuple[tuple, tuple[str, ...]]]:
    """The memo key of the request and its values by slot (see `compose`).

    None when the request composes afresh.
    """
    named = reg.action_constants
    if named is None:
        return None
    slots: dict[str, int] = {}
    have = []
    for concept, value in req.have:
        if value.startswith("#"):
            return None
        if value not in named:
            value = slots.setdefault(value, len(slots))
        have.append((concept, value))

    def slot(arg: Term):
        return slots.get(arg.name, arg) if isinstance(arg, Constant) else arg

    texts = {"#", *slots}
    facts = []
    for fact in req.world_facts:
        args = leaf_args(fact)
        if args is None:
            return None
        texts.update(a.name for a in args if isinstance(a, Constant))
        facts.append((fluent_symbol(fact), tuple(map(slot, args))))
    order = reg.action_constant_order
    key = (id(reg), cfg, id(g.concepts), id(g.parents), req.want, tuple(have), tuple(facts),
           tuple((bisect_left(order, t), slots.get(t, t)) for t in sorted(texts)))
    return key, tuple(slots)


def _rebind(stored: tuple, values: tuple[str, ...]) -> Workflow:
    """A stored workflow with each request source that holds a slot value given
    this request's value in that slot (see `compose`)."""
    _, workflow, slotted = stored
    to_value = dict(zip(slotted, values))
    return Workflow(workflow.services, tuple(
        tuple((param, RequestSource(s.concept, to_value[s.value], s.degree))
              if isinstance(s, RequestSource) and s.value in to_value else (param, s)
              for param, s in wires)
        for wires in workflow.wiring))


def _source_of(arg: Term, concept: Concept, req: CompositionRequest, g: TaxonomyGraph,
               earlier: tuple[GroundAction, ...], reg: Registry) -> Source:
    """A step input's source: a request value, or the output of the earlier step
    a placeholder's seq names if that step runs the placeholder's service and
    the service declares the output (a world fact's placeholder may not)."""
    if isinstance(arg, Placeholder):
        step = arg.seq - 1
        if (0 <= step < len(earlier) and earlier[step].name == arg.action
                and any(param == arg.param for param, _ in reg.get(arg.action).outputs)):
            return StepSource(step, arg.param)
    elif isinstance(arg, Constant):
        best: Optional[RequestSource] = None
        for have_concept, value in req.have:
            if value != arg.name:
                continue
            degree = match_degree(have_concept, concept, g)
            if degree >= MatchDegree.PLUGIN and (best is None or degree > best.degree):
                best = RequestSource(have_concept, value, degree)
        if best is not None:
            return best
    raise FluxError(f"no source for step input {concept}={arg}")


# ---------------------------------------------------------------------------
# Execution against grounding stubs
# ---------------------------------------------------------------------------


def execute(w: Workflow, env: GroundingEnv, reg: Registry) -> ExecutionTrace:
    """Run a workflow's steps in order, feeding each step from its wiring.

    A `RequestSource` gives its value and a `StepSource` the output an earlier
    step returned. Each stub receives the step's bound inputs and must return
    a value for every declared output parameter. On stub failure an
    ExecutionError is raised carrying the trace up to (excluding) the failed
    step.
    """
    records: list[TraceRecord] = []
    produced: dict[tuple[int, str], str] = {}

    def failed(step: int, reason: str) -> ExecutionError:
        return ExecutionError(step, reason, ExecutionTrace(tuple(records)))

    for i, (name, wires) in enumerate(zip(w.services, w.wiring)):
        svc = reg.get(name)
        stub = env.stubs.get(svc.grounding_stub_id)
        if stub is None:
            raise failed(i, f"no grounding stub {svc.grounding_stub_id!r}")
        inputs = {param: s.value if isinstance(s, RequestSource)
                  else produced[s.step, s.out_param]
                  for param, s in wires}
        try:
            result = stub(inputs)
        except GroundingFailure as exc:
            raise failed(i, str(exc)) from exc
        outputs: list[tuple[str, str]] = []
        for param, _concept in svc.outputs:
            if param not in result.outputs:
                raise failed(i, f"stub returned no value for output {param!r}")
            value = result.outputs[param]
            outputs.append((param, value))
            produced[i, param] = value
        records.append(TraceRecord(
            i, svc.name, tuple(sorted(inputs.items())), tuple(outputs),
            result.outcome))
    return ExecutionTrace(tuple(records))

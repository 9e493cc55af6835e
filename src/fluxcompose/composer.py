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
    concept: Concept

    def __str__(self) -> str:
        return f"out:{self.step}:{self.out_param}"


Source = Union[RequestSource, StepSource]


@dataclass(frozen=True)
class WireEntry:
    step: int
    param: str
    source: Source


@dataclass(frozen=True)
class Workflow:
    plan: Plan
    wiring: tuple[WireEntry, ...]

    @property
    def is_empty(self) -> bool:
        return not self.plan.steps

    def to_lines(self, reg: Registry) -> list[str]:
        """One `step` record per plan step: index, service, semicolon-joined wires."""
        lines = []
        for i, ga in enumerate(self.plan.steps):
            wires = ";".join(
                f"{w.param}={w.source}" for w in self.wiring if w.step == i
            )
            lines.append(f"step\t{i}\t{ga.name}\t{wires}")
        return lines


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
    know(C(_)) patterns, one per wanted concept.
    """
    for concept, _ in req.have:
        if not g.declares(concept):
            raise UnknownConceptError(concept)
    for concept in req.want:
        if not g.declares(concept):
            raise UnknownConceptError(concept)

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
    problem, plans and wires it, and stores the workflow over slots; a hit
    puts this request's values back into the stored workflow and builds no
    problem. Only a workflow is stored, never an error. The memo holds each
    registry and concept structure it keys on, so no other object can take
    their ids. A value starting with "#", or a world fact or action pattern
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
    structure. A hit skips `build_problem`'s concept and ground checks: the
    miss that stored its key passed them.
    """
    shape = None if memo is None else _shape(req, reg, g, cfg)
    if shape is not None:
        key, values = shape
        stored = memo.get(key)
        if stored is not None:
            return _bind(stored, values)
    p = find_plan(build_problem(req, reg, g), cfg)
    wiring: list[WireEntry] = []
    for i, ga in enumerate(p.steps):
        svc = reg.get(ga.name)
        for (param, concept), arg in zip(svc.inputs, ga.args):
            wiring.append(WireEntry(i, param, _source_of(arg, concept, req, g)))
    workflow = Workflow(p, tuple(wiring))
    if shape is not None:
        memo[key] = _slotted(workflow, values, (reg, g.concepts, g.parents))
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


def _slotted(workflow: Workflow, values: tuple[str, ...], held: tuple) -> tuple:
    """The memo entry of a workflow: each step and wire entry that holds a value
    as a row with its slot, every other one as it is; held keeps the key's ids."""
    slots = {value: i for i, value in enumerate(values)}
    steps = []
    for ga in workflow.plan.steps:
        args = tuple(slots.get(a.name, a) if isinstance(a, Constant) else a for a in ga.args)
        steps.append((ga.name, args) if any(isinstance(a, int) for a in args) else ga)
    wiring = []
    for w in workflow.wiring:
        s = w.source
        if isinstance(s, RequestSource) and s.value in slots:
            wiring.append((w.step, w.param, s.concept, slots[s.value], s.degree))
        else:
            wiring.append(w)
    return held, tuple(steps), tuple(wiring)


def _bind(stored: tuple, values: tuple[str, ...]) -> Workflow:
    """A stored workflow with the request's values in its slots (see `_slotted`)."""
    _, steps, wiring = stored
    constants = tuple(map(Constant, values))
    return Workflow(
        Plan(tuple(GroundAction(s[0], tuple(constants[a] if isinstance(a, int) else a
                                            for a in s[1]))
                   if type(s) is tuple else s for s in steps)),
        tuple(WireEntry(w[0], w[1], RequestSource(w[2], values[w[3]], w[4]))
              if type(w) is tuple else w for w in wiring))


def _source_of(arg: Term, concept: Concept, req: CompositionRequest,
               g: TaxonomyGraph) -> Source:
    if isinstance(arg, Placeholder):
        return StepSource(arg.seq - 1, arg.param, concept)
    if isinstance(arg, Constant):
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
    """Run a workflow's steps in order, feeding each step from its wire entries.

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

    for i, ga in enumerate(w.plan.steps):
        svc = reg.get(ga.name)
        stub = env.stubs.get(svc.grounding_stub_id)
        if stub is None:
            raise failed(i, f"no grounding stub {svc.grounding_stub_id!r}")
        inputs = {e.param: e.source.value if isinstance(e.source, RequestSource)
                  else produced[e.source.step, e.source.out_param]
                  for e in w.wiring if e.step == i}
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

"""Request translation, workflow wiring, and execution against grounding stubs."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from fluxcompose import composer, scenario
from fluxcompose.composer import (
    CompositionRequest,
    ExecutionError,
    GroundingEnv,
    RequestSource,
    StepSource,
    StubResult,
    build_problem,
    compose,
    execute,
)
from fluxcompose.ontology import MatchDegree, UnknownConceptError, load_taxonomy
from fluxcompose.planner import NoPlanFound
from fluxcompose.registry import Registry, load_registry
from fluxcompose.errors import FluxError
from fluxcompose.terms import Compound, Constant, Placeholder, know
import randgen
from oracles import enumerate_plans, validate_plan

EMERGENCY_REQUEST = CompositionRequest(
    have=(("Profession", "doctor"), ("Specialization", "Orthopedics"),
          ("Message", "help")),
    want=("ConfirmSend",),
    world_facts=(Compound("availableRole",
                          (Constant("doctor"), Constant("Orthopedics"))),),
)


# trace_resources's keyword arguments after the roster
ORTHOPEDIC_EVENT = dict(event_type=scenario.EventType.MEDICAL, coach="S5",
                        specialization="Orthopedics", patient_name="Arjun")


@pytest.fixture()
def grounded_env(validated_roster):
    ranked = scenario.trace_resources(validated_roster, **ORTHOPEDIC_EVENT)
    sink = scenario.MessageSink()
    return scenario.build_grounding_env(ranked, sink), sink


# ---------------------------------------------------------------------------
# build_problem
# ---------------------------------------------------------------------------


def test_build_problem_emergency_request(service_registry, taxonomy):
    problem = build_problem(EMERGENCY_REQUEST, service_registry, taxonomy)
    plans = enumerate_plans(problem, 2)
    assert len(plans) == 1
    assert [s.name for s in plans[0].steps] == ["findResource", "notifyResource"]


def test_build_problem_empty_request(service_registry, taxonomy):
    problem = build_problem(CompositionRequest(), service_registry, taxonomy)
    assert problem.initial.fluents == frozenset()
    assert problem.goal == ()


def test_build_problem_single_step_want(service_registry, taxonomy):
    request = CompositionRequest(
        have=(("Profession", "doctor"), ("Specialization", "Orthopedics")),
        want=("Name",),
        world_facts=EMERGENCY_REQUEST.world_facts,
    )
    problem = build_problem(request, service_registry, taxonomy)
    plans = enumerate_plans(problem, 1)
    assert len(plans) == 1
    assert [s.name for s in plans[0].steps] == ["findResource"]


def test_build_problem_unknown_concept(service_registry, taxonomy):
    with pytest.raises(UnknownConceptError):
        build_problem(CompositionRequest(have=(("NoSuch", "x"),)),
                      service_registry, taxonomy)
    with pytest.raises(UnknownConceptError):
        build_problem(CompositionRequest(want=("NoSuch",)),
                      service_registry, taxonomy)


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def test_compose_emergency_workflow(service_registry, taxonomy):
    wf = compose(EMERGENCY_REQUEST, service_registry, taxonomy)
    assert [s.name for s in wf.plan.steps] == ["findResource", "notifyResource"]
    sources = {(w.step, w.param): w.source for w in wf.wiring}
    assert sources[(0, "PR")] == RequestSource("Profession", "doctor",
                                               MatchDegree.EXACT)
    assert sources[(1, "P")] == StepSource(0, "P", "Name")
    assert sources[(1, "CN")] == StepSource(0, "CN", "Coach")
    assert sources[(1, "MSG")] == RequestSource("Message", "help", MatchDegree.EXACT)
    problem = build_problem(EMERGENCY_REQUEST, service_registry, taxonomy)
    assert validate_plan(problem, wf.plan)


def test_compose_want_subset_of_have_is_empty(service_registry, taxonomy):
    request = CompositionRequest(have=(("Name", "Ravi"),), want=("Name",))
    wf = compose(request, service_registry, taxonomy)
    assert wf.is_empty and wf.wiring == ()


def test_compose_empty_registry_fails(taxonomy):
    with pytest.raises(NoPlanFound):
        compose(CompositionRequest(want=("ConfirmSend",)), Registry({}), taxonomy)


def test_compose_plugin_degree_input_wiring():
    g = load_taxonomy(
        "root Specialization\nconcept Orthopedics subClassOf Specialization\n"
        "root Name\n")
    reg = load_registry(
        "service lookup\n"
        "  hasInput: SP : Specialization\n"
        "  hasOutput: N : Name\n"
        "  grounding: stub\nend\n", g)
    request = CompositionRequest(have=(("Orthopedics", "orthoCase"),),
                                 want=("Name",))
    wf = compose(request, reg, g)
    assert [s.name for s in wf.plan.steps] == ["lookup"]
    (wire,) = wf.wiring
    assert wire.source == RequestSource("Orthopedics", "orthoCase",
                                        MatchDegree.PLUGIN)


def test_workflow_serialization_is_stable(service_registry, taxonomy):
    a = compose(EMERGENCY_REQUEST, service_registry, taxonomy)
    b = compose(EMERGENCY_REQUEST, service_registry, taxonomy)
    assert a.to_lines(service_registry) == b.to_lines(service_registry)
    assert a.to_lines(service_registry)[0].startswith("step\t0\tfindResource\t")


# ---------------------------------------------------------------------------
# compose's memo of workflows by request shape
# ---------------------------------------------------------------------------


# Requests through one memo where a careless key would share a plan: values
# in another text order, values that sort apart against the placeholder
# texts, an action's constant held as a value, and a compound whose text
# order does not follow its constant's.
_ITEM = "root Item\nroot Made\nroot Done\n"
_PICK = "service pick\n  hasInput: X : Item\n  hasOutput: D : Done\n  grounding: stub\n"
_MEMO_CASES = {
    # pick(V) and pick(W) tie on length, and the values' text order decides:
    # (y, x) has (a, b)'s slots in the other order, (c, d) takes (a, b)'s plan
    "tie order": (
        _PICK + "end\n",
        [((("Item", v), ("Item", w)), ()) for v, w in (("a", "b"), ("y", "x"), ("c", "d"))],
        ("Done",)),
    # make; use(V) or make; use(#out_make_Y_1), by V's text against "#out_make_Y_1"
    "placeholder order": (
        "service make\n  hasOutput: Y : Item\n  hasOutput: M : Made\n  grounding: stub\nend\n"
        "service use\n  hasInput: X : Item\n  hasOutput: D : Done\n  grounding: stub\nend\n",
        [((("Item", v),), ()) for v in ("#a", "#z", "!", "a")], ("Done", "Made")),
    # pick needs ok(k): k is an action's constant, a, j and z are not; (j, z)
    # has no plan, and would take (k, z)'s if k were a slot
    "a named value": (
        _PICK + "  precondition: holds(ok(k))\nend\n",
        [((("Item", v), ("Item", w)), (Compound("ok", (Constant(v),)),))
         for v, w in (("k", "z"), ("a", "k"), ("j", "z"))], ("Done",)),
    # e sorts before f(a) and g after it; pick(f(a)) has no source to wire
    "a compound argument": (
        _PICK + "end\n",
        [((("Item", v),), (know(Compound("Item", (Compound("f", (Constant("a"),)),))),))
         for v in ("e", "g")], ("Done",)),
}


@pytest.mark.parametrize("case", sorted(_MEMO_CASES))
def test_memo_agrees_with_a_fresh_compose_where_the_key_needs_care(case):
    source, requests, want = _MEMO_CASES[case]
    g = load_taxonomy(_ITEM)
    reg = load_registry(source, g)
    memo = {}
    for have, facts in requests:
        request = CompositionRequest(have=have, want=want, world_facts=facts)
        try:
            fresh = compose(request, reg, g)
        except FluxError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                compose(request, reg, g, memo=memo)
        else:
            assert compose(request, reg, g, memo=memo) == fresh


def _renamed_request(request: CompositionRequest, renaming: dict) -> CompositionRequest:
    def rename(t):
        if isinstance(t, Compound):
            return Compound(t.functor, tuple(map(rename, t.args)))
        if isinstance(t, Constant):
            return Constant(renaming.get(t.name, t.name))
        return t

    return CompositionRequest(
        have=tuple((c, renaming.get(v, v)) for c, v in request.have),
        want=request.want, world_facts=tuple(map(rename, request.world_facts)))


def _echo(inputs: dict) -> StubResult:
    # every output of randgen's services, named after the step's inputs
    fed = ",".join(f"{k}={v}" for k, v in sorted(inputs.items()))
    return StubResult({"O0": f"0<{fed}>", "O1": f"1<{fed}>"})


@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_memo_path_equals_a_fresh_compose(seed):
    # a registry request, then two bijective renamings of its values, through
    # one memo: each workflow equals a fresh compose, whether the memo missed,
    # hit, or was passed by, and executes alike
    rng = random.Random(seed)
    reg, g, request = randgen.random_registry_request(rng)
    env = GroundingEnv(stubs={"stub": _echo})
    values = list(dict.fromkeys(v for _, v in request.have))
    pool = randgen.REQUEST_VALUES + ("y", "Q", "ba")
    memo = {}
    for renaming in ({}, dict(zip(values, rng.sample(pool, len(values)))),
                     dict(zip(values, rng.sample(pool, len(values))))):
        renamed = _renamed_request(request, renaming)
        try:
            fresh = compose(renamed, reg, g)
        except NoPlanFound:
            with pytest.raises(NoPlanFound):
                compose(renamed, reg, g, memo=memo)
            continue
        got = compose(renamed, reg, g, memo=memo)
        assert got == fresh
        assert got.to_lines(reg) == fresh.to_lines(reg)
        assert execute(got, env, reg) == execute(fresh, env, reg)


def test_a_memo_hit_builds_no_problem_and_plans_nothing(service_registry, taxonomy,
                                                        monkeypatch):
    memo = {}
    first = compose(EMERGENCY_REQUEST, service_registry, taxonomy, memo=memo)
    request = CompositionRequest(
        have=(("Profession", "doctor"), ("Specialization", "Orthopedics"),
              ("Message", "hurry")),
        want=EMERGENCY_REQUEST.want, world_facts=EMERGENCY_REQUEST.world_facts)
    fresh = compose(request, service_registry, taxonomy)
    calls = []

    def spy(name):
        def refuse(*args):
            calls.append(name)
            raise AssertionError(f"{name} called on a memo hit")
        return refuse

    for name in ("build_problem", "find_plan", "_source_of"):
        monkeypatch.setattr(composer, name, spy(name))
    got = compose(request, service_registry, taxonomy, memo=memo)
    assert calls == []
    assert got == fresh and got != first
    assert len(memo) == 1


# A placeholder held in the request's world facts: pick takes it as Item.
# Alone, pick is step 0; after first(s), step 1.
_FIRST = ("service first\n  hasInput: A : Start\n  hasOutput: B : Mid\n"
          "  grounding: stub\nend\n")
_WORLD_PLACEHOLDER_CASES = [
    (False, Placeholder("pick", "D", 1)),   # the consuming step itself
    (False, Placeholder("other", "Q", 1)),  # a step that is not other
    (True, Placeholder("pick", "D", 2)),    # the consuming step itself
    (True, Placeholder("first", "Q", 1)),   # first declares no Q
    (True, Placeholder("other", "B", 1)),   # step 0 is not other
    (True, Placeholder("first", "B", 3)),   # no step 2 before step 1
]


def _world_placeholder_request(after_first: bool, placeholder: Placeholder):
    g = load_taxonomy(_ITEM + "root Start\nroot Mid\n")
    reg = load_registry((_FIRST if after_first else "") + _PICK + "end\n", g)
    request = CompositionRequest(
        have=(("Start", "s"),) if after_first else (),
        want=("Mid", "Done") if after_first else ("Done",),
        world_facts=(know(Compound("Item", (placeholder,))),))
    return request, reg, g


@pytest.mark.parametrize("after_first,placeholder", _WORLD_PLACEHOLDER_CASES)
def test_a_world_fact_placeholder_no_earlier_step_made_has_no_source(after_first,
                                                                     placeholder):
    request, reg, g = _world_placeholder_request(after_first, placeholder)
    memo = {}
    for _ in range(2):  # the error is not stored in the memo
        with pytest.raises(FluxError,
                           match=re.escape(f"no source for step input Item={placeholder}")):
            compose(request, reg, g, memo=memo)
        assert memo == {}
    with pytest.raises(FluxError, match="no source for step input"):
        compose(request, reg, g)


def test_a_world_fact_placeholder_an_earlier_step_made_is_its_output():
    request, reg, g = _world_placeholder_request(True, Placeholder("first", "B", 1))
    workflow = compose(request, reg, g)
    assert workflow.to_lines(reg)[1] == "step\t1\tpick\tX=out:0:B"
    memo = {}  # such a request is memoized: the cases above store nothing
    assert compose(request, reg, g, memo=memo) == workflow and len(memo) == 1


# Held is a plugin match for use's input only where it is under C0
_HELD_UNDER_C0 = "root C0\nroot Done\nconcept Held subClassOf C0\n"
_HELD_APART = "root C0\nroot Done\nroot Held\n"


def test_one_memo_under_two_taxonomies_composes_as_each_does():
    # the taxonomies differ only in Held's edge; the registry is one object
    under, apart = load_taxonomy(_HELD_UNDER_C0), load_taxonomy(_HELD_APART)
    assert under.concepts == apart.concepts
    reg = load_registry("service use\n  hasInput: X : C0\n  hasOutput: D : Done\n"
                        "  grounding: stub\nend\n", under)
    request = CompositionRequest(have=(("Held", "v"),), want=("Done",))
    memo = {}
    for g in (under, apart, under):
        try:
            fresh = compose(request, reg, g)
        except NoPlanFound:
            with pytest.raises(NoPlanFound):
                compose(request, reg, g, memo=memo)
        else:
            assert compose(request, reg, g, memo=memo) == fresh
    assert len(memo) == 1


def test_a_memo_hit_keeps_the_first_of_two_sources_of_equal_degree():
    # v is held at A and at B, both under Item: the first held is the source,
    # so the two orders of have wire pick's input apart
    g = load_taxonomy("root Item\nroot Done\nconcept A subClassOf Item\n"
                      "concept B subClassOf Item\n")
    reg = load_registry(_PICK + "end\n", g)
    memo = {}
    for have in ((("A", "v"), ("B", "v")), (("B", "v"), ("A", "v")),
                 (("A", "w"), ("B", "w")), (("B", "w"), ("A", "w"))):
        request = CompositionRequest(have=have, want=("Done",))
        fresh = compose(request, reg, g)
        assert fresh.wiring[0].source.concept == have[0][0]
        assert compose(request, reg, g, memo=memo) == fresh
    assert len(memo) == 2


# ---------------------------------------------------------------------------
# execute
# ---------------------------------------------------------------------------


def test_execute_emergency_workflow(service_registry, taxonomy, grounded_env):
    env, sink = grounded_env
    wf = compose(EMERGENCY_REQUEST, service_registry, taxonomy)
    trace = execute(wf, env, service_registry)
    assert [r.service for r in trace.records] == ["findResource", "notifyResource"]
    find = trace.records[0]
    assert dict(find.outputs) == {"P": "Ravi", "CN": "S7"}
    notify = trace.records[1]
    assert dict(notify.inputs) == {"P": "Ravi", "CN": "S7", "MSG": "help"}
    assert notify.outcome == "ConfirmSend"
    assert sink.entries == [("Ravi", "S7", "help")]


def test_execute_feeds_each_step_from_its_wiring(service_registry, taxonomy, grounded_env):
    # the wiring, not the plan's arguments, decides what a step receives
    env, sink = grounded_env
    wf = compose(EMERGENCY_REQUEST, service_registry, taxonomy)
    rewired = composer.Workflow(wf.plan, tuple(
        composer.WireEntry(w.step, w.param, RequestSource("Message", "rewired",
                                                          MatchDegree.EXACT))
        if w.param == "MSG" else w for w in wf.wiring))
    trace = execute(rewired, env, service_registry)
    assert dict(trace.records[1].inputs) == {"P": "Ravi", "CN": "S7", "MSG": "rewired"}
    assert sink.entries == [("Ravi", "S7", "rewired")]


def test_execute_empty_workflow(service_registry, grounded_env):
    env, _ = grounded_env
    wf = composer.Workflow(composer.Plan(()), ())
    assert execute(wf, env, service_registry).records == ()


def test_execute_send_missing_its_inputs(taxonomy, validated_roster):
    # a send step wired to the message alone: the stub fails, nothing is sent
    reg = load_registry(
        "service broadcast\n"
        "  hasInput: MSG : Message\n"
        "  hasOutput: ACK : ConfirmSend\n"
        "  grounding: message-send\nend\n", taxonomy)
    wf = compose(CompositionRequest(have=(("Message", "help"),),
                                    want=("ConfirmSend",)), reg, taxonomy)
    sink = scenario.MessageSink()
    env = scenario.build_grounding_env(
        scenario.trace_resources(validated_roster, **ORTHOPEDIC_EVENT), sink)
    with pytest.raises(ExecutionError) as exc:
        execute(wf, env, reg)
    assert exc.value.step == 0
    assert exc.value.reason == "message-send needs inputs P, CN and MSG"
    assert exc.value.trace.records == ()
    assert sink.entries == []


def test_execute_missing_stub(service_registry, taxonomy):
    wf = compose(EMERGENCY_REQUEST, service_registry, taxonomy)
    with pytest.raises(ExecutionError) as exc:
        execute(wf, GroundingEnv(stubs={}), service_registry)
    assert "roster-lookup" in exc.value.reason


def test_execution_error_carries_the_steps_before_the_failure(service_registry, taxonomy,
                                                              grounded_env):
    env, sink = grounded_env
    wf = compose(EMERGENCY_REQUEST, service_registry, taxonomy)
    lookup_only = GroundingEnv(stubs={"roster-lookup": env.stubs["roster-lookup"]})
    with pytest.raises(ExecutionError) as exc:
        execute(wf, lookup_only, service_registry)
    assert exc.value.step == 1
    assert exc.value.reason == "no grounding stub 'message-send'"
    assert exc.value.trace.to_lines() == [
        "exec\t0\tfindResource\tPR=doctor,SP=Orthopedics\tP=Ravi,CN=S7\tok"]
    assert sink.entries == []


def test_execute_stub_must_cover_outputs(service_registry, taxonomy):
    wf = compose(EMERGENCY_REQUEST, service_registry, taxonomy)
    env = GroundingEnv(stubs={
        "roster-lookup": lambda inputs: StubResult({"P": "Ravi"}),  # CN missing
        "message-send": lambda inputs: StubResult({"ACK": "x"}),
    })
    with pytest.raises(ExecutionError) as exc:
        execute(wf, env, service_registry)
    assert "CN" in exc.value.reason


def test_execution_agrees_with_plan_and_goal(service_registry, taxonomy,
                                             grounded_env):
    from fluxcompose.planner import apply_update, check_poss, satisfies_goal
    from fluxcompose.terms import Placeholder, State

    env, _ = grounded_env
    wf = compose(EMERGENCY_REQUEST, service_registry, taxonomy)
    trace = execute(wf, env, service_registry)
    # trace visits exactly the plan's steps in order
    assert [r.service for r in trace.records] == [s.name for s in wf.plan.steps]
    problem = build_problem(EMERGENCY_REQUEST, service_registry, taxonomy)
    assert validate_plan(problem, wf.plan)

    # the knowledge state after execution, with concrete values substituted
    # for placeholders, satisfies the goal
    schemas = {a.name: a for a in problem.actions}
    state = problem.initial
    for i, ga in enumerate(wf.plan.steps):
        schema = schemas[ga.name]
        bindings = next(b for b in check_poss(schema, state)
                        if all(b[p] == a for p, a in zip(schema.params, ga.args)))
        state = apply_update(schema, bindings, state, step=i + 1, _checked=True)
    resolved_by_param = {}
    for i, record in enumerate(trace.records):
        svc = service_registry.get(record.service)
        for param, value in record.outputs:
            resolved_by_param[Placeholder(svc.name, param, i + 1)] = value

    def substitute(t):
        if isinstance(t, Placeholder):
            return Constant(resolved_by_param[t])
        if isinstance(t, Compound):
            return Compound(t.functor, tuple(substitute(a) for a in t.args))
        return t

    concrete = State.from_terms([substitute(t) for t in state.fluents])
    assert satisfies_goal(concrete, problem.goal)
    assert trace.resolved_values()["ACK"].startswith("msg-")


def test_data_flow_sources_precede_consumers(service_registry, taxonomy):
    wf = compose(EMERGENCY_REQUEST, service_registry, taxonomy)
    for wire in wf.wiring:
        if isinstance(wire.source, StepSource):
            assert wire.source.step < wire.step


def test_grounding_determinism(service_registry, taxonomy, validated_roster):
    def run():
        ranked = scenario.trace_resources(validated_roster, **ORTHOPEDIC_EVENT)
        env = scenario.build_grounding_env(ranked, scenario.MessageSink())
        wf = compose(EMERGENCY_REQUEST, service_registry, taxonomy)
        return execute(wf, env, service_registry).to_lines()

    assert run() == run()

"""Poss checking, frame-preserving updates, search, and the enumeration oracle."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fluxcompose
import randgen
from fluxcompose import cli, dsl, planner
from fluxcompose.errors import FluxError, ParseError
from fluxcompose.planner import (
    GroundAction,
    NoPlanFound,
    PlanningProblem,
    PreconditionViolation,
    SearchConfig,
    apply_update,
    check_poss,
    output_binding,
    plan,
    satisfies_goal,
)
from fluxcompose.terms import (
    Compound,
    Constant,
    Placeholder,
    State,
    Variable,
    holds,
    instantiate,
    is_ground,
    is_knowledge,
    know,
    variables_in,
)
from oracles import enumerate_plans, validate_plan
from test_plan_golden import FAMILIES


def names(p):
    return [s.name for s in p.steps]


@pytest.fixture()
def find_resource(emergency_domain):
    return next(a for a in emergency_domain.actions if a.name == "findResource")


@pytest.fixture()
def notify_resource(emergency_domain):
    return next(a for a in emergency_domain.actions if a.name == "notifyResource")


# ---------------------------------------------------------------------------
# check_poss
# ---------------------------------------------------------------------------


def test_check_poss_find_resource(planning_problem, find_resource):
    got = check_poss(find_resource, planning_problem.initial)
    assert len(got) == 1
    bindings = got[0]
    assert bindings[Variable("PR")] == Constant("doctor")
    assert bindings[Variable("SP")] == Constant("orthopedics")


def test_check_poss_missing_availability(find_resource):
    state = State.from_terms([
        Compound("know", (Compound("Profession", (Constant("doctor"),)),)),
        Compound("know", (Compound("Specialization", (Constant("orthopedics"),)),)),
    ])
    assert check_poss(find_resource, state) == []


def test_check_poss_empty_poss_yields_identity():
    schema = dsl.make_action_schema("noop", [], [], [], [])
    got = check_poss(schema, State())
    assert got == [{}]


def test_check_poss_requires_ground_params():
    # a parameter not bound by poss can never be grounded, so no bindings
    schema = dsl.make_action_schema("f", [Variable("X")], [], [], [])
    assert check_poss(schema, State()) == []


# ---------------------------------------------------------------------------
# apply_update
# ---------------------------------------------------------------------------


def test_apply_update_frame_and_placeholders(planning_problem, find_resource):
    z1 = planning_problem.initial
    bindings = check_poss(find_resource, z1)[0]
    z2 = apply_update(find_resource, bindings, z1, step=1)
    # everything from Z1 persists (empty remove list)
    assert z1.fluents <= z2.fluents
    p_ph = Placeholder("findResource", "P", 1)
    cn_ph = Placeholder("findResource", "CN", 1)
    assert Compound("know", (Compound("Name", (p_ph,)),)) in z2
    assert Compound("know", (Compound("CoachNum", (cn_ph,)),)) in z2
    assert Compound("availableAt", (p_ph, cn_ph)) in z2


def test_apply_update_notify_adds_confirmation(planning_problem, find_resource,
                                               notify_resource):
    z1 = planning_problem.initial
    z2 = apply_update(find_resource, check_poss(find_resource, z1)[0], z1, step=1)
    bindings = check_poss(notify_resource, z2)[0]
    z3 = apply_update(notify_resource, bindings, z2, step=2)
    p_ph = Placeholder("findResource", "P", 1)
    cn_ph = Placeholder("findResource", "CN", 1)
    assert Compound("SendMsg", (p_ph, cn_ph, Constant("help"))) in z3
    assert Compound("know", (Constant("ConfirmSend"),)) in z3


def test_apply_update_empty_update_is_identity():
    schema = dsl.make_action_schema("noop", [], [], [], [])
    state = State.from_terms([Constant("p")])
    assert apply_update(schema, check_poss(schema, state)[0], state) == state


def test_apply_update_rejects_bad_substitution(find_resource, planning_problem):
    bad = {Variable("SP"): Constant("general"), Variable("PR"): Constant("nurse")}
    with pytest.raises(PreconditionViolation) as caught:
        apply_update(find_resource, bad, planning_problem.initial)
    # the variables are listed by name
    assert str(caught.value) == ("substitution {PR=nurse, SP=general} "
                                 "does not satisfy poss of findResource")


def test_output_binding_is_deterministic(find_resource):
    assert output_binding(find_resource, 3) == output_binding(find_resource, 3)
    assert output_binding(find_resource, 1) != output_binding(find_resource, 2)


# ---------------------------------------------------------------------------
# plan / enumerate / validate on the emergency problem
# ---------------------------------------------------------------------------


def test_plan_emergency_two_steps(planning_problem):
    got = plan(planning_problem)
    assert names(got) == ["findResource", "notifyResource"]
    assert got.steps[0].args == (Constant("doctor"), Constant("orthopedics"))
    p_ph = Placeholder("findResource", "P", 1)
    cn_ph = Placeholder("findResource", "CN", 1)
    assert got.steps[1].args == (p_ph, cn_ph, Constant("help"))
    assert got.steps[p_ph.seq - 1].name == p_ph.action == "findResource"


def test_the_search_queries_through_the_public_names(monkeypatch, planning_problem):
    # perfbench's tracer counts holds and check_poss by rebinding these names
    expected = plan(planning_problem)
    calls = {"holds": 0, "check_poss": 0}

    def counting(name):
        original = getattr(planner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(planner, name, counting(name))
    assert plan(planning_problem) == expected
    assert calls["holds"] > 0 and calls["check_poss"] > 0


def test_plan_satisfied_goal_is_empty(planning_problem):
    satisfied = PlanningProblem(
        planning_problem.initial,
        (Compound("know", (Compound("Profession", (Variable("X"),)),)),),
        planning_problem.actions)
    assert plan(satisfied).steps == ()


def test_plan_without_notify_is_no_plan(planning_problem, find_resource):
    crippled = PlanningProblem(planning_problem.initial, planning_problem.goal,
                               (find_resource,))
    with pytest.raises(NoPlanFound) as exc:
        plan(crippled, SearchConfig(max_depth=8))
    assert exc.value.depth == 8


def test_no_plan_found_names_unreachable_goal_symbols(planning_problem, find_resource):
    # nothing adds know(ConfirmSend): the symbol pass says so
    crippled = PlanningProblem(planning_problem.initial, planning_problem.goal,
                               (find_resource,))
    with pytest.raises(NoPlanFound) as exc:
        plan(crippled, SearchConfig(max_depth=5))
    assert exc.value.unreachable == ("know(ConfirmSend/0)",)
    assert exc.value.depth == 5 and str(exc.value) == "no plan within depth 5"
    # q/1 is reachable, q(a) is not, as copy adds only q(b): the
    # static-argument rule refuses it before any search and names no symbol
    x = Variable("X")
    copy = dsl.make_action_schema(
        "copy", [x], [Compound("p", (x,))],
        [Compound("q", (Constant("b"),))], [])
    problem = PlanningProblem(State.from_terms([Compound("p", (Constant("a"),))]),
                              (Compound("q", (Constant("a"),)),), (copy,))
    with pytest.raises(NoPlanFound) as exc:
        plan(problem, SearchConfig(max_depth=3))
    assert exc.value.unreachable == () and str(exc.value) == "no plan within depth 3"
    assert NoPlanFound(4).unreachable == ()


def test_early_failure_expands_no_state(monkeypatch, planning_problem, find_resource):
    def no_children(actions, state):
        raise AssertionError("the search ran")

    monkeypatch.setattr(planner, "_children", no_children)
    world_goal = (Compound("SendMsg", (Variable("P"), Variable("C"), Variable("M"))),)
    for goal in (planning_problem.goal, world_goal, planning_problem.goal + world_goal):
        crippled = PlanningProblem(planning_problem.initial, goal, (find_resource,))
        with pytest.raises(NoPlanFound) as exc:
            plan(crippled, SearchConfig(max_depth=8))
        assert exc.value.depth == 8 and exc.value.unreachable
    assert exc.value.unreachable == ("SendMsg/3", "know(ConfirmSend/0)")


@pytest.mark.parametrize("goal", ["know(know)", "know(know(p))", "know(p,p)", "know"])
def test_misused_know_in_a_goal_is_refused_as_in_a_domain(goal):
    # know is reserved, so "declare know" would name a fix that cannot be made
    domain = dsl.parse_domain("fluent p/0.\n")
    with pytest.raises(FluxError) as exc:
        planner.make_problem(domain, dsl.parse_problem(f"init: p.\ngoal: {goal}.\n"))
    with pytest.raises(ParseError) as in_domain:
        dsl.parse_domain(f"fluent p/0.\naction f() poss: update: add [{goal}] remove [].")
    assert "not declared" not in str(exc.value)
    assert str(exc.value).endswith(str(in_domain.value).split(": ", 1)[1])


@pytest.mark.parametrize("fluent, error", [
    ("know(know)", "know(know): expected a fluent inside know(...), found nested know"),
    ("know(know(p))", "know(know(p)): expected a fluent inside know(...), found nested know"),
    ("know(p,p)", "know(p,p): expected know with exactly one argument, found 'know(p,p)'"),
    ("know", "know: expected know with exactly one argument, found 'know'"),
    ("q(x)", "q/1 is not declared by the domain"),
])
def test_initial_fluents_are_checked_as_goal_fluents(tmp_path, capsys, fluent, error):
    domain_src, problem_src = "fluent p/0.\n", f"init: {fluent}.\ngoal: p.\n"
    with pytest.raises(FluxError) as exc:
        planner.make_problem(dsl.parse_domain(domain_src), dsl.parse_problem(problem_src))
    assert str(exc.value) == "initial fluent " + error
    (tmp_path / "d.fcd").write_text(domain_src)
    (tmp_path / "p.fcp").write_text(problem_src)
    code = cli.run(["plan", "--domain", str(tmp_path / "d.fcd"),
                    "--problem", str(tmp_path / "p.fcp")])
    assert (code, *capsys.readouterr()) == (2, "", f"initial fluent {error}\n")


def test_bare_variable_patterns_reach_every_symbol():
    # learn(X) copies any world fact into knowledge: a bare-variable poss
    # pattern is satisfied by any fluent, and a bare-variable add makes any
    # symbol reachable
    x = Variable("X")
    learn = dsl.make_action_schema(
        "learn", [x], [x], [Compound("know", (x,))], [])
    fact = Compound("c", (Constant("w"),))
    for goal_value in (Variable("W"), Constant("w")):
        problem = PlanningProblem(State.from_terms([fact]),
                                  (Compound("know", (Compound("c", (goal_value,)),)),),
                                  (learn,))
        got = plan(problem, SearchConfig(max_depth=2))
        assert got.steps == (planner.GroundAction("learn", (fact,)),)
        assert got == enumerate_plans(problem, 2)[0]


def test_monotone_skip_is_off_when_a_remove_list_exists():
    # a() would be skipped at the root of a monotone domain (know(c(w))
    # already holds), but b(X) removes know(c(X)): renaming a()'s output to
    # w would make that remove hit the witness, so skipping a() is unsound
    w, x, y = Variable("W"), Variable("X"), Variable("Y")
    know_c = lambda t: Compound("know", (Compound("c", (t,)),))
    a = dsl.make_action_schema("a", [], [], [know_c(y)], [])
    b = dsl.make_action_schema("b", [x], [know(Compound("c", (x,)))],
                               [Constant("flag")], [know_c(x)])
    problem = PlanningProblem(State.from_terms([know_c(Constant("w"))]),
                              (know_c(w), Constant("flag")), (a, b))
    expected = enumerate_plans(problem, 2)[0]
    assert str(expected) == "a(); b(#out_a_Y_1)"
    assert plan(problem, SearchConfig(max_depth=2)) == expected


def test_one_ground_action_reaching_two_states_keeps_plans_in_order():
    # a(k) binds Y to m or n, so the one path a(k) reaches two states; b(z1)
    # applies only in the second, and must still come first
    domain = dsl.parse_domain(
        "fluent p/2.\nfluent q/1.\nfluent r/2.\nfluent done/0.\n"
        "action a(X) poss: holds(p(X,Y)) update: add [q(Y)] remove [].\n"
        "action b(Z) poss: holds(q(Y)), holds(r(Y,Z)) update: add [done] remove [].\n")
    problem = planner.make_problem(domain, dsl.parse_problem(
        "init: p(k,m), p(k,n), r(m,z2), r(n,z1).\ngoal: done.\n"))
    all_plans = enumerate_plans(problem, 2)
    assert [str(p) for p in all_plans] == ["a(k); b(z1)", "a(k); b(z2)"]
    assert plan(problem, SearchConfig(max_depth=2)) == all_plans[0]
    for p in all_plans:
        assert validate_plan(problem, p), p


def test_enumerate_emergency_depth2_is_unique(planning_problem):
    plans = enumerate_plans(planning_problem, 2)
    assert len(plans) == 1
    assert plans[0] == plan(planning_problem)


def test_enumerate_depth0(planning_problem):
    assert enumerate_plans(planning_problem, 0) == []
    satisfied = PlanningProblem(planning_problem.initial, (), planning_problem.actions)
    got = enumerate_plans(satisfied, 0)
    assert len(got) == 1 and got[0].steps == ()


def test_validate_plan_good_and_swapped(planning_problem):
    good = plan(planning_problem)
    assert validate_plan(planning_problem, good)
    swapped = planner.Plan((good.steps[1], good.steps[0]))
    check = validate_plan(planning_problem, swapped)
    assert not check.ok and check.failed_step == 0


def test_validate_empty_plan_against_satisfied_goal(planning_problem):
    satisfied = PlanningProblem(planning_problem.initial, (), planning_problem.actions)
    assert validate_plan(satisfied, planner.Plan(()))
    check = validate_plan(planning_problem, planner.Plan(()))
    assert not check.ok and check.failed_step == 0


def test_plan_is_deterministic(planning_problem):
    a, b = plan(planning_problem), plan(planning_problem)
    assert str(a) == str(b) and a == b


def test_plan_breaks_ties_lexicographically():
    goal_fluent = Constant("done")
    mk = lambda name: dsl.make_action_schema(name, [], [], [goal_fluent], [])
    problem = PlanningProblem(State(), (goal_fluent,), (mk("zeta"), mk("alpha")))
    assert [s.name for s in plan(problem).steps] == ["alpha"]

    # same action, two bindings: smaller rendered argument wins
    pattern = Compound("p", (Variable("X"),))
    schema = dsl.make_action_schema(
        "act", [Variable("X")], [pattern], [goal_fluent], [])
    problem = PlanningProblem(
        State.from_terms([Compound("p", (Constant("b"),)),
                          Compound("p", (Constant("a"),))]),
        (goal_fluent,), (schema,))
    assert plan(problem).steps[0].args == (Constant("a"),)


def test_states_that_render_alike_are_not_merged():
    # p("x,y") and p(x,y) print the same but are different fluents: a1's
    # state must not cut a2's, whose p(x,y) alone lets a3 reach the goal
    X, Y = Variable("X"), Variable("Y")
    s, q = Constant("s"), Constant("q")
    has_s = [s]
    problem = PlanningProblem(State.from_terms([s]), (q,), (
        dsl.make_action_schema("a1", [], has_s, [Compound("p", (Constant("x,y"),))], []),
        dsl.make_action_schema("a2", [], has_s,
                               [Compound("p", (Constant("x"), Constant("y")))], []),
        dsl.make_action_schema("a3", [X, Y],
                               [Compound("p", (X, Y))], [q], []),
    ))
    expected = enumerate_plans(problem, 3)[0]
    assert str(expected) == "a2(); a3(x,y)"
    assert plan(problem) == expected


# Constant("f(a)") renders like the compound f(a): a(X) applies to both, and
# each application leads b(Y) to a different Y. Which tied fluent comes first
# must not follow the hash seed.
_TIED_TEXTS_PROBLEM = """
from fluxcompose.dsl import make_action_schema
from fluxcompose.planner import PlanningProblem, plan
from fluxcompose.terms import Compound, Constant, State, Variable, holds
from oracles import enumerate_plans

X, Y = Variable("X"), Variable("Y")
tied = (Constant("f(a)"), Compound("f", (Constant("a"),)))
init = [Compound("p", (t,)) for t in tied]
init += [Compound("s", (t, Constant(y))) for t, y in zip(tied, ("y2", "y1"))]
done = Constant("done")
problem = PlanningProblem(State.from_terms(init), (done,), (
    make_action_schema("a", [X], [Compound("p", (X,))],
                       [Compound("r", (X,))], []),
    make_action_schema("b", [Y], [Compound("r", (X,)),
                                  Compound("s", (X, Y))], [done], []),
))
"""
_TIED_TEXTS_REPORT = """
print(plan(problem), enumerate_plans(problem, 2)[0], sep="\\n")
print([repr(s[X]) for s in holds(Compound("p", (X,)), problem.initial)])
"""


def test_plan_agrees_with_the_oracle_where_texts_tie():
    names = {}
    exec(_TIED_TEXTS_PROBLEM, names)
    problem = names["problem"]
    assert plan(problem) == enumerate_plans(problem, 2)[0]


def test_plans_do_not_follow_the_hash_seed_where_texts_tie():
    src = str(Path(fluxcompose.__file__).resolve().parents[1])
    path = os.pathsep.join((src, str(Path(__file__).parent)))
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        script = _TIED_TEXTS_PROBLEM + _TIED_TEXTS_REPORT
        outputs.add(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert len(outputs) == 1
    found, oracle, _ = outputs.pop().splitlines()
    assert found == oracle


def test_ground_actions_that_render_alike_get_different_sort_keys():
    one = GroundAction("a", (Constant("f(a)"),))
    other = GroundAction("a", (Compound("f", (Constant("a"),)),))
    assert str(one) == str(other)
    assert one.sort_key() != other.sort_key()


def test_goal_matches_placeholder_valued_fluents(planning_problem, find_resource):
    z2 = apply_update(find_resource, check_poss(find_resource,
                                                planning_problem.initial)[0],
                      planning_problem.initial, step=1)
    goal = (Compound("know", (Compound("Name", (Variable("N"),)),)),)
    assert satisfies_goal(z2, goal)


# ---------------------------------------------------------------------------
# the visited-set key
# ---------------------------------------------------------------------------


def test_pruning_key_of_a_placeholder_free_state_is_the_state():
    state = State.from_terms([Constant("flag"),
                              Compound("know", (Compound("p", (Constant("a"),)),))])
    assert planner._pruning_key(state) is state


def test_pruning_key_ignores_placeholder_numbering():
    # a;b and b;a make the same fluents with their step numbers swapped
    X, Y = Variable("X"), Variable("Y")
    a = dsl.make_action_schema("a", [], [], [Compound("p", (X,))], [])
    b = dsl.make_action_schema("b", [], [], [Compound("q", (Y,))], [])

    def run(*schemas):
        state = State()
        for step, schema in enumerate(schemas, 1):
            state = apply_update(schema, check_poss(schema, state)[0], state, step=step)
        return state

    ab, ba = run(a, b), run(b, a)
    assert ab != ba
    assert planner._pruning_key(ab) == planner._pruning_key(ba)


def _assert_twins_merged(monkeypatch, problem, depth):
    """A search that finds no plan meets placeholder-renamed twins, and prunes them."""
    expanded, keys = [], []
    children, pruning_key = planner._children, planner._pruning_key

    def counting_children(actions, states):
        expanded.extend(states)
        return children(actions, states)

    def recording_key(state):
        keys.append(pruning_key(state))
        return keys[-1]

    monkeypatch.setattr(planner, "_children", counting_children)
    monkeypatch.setattr(planner, "_pruning_key", recording_key)
    with pytest.raises(NoPlanFound):
        plan(problem, SearchConfig(max_depth=depth))
    # keys[0] is the initial state's; a child key met before was a twin, cut
    assert len(set(keys)) < len(keys)
    assert len({pruning_key(s) for s in expanded}) == len(expanded)


def test_placeholders_of_the_initial_state_keep_the_renaming_key(monkeypatch):
    # no action has outputs, but pick(#1) and pick(#2) reach twins; a token
    # is never both picked and held, as pick removes what it adds picked for
    t1, t2 = Placeholder("seed", "T", 1), Placeholder("seed", "T", 2)
    x = Variable("X")
    pick = dsl.make_action_schema("pick", [x], [Compound("token", (x,))],
                                  [Compound("picked", (x,))], [Compound("token", (x,))])
    problem = PlanningProblem(State.from_terms([Compound("token", (t1,)),
                                                Compound("token", (t2,))]),
                              (Compound("picked", (x,)), Compound("token", (x,))), (pick,))
    _assert_twins_merged(monkeypatch, problem, 2)


def test_outputs_and_placeholder_adds_keep_the_renaming_key(monkeypatch):
    # make;other and other;make differ only in their placeholders' step; the
    # goal needs flag too, or other would be irrelevant and never searched.
    # A pair's two outputs are two placeholders, so pair(X,X) never holds
    o, p, x = Variable("O"), Variable("P"), Variable("X")
    make = dsl.make_action_schema("make", [], [], [Compound("pair", (o, p))], [])
    other = dsl.make_action_schema("other", [], [], [Constant("flag")], [])
    goal = (Compound("pair", (x, x)),)
    _assert_twins_merged(monkeypatch, PlanningProblem(State(), goal + (Constant("flag"),),
                                                      (make, other)), 3)
    # a1 and a2 add twins named by placeholders written into the schemas
    a1, a2 = (dsl.make_action_schema(name, [], [], [Compound("pair", phs)], [])
              for name, phs in (("a1", (Placeholder("lit", "A", 1), Placeholder("lit", "A", 2))),
                                ("a2", (Placeholder("lit", "B", 1), Placeholder("lit", "B", 2)))))
    _assert_twins_merged(monkeypatch, PlanningProblem(State(), goal, (a1, a2)), 2)


_P1, _CN1 = Placeholder("findResource", "P", 1), Placeholder("findResource", "CN", 1)


@given(st.permutations([
    Compound("availableRole", (Constant("doctor"), Constant("orthopedics"))),
    Compound("know", (Compound("Name", (_P1,)),)),
    Compound("know", (Compound("CoachNum", (_CN1,)),)),
    Compound("availableAt", (_P1, _CN1)),
    Constant("flag"),
]))
def test_pruning_key_insertion_order_invariant(perm):
    # masked texts sort availableAt(#?,#?) first, so P is renamed before CN
    ph0, ph1 = Placeholder("ph", "v", 0), Placeholder("ph", "v", 1)
    assert planner._pruning_key(State.from_terms(perm)) == State.from_terms([
        Compound("availableRole", (Constant("doctor"), Constant("orthopedics"))),
        Compound("know", (Compound("Name", (ph0,)),)),
        Compound("know", (Compound("CoachNum", (ph1,)),)),
        Compound("availableAt", (ph0, ph1)),
        Constant("flag"),
    ])


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------


def _frame_check(problem, schema, bindings, state, step):
    z2 = apply_update(schema, bindings, state, step=step, _checked=True)
    full = {**bindings, **output_binding(schema, step)}
    adds = {instantiate(t, full) for t in schema.adds}
    removes = {instantiate(t, full) for t in schema.removes}
    before = state.fluents
    after = z2.fluents
    # fluent-by-fluent: persistence, additions, and no inventions
    for f in before:
        if f not in removes:
            assert f in after
    for f in adds:
        assert f in after
    for f in after:
        assert f in before or f in adds
    assert after == (before - removes) | adds
    return z2


@given(st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_frame_property_random_domains(seed):
    rng = random.Random(seed)
    problem = randgen.random_problem(rng)
    state = problem.initial
    for step in range(1, 4):
        options = []
        for a in problem.actions:
            got = check_poss(a, state)
            # check_poss filters neither duplicates nor non-ground poss
            # variables: its docstring argues neither can occur
            assert len({frozenset(b.items()) for b in got}) == len(got)
            needed = set(a.params).union(*(variables_in(x) for x in a.poss))
            assert all(v in b and is_ground(b[v]) for b in got for v in needed)
            options += [(a, b) for b in got]
        if not options:
            break
        schema, bindings = rng.choice(options)
        state = _frame_check(problem, schema, bindings, state, step)


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_plan_agrees_with_enumeration_oracle(seed):
    rng = random.Random(seed)
    problem = randgen.random_problem(rng)
    depth = rng.randint(1, 4)
    all_plans = enumerate_plans(problem, depth)
    try:
        got = plan(problem, SearchConfig(max_depth=depth))
    except NoPlanFound:
        assert all_plans == []
        return
    assert all_plans, "plan() found a plan the oracle missed"
    assert got == all_plans[0]
    assert validate_plan(problem, got)


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_pruning_never_changes_the_result(seed):
    # service chains carry placeholders, so the visited set renames them
    problem = randgen.random_service_chain(random.Random(seed))
    all_plans = enumerate_plans(problem, 4)
    try:
        got = plan(problem, SearchConfig(max_depth=4))
    except NoPlanFound:
        assert all_plans == []
        return
    assert all_plans and got == all_plans[0]


# ---------------------------------------------------------------------------
# multi-step and unreachable families against the oracles
# ---------------------------------------------------------------------------

MULTISTEP_SEEDS = range(120)


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_check_poss_is_the_poss_conjunction_solved_by_holds(seed):
    # check_poss is the poss conjunction solved by holds from empty bindings,
    # in its order, keeping the solutions that bind every param
    rng = random.Random(seed)
    problem = getattr(randgen, rng.choice(sorted(FAMILIES)))(rng)
    state = problem.initial
    for step in range(1, 4):
        options = []
        for a in problem.actions:
            got = check_poss(a, state)
            solved = [{}]
            for pattern in a.poss:
                solved = [t for b in solved for t in holds(pattern, state, b)]
            assert got == [b for b in solved if all(p in b for p in a.params)]
            options += [(a, b) for b in got]
        if not options:
            break
        schema, bindings = rng.choice(options)
        state = apply_update(schema, bindings, state, step=step)


def test_plan_agrees_with_oracle_on_multistep_family():
    lengths = []
    for seed in MULTISTEP_SEEDS:
        rng = random.Random(seed)
        problem = randgen.random_multistep_problem(rng)
        all_plans = enumerate_plans(problem, 4)
        try:
            got = plan(problem, SearchConfig(max_depth=4))
        except NoPlanFound as exc:
            assert all_plans == [] and exc.depth == 4, seed
            lengths.append(None)
            continue
        assert all_plans and got == all_plans[0], seed
        lengths.append(len(got.steps))
    # the family is only worth its run time while it keeps its bias
    assert sum(1 for n in lengths if n is not None and n >= 2) >= len(lengths) // 2
    assert lengths.count(None) >= len(lengths) // 6


def _reachable_states(problem):
    """Every state reachable from the initial one, for placeholder-free domains."""
    seen = {problem.initial}
    todo = [problem.initial]
    while todo:
        state = todo.pop()
        for schema in problem.actions:
            for bindings in check_poss(schema, state):
                nxt = apply_update(schema, bindings, state, _checked=True)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return list(seen)


def test_unreachable_walks_stop_before_max_depth(monkeypatch):
    expanded = []
    children = planner._children

    def counting_children(actions, state):
        expanded.append(state)
        return children(actions, state)

    monkeypatch.setattr(planner, "_children", counting_children)
    checked = 0
    for seed in range(200):
        rng = random.Random(seed)
        problem = randgen.random_token_walk(rng)
        states = _reachable_states(problem)
        if any(satisfies_goal(s, problem.goal) for s in states):
            continue
        depth = len(states) + rng.randint(1, 3)
        assert enumerate_plans(problem, 4) == [], seed
        expanded.clear()
        with pytest.raises(NoPlanFound) as exc:
            plan(problem, SearchConfig(max_depth=depth))
        assert exc.value.depth == depth
        # each reachable state is expanded at most once, so the search ran
        # out of new states before it reached the depth bound
        assert len(expanded) <= len(states) < depth, seed
        checked += 1
    assert checked >= 40


REGISTRY_SEEDS = range(150)


def _plan_or_exception(problem, cfg):
    try:
        return plan(problem, cfg)
    except NoPlanFound as exc:
        return exc


def test_plan_agrees_with_oracle_on_registry_family(monkeypatch):
    expansions = []  # [children made, children applied] per expanded state
    children, update = planner._children, State.with_update

    def counting_children(actions, state):
        out = children(actions, state)
        expansions.append([len(out), 0])
        return out

    def counting_update(*args, **kwargs):
        # the search builds each child it applies with one state update
        expansions[-1][1] += 1
        return update(*args, **kwargs)

    symbol_caught = skipped = monotone = 0
    cfg = SearchConfig(max_depth=3)
    for seed in REGISTRY_SEEDS:
        problem = randgen.random_registry_problem(random.Random(seed))
        all_plans = enumerate_plans(problem, 3)
        expansions.clear()
        with monkeypatch.context() as m:
            m.setattr(planner, "_children", counting_children)
            m.setattr(State, "with_update", counting_update)
            got = _plan_or_exception(problem, cfg)
        if all_plans:
            assert got == all_plans[0], seed
        else:
            assert isinstance(got, NoPlanFound) and got.depth == 3, seed
        if isinstance(got, NoPlanFound):
            symbol_caught += bool(got.unreachable)
        else:
            expansions.pop()  # the goal was met partway through its children
        if any(a.removes for a in planner._relevant_actions(problem.goal, problem.actions)):
            # no skip without monotonicity of the searched actions: every
            # child made is built
            assert all(made == applied for made, applied in expansions), seed
        else:
            monotone += 1
            skipped += sum(made - applied for made, applied in expansions)
    # the family is only worth its run time while it keeps its bias
    assert symbol_caught >= len(REGISTRY_SEEDS) // 10
    assert len(REGISTRY_SEEDS) // 2 <= monotone < len(REGISTRY_SEEDS)
    assert skipped >= len(REGISTRY_SEEDS)


# ---------------------------------------------------------------------------
# relevance pruning
# ---------------------------------------------------------------------------


def _abstracted(fluent):
    """The fluent with each argument of its (inner) compound made a fresh variable."""
    inner = fluent.args[0] if is_knowledge(fluent) else fluent
    if isinstance(inner, Compound):
        inner = Compound(inner.functor,
                         tuple(Variable(f"D{i}") for i in range(len(inner.args))))
    return know(inner) if is_knowledge(fluent) else inner


def _distractor(rng, k, problem):
    """An action whose adds have a symbol of their own, so no goal can need it.

    Its poss reads an initial fluent, a fresh symbol or nothing; some remove
    the fluent they read, some have outputs, and some add nothing.
    """
    fresh = f"fresh{k}"
    initial = sorted(problem.initial.fluents, key=str)
    options = [[], [Constant(fresh)]]
    if initial:
        options += [[_abstracted(rng.choice(initial))]] * 2
    poss = rng.choice(options)
    first = next((v for t in poss for v in variables_in(t)), Constant("c"))
    adds = rng.choice([[], [Constant(fresh)], [Compound(fresh, (Variable("OUT"),))],
                       [know(Compound(fresh, (first,)))]])
    removes = poss if poss and rng.random() < 0.5 else []
    return dsl.make_action_schema(f"distract{k}", [], poss, adds, removes)


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_irrelevant_distractors_change_no_result(seed):
    # no family draws a bare-variable pattern, so every distractor is
    # irrelevant: the result is the one without them, and the oracle's
    rng = random.Random(seed)
    family = rng.choice(sorted(FAMILIES))
    depth = FAMILIES[family]
    base = getattr(randgen, family)(rng)
    distractors = tuple(_distractor(rng, k, base) for k in range(rng.randint(1, 3)))
    full = PlanningProblem(base.initial, base.goal, base.actions + distractors)
    cfg = SearchConfig(max_depth=depth)
    assert planner._relevant_actions(full.goal, full.actions) == \
        planner._relevant_actions(base.goal, base.actions)
    got, expected = _plan_or_exception(full, cfg), _plan_or_exception(base, cfg)
    all_plans = enumerate_plans(full, depth)
    if isinstance(expected, NoPlanFound):
        assert isinstance(got, NoPlanFound) and all_plans == []
        assert (got.depth, got.unreachable) == (expected.depth, expected.unreachable)
    else:
        assert got == expected == all_plans[0]


def test_a_bare_variable_goal_keeps_every_action():
    x = Variable("X")
    a = dsl.make_action_schema("a", [], [], [Constant("p")], [])
    b = dsl.make_action_schema("b", [], [Constant("q")], [Constant("r")], [])
    for goal in ((x,), (know(x),), (Constant("p"), x)):
        assert list(planner._relevant_actions(goal, (a, b))) == [a, b]
    assert planner._relevant_actions((Constant("p"),), (a, b)) == [a]


def test_a_bare_variable_poss_in_a_relevant_action_keeps_every_action():
    x, goal = Variable("X"), (Constant("p"),)
    learn = dsl.make_action_schema("learn", [x], [x], [Constant("p")], [])
    check = dsl.make_action_schema("check", [], [Constant("s")], [Constant("p")], [])
    other = dsl.make_action_schema("other", [], [], [Constant("r")], [])
    assert list(planner._relevant_actions(goal, (learn, other))) == [learn, other]
    assert planner._relevant_actions(goal, (check, other)) == [check]
    # the same bare-variable poss in an irrelevant action keeps nothing extra
    idle = dsl.make_action_schema("idle", [x], [x], [Constant("r")], [])
    assert planner._relevant_actions(goal, (check, idle)) == [check]


def test_a_bare_variable_add_makes_its_action_relevant():
    # copy(X) adds the fluent X, so it may add the goal: copy is relevant,
    # and the item its poss reads makes mint relevant in turn
    x, o = Variable("X"), Variable("O")
    copy = dsl.make_action_schema("copy", [x], [Compound("item", (x,))], [x], [])
    mint = dsl.make_action_schema("mint", [], [], [Compound("item", (o,))], [])
    other = dsl.make_action_schema("other", [], [], [Constant("r")], [])
    goal = (Constant("done"),)
    assert planner._relevant_actions(goal, (copy, mint, other)) == [copy, mint]
    problem = PlanningProblem(State.from_terms([Compound("item", (Constant("done"),))]),
                              goal, (copy, mint, other))
    got = plan(problem, SearchConfig(max_depth=2))
    assert str(got) == "copy(done)" and got == enumerate_plans(problem, 2)[0]


def test_a_goal_no_action_adds_runs_dry_without_naming_symbols(monkeypatch):
    # p/2 is in the initial state, so early failure passes, and p(X,X) has no
    # fixed argument for the static-argument rule; no action adds p, so none
    # is relevant and the search expands only the initial state
    expanded = []
    children = planner._children

    def recording_children(actions, states):
        expanded.append(list(actions))
        return children(actions, states)

    monkeypatch.setattr(planner, "_children", recording_children)
    x, y = Variable("X"), Variable("Y")
    grow = dsl.make_action_schema("grow", [x], [Compound("p", (x, y))],
                                  [Compound("q", (x,))], [])
    problem = PlanningProblem(State.from_terms([Compound("p", (Constant("a"), Constant("b")))]),
                              (Compound("p", (x, x)),), (grow,))
    with pytest.raises(NoPlanFound) as exc:
        plan(problem, SearchConfig(max_depth=4))
    assert (exc.value.depth, exc.value.unreachable) == (4, ())
    assert expanded == [[]] and enumerate_plans(problem, 4) == []


def test_an_irrelevant_action_never_reaches_children(monkeypatch, planning_problem):
    searched = []
    children = planner._children

    def recording_children(actions, states):
        searched.extend(actions)
        return children(actions, states)

    pr, o = Variable("PR"), Variable("O")
    gossip = dsl.make_action_schema("gossip", [pr], [know(Compound("Profession", (pr,)))],
                                    [Compound("chatter", (pr, o))], [])
    full = PlanningProblem(planning_problem.initial, planning_problem.goal,
                           planning_problem.actions + (gossip,))
    monkeypatch.setattr(planner, "_children", recording_children)
    got = plan(full)
    assert got == plan(planning_problem)
    assert searched and all(a is not gossip for a in searched)


# ---------------------------------------------------------------------------
# static-argument early failure
# ---------------------------------------------------------------------------

_MOVE = ("fluent at/1.\nfluent link/2.\n"
         "action move(X,Y) poss: holds(at(X)), holds(link(X,Y)) "
         "update: add [at(Y)] remove [at(X)].\n")


def _parsed(domain, problem, *extra_actions):
    parsed = planner.make_problem(dsl.parse_domain(domain), dsl.parse_problem(problem))
    return PlanningProblem(parsed.initial, parsed.goal, parsed.actions + extra_actions)


@pytest.mark.parametrize("problem", [
    # t0 links into the chain, and no link leads into t0
    _parsed(_MOVE, "init: at(n0), link(n0,n1), link(n1,n2), link(t0,n0).\ngoal: at(t0)."),
    # learn knows only what the static src holds, and src holds a alone
    _parsed("fluent src/1.\nfluent c/1.\naction learn(X) poss: holds(src(X)) "
            "update: add [know(c(X))] remove [].\n", "init: src(a).\ngoal: know(c(b))."),
    # make's output takes a fresh placeholder, never the constant c
    _parsed("fluent item/1.\naction make() poss: update: add [item(O)] remove [].\n",
            "init: .\ngoal: item(c)."),
    # switch adds mode(on), and the goal wants mode(off)
    _parsed("fluent mode/1.\nfluent power/0.\naction switch() poss: holds(power) "
            "update: add [mode(on)] remove [].\n", "init: power.\ngoal: mode(off)."),
], ids=["move-chain", "know", "output", "ground-add"])
def test_static_argument_failure_decides_before_any_search(monkeypatch, problem):
    def no_children(actions, states):
        raise AssertionError("the search ran")

    assert enumerate_plans(problem, 4) == []
    monkeypatch.setattr(planner, "_children", no_children)
    with pytest.raises(NoPlanFound) as exc:
        plan(problem, SearchConfig(max_depth=4))
    assert (exc.value.depth, exc.value.unreachable) == (4, ())


_W = Variable("W")


@pytest.mark.parametrize("problem", [
    # bridge adds a link, so link is not static
    _parsed(_MOVE + "action bridge(X) poss: holds(at(X)) update: add [link(X,t0)] remove [].\n",
            "init: at(n0), link(n0,n1).\ngoal: at(t0)."),
    # conjure's bare-variable add can add any fluent, a link included
    _parsed(_MOVE + "fluent wish/1.\n", "init: at(n0), link(n0,n1), wish(link(n1,t0)).\n"
            "goal: at(t0).",
            dsl.make_action_schema("conjure", [_W], [Compound("wish", (_W,))], [_W], [])),
    # the goal names make's placeholder, which is not a fixed argument
    PlanningProblem(State(), (Compound("item", (Placeholder("make", "O", 1),)),),
                    (dsl.make_action_schema("make", [], [], [Compound("item", (Variable("O"),))],
                                            []),)),
    # Y is only nested in the static crate, so it may be t0
    _parsed(_MOVE + "fluent crate/2.\naction unpack(X,Y) poss: holds(at(X)), "
            "holds(crate(X,box(Y))) update: add [at(Y)] remove [].\n",
            "init: at(n0), crate(n0,box(t0)).\ngoal: at(t0)."),
    # go's bare-variable poss pattern reads Y as a whole world fluent, one that make adds
    PlanningProblem(State(), (Compound("at", (Constant("t0"),)),),
                    (dsl.make_action_schema("make", [], [], [Constant("t0")], []),
                     dsl.make_action_schema("go", [Variable("Y")], [Variable("Y")],
                                            [Compound("at", (Variable("Y"),))], []))),
    # learn reads X from the known, static src, and src(b) is known
    _parsed("fluent src/1.\nfluent c/1.\naction learn(X) poss: knows_val(src(X)) "
            "update: add [know(c(X))] remove [].\n", "init: know(src(a)), know(src(b)).\n"
            "goal: know(c(b))."),
    # ready is a 0-ary poss pattern beside the static road
    _parsed("fluent at/1.\nfluent ready/0.\nfluent road/1.\naction go(Y) poss: holds(ready), "
            "holds(road(Y)) update: add [at(Y)] remove [].\n", "init: ready, road(t0).\ngoal: at(t0)."),
    # link(n0,n1) is static and no action adds it, but it holds from the start
    _parsed(_MOVE, "init: at(n0), link(n0,n1), link(n1,n2).\ngoal: link(n0,n1), at(n2)."),
], ids=["added", "bare-variable-add", "placeholder", "nested", "bare-variable-poss",
         "know-poss", "0-ary-poss", "initial"])
def test_static_argument_failure_keeps_every_plan(problem):
    expected = enumerate_plans(problem, 3)
    assert expected
    assert plan(problem, SearchConfig(max_depth=3)) == expected[0]


def test_a_goal_without_a_fixed_argument_reads_no_action():
    class Unread(tuple):
        def __iter__(self):
            raise AssertionError("an action was read")

    x = Variable("X")
    for goal in ((know(Compound("C", (x,))),), (know(x),), (Constant("flag"),),
                 (Compound("p", (x, x)), Compound("q", (Placeholder("a", "O", 1),)))):
        problem = PlanningProblem(State.from_terms([Constant("s")]), goal, Unread())
        assert not planner._static_failure(problem, set())

"""Seeded random generators shared by property and acceptance tests.

Everything here builds values directly (not via the parsers), so the tests
exercising parsers and loaders stay independent of these constructions.
"""

from __future__ import annotations

import random
from dataclasses import replace

from fluxcompose.composer import CompositionRequest
from fluxcompose.dsl import ActionSchema, DomainFile, make_action_schema
from fluxcompose.ontology import TaxonomyGraph
from fluxcompose.planner import PlanningProblem, check_poss
from fluxcompose.registry import Registry, ServiceDescription
from fluxcompose.scenario import Passenger, Role, Roster, TravelPlan
from fluxcompose.terms import Compound, Constant, State, Term, Variable, know

from datetime import date as Date


# ---------------------------------------------------------------------------
# Random planning domains
# ---------------------------------------------------------------------------


def _random_args(rng: random.Random, arity: int, vars_pool: list[Variable],
                 constants: list[Constant], var_prob: float) -> tuple[Term, ...]:
    args: list[Term] = []
    for _ in range(arity):
        if vars_pool and rng.random() < var_prob:
            args.append(rng.choice(vars_pool))
        else:
            args.append(rng.choice(constants))
    return tuple(args)


def _make_pattern(name: str, args: tuple[Term, ...]) -> Term:
    return Compound(name, args) if args else Constant(name)


def random_problem(rng: random.Random, max_actions: int = 5,
                   max_fluents: int = 8, branching_cap: int = 8) -> PlanningProblem:
    """A small random planning problem with bounded initial branching.

    Fluent symbols split into world relations and knowledge value slots; every
    action grounds its parameters through its poss atoms so it can actually
    fire. Problems whose initial branching exceeds the cap are resampled, as
    are most problems whose goal is already satisfied initially (a sliver is
    kept so the empty-plan path stays covered).
    """
    from fluxcompose.planner import satisfies_goal

    problem = _try_random_problem(rng, max_actions, max_fluents)
    for _ in range(200):
        width = sum(len(check_poss(a, problem.initial)) for a in problem.actions)
        if width <= branching_cap:
            if not satisfies_goal(problem.initial, problem.goal):
                return problem
            if rng.random() < 0.1:
                return problem
        problem = _try_random_problem(rng, max_actions, max_fluents)
    return problem


def _try_random_problem(rng: random.Random, max_actions: int,
                        max_fluents: int) -> PlanningProblem:
    constants = [Constant(c) for c in ("a", "b", "c")[: rng.randint(2, 3)]]
    n_world = rng.randint(2, max(2, max_fluents - 2))
    world_syms = [(f"f{i}", rng.randint(0, 2)) for i in range(n_world)]
    know_syms = [f"g{i}" for i in range(rng.randint(1, 2))]

    initial: list[Term] = []
    for _ in range(rng.randint(1, 5)):
        name, arity = rng.choice(world_syms)
        initial.append(_make_pattern(name, _random_args(rng, arity, [], constants, 0.0)))
    for _ in range(rng.randint(0, 1)):
        g = rng.choice(know_syms)
        initial.append(Compound("know", (Compound(g, (rng.choice(constants),)),)))

    initial_world = [t for t in initial
                     if not (isinstance(t, Compound) and t.functor == "know")]

    actions: list[ActionSchema] = []
    for i in range(rng.randint(1, max_actions)):
        params = [Variable(f"X{j}") for j in range(rng.randint(0, 2))]
        poss: list[Term] = []
        unbound = list(params)
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.35 and know_syms:
                g = rng.choice(know_syms)
                arg = unbound.pop() if unbound else (
                    rng.choice(params) if params and rng.random() < 0.5
                    else rng.choice(constants))
                poss.append(know(Compound(g, (arg,))))
            elif rng.random() < 0.75:
                # abstract an actual initial fluent so the atom is satisfiable
                base = rng.choice(initial_world)
                base_args = base.args if isinstance(base, Compound) else ()
                args: list[Term] = []
                for orig in base_args:
                    if unbound:
                        args.append(unbound.pop())
                    elif params and rng.random() < 0.4:
                        args.append(rng.choice(params))
                    else:
                        args.append(orig)
                name = base.functor if isinstance(base, Compound) else base.name
                poss.append(_make_pattern(name, tuple(args)))
            else:
                name, arity = rng.choice(world_syms)
                args = []
                for _ in range(arity):
                    if unbound:
                        args.append(unbound.pop())
                    elif params and rng.random() < 0.5:
                        args.append(rng.choice(params))
                    else:
                        args.append(rng.choice(constants))
                poss.append(_make_pattern(name, tuple(args)))
        while unbound:
            # leftover params must be bound somewhere to keep the action live
            base = rng.choice(initial_world) if rng.random() < 0.7 else None
            if base is not None and isinstance(base, Compound) and base.args:
                args = [unbound.pop() if unbound else orig for orig in base.args]
                poss.append(Compound(base.functor, tuple(args)))
            else:
                candidates = [s for s in world_syms if s[1] > 0] or [("f0", 1)]
                name, arity = rng.choice(candidates)
                args = [unbound.pop() if unbound else rng.choice(constants)
                        for _ in range(arity)]
                poss.append(Compound(name, tuple(args)))

        bound_vars = list(params)
        for pattern in poss:
            for v in _pattern_vars(pattern):
                if v not in bound_vars:
                    bound_vars.append(v)

        adds: list[Term] = []
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5 and know_syms:
                out = Variable(f"OUT{len(adds)}")
                adds.append(Compound("know", (Compound(rng.choice(know_syms), (out,)),)))
            else:
                name, arity = rng.choice(world_syms)
                adds.append(_make_pattern(
                    name, _random_args(rng, arity, bound_vars, constants, 0.5)))
        removes: list[Term] = []
        if rng.random() < 0.5:
            name, arity = rng.choice(world_syms)
            removes.append(_make_pattern(
                name, _random_args(rng, arity, bound_vars, constants, 0.5)))
        actions.append(make_action_schema(f"act{i}", params, poss, adds, removes))

    # Chain injection: make one action depend on knowledge only another
    # action produces, so multi-step plans show up regularly.
    preferred_adds: list[Term] = []
    if rng.random() < 0.6 and len(actions) >= 2:
        producers = [(a, t) for a in actions for t in a.adds
                     if isinstance(t, Compound) and t.functor == "know"]
        if producers:
            producer, know_add = rng.choice(producers)
            g = know_add.args[0].functor
            consumers = [a for a in actions if a.name != producer.name and a.adds]
            if consumers:
                consumer = rng.choice(consumers)
                chained = make_action_schema(
                    consumer.name, consumer.params,
                    consumer.poss + (know(Compound(g, (Variable("K0"),))),),
                    consumer.adds, consumer.removes)
                actions[actions.index(consumer)] = chained
                initial = [t for t in initial
                           if not (isinstance(t, Compound) and t.functor == "know"
                                   and t.args[0].functor == g)]
                preferred_adds = list(chained.adds)

    # Bias goals toward add-effects so plans usually need at least one step;
    # a fresh variable per slot keeps each goal existential.
    counter = [0]

    def generalize(t: Term) -> Term:
        if isinstance(t, Variable):
            counter[0] += 1
            return Variable(f"W{counter[0]}")
        if isinstance(t, Compound):
            return Compound(t.functor, tuple(generalize(a) for a in t.args))
        return t

    achievable: list[Term] = []
    for a in actions:
        achievable.extend(generalize(t) for t in a.adds)
    preferred = [generalize(t) for t in preferred_adds]
    goal: list[Term] = []
    for _ in range(rng.randint(1, 2)):
        if preferred and rng.random() < 0.8:
            goal.append(rng.choice(preferred))
        elif achievable and rng.random() < 0.8:
            goal.append(rng.choice(achievable))
        elif rng.random() < 0.5 and know_syms:
            goal.append(Compound("know", (Compound(rng.choice(know_syms),
                                                   (Variable("W0"),)),)))
        else:
            name, arity = rng.choice(world_syms)
            goal.append(_make_pattern(
                name, _random_args(rng, arity, [Variable("W0")], constants, 0.3)))
    return PlanningProblem(State.from_terms(initial), tuple(goal), tuple(actions))


def _pattern_vars(t: Term) -> list[Variable]:
    if isinstance(t, Variable):
        return [t]
    if isinstance(t, Compound):
        out: list[Variable] = []
        for a in t.args:
            out.extend(_pattern_vars(a))
        return out
    return []


# ---------------------------------------------------------------------------
# Problem families biased toward multi-step plans
# ---------------------------------------------------------------------------


def random_multistep_problem(rng: random.Random) -> PlanningProblem:
    """A service chain (monotone) or a token walk (non-monotone), half each."""
    if rng.random() < 0.5:
        return random_service_chain(rng)
    return random_token_walk(rng)


def random_service_chain(rng: random.Random) -> PlanningProblem:
    """Services passing a value along concepts c0 -> c1 -> ... -> cL, L = 2..4.

    Monotone: no remove lists, and every application adds a fresh output
    placeholder, so repeated services lead to new states. Service names are
    drawn at random, so the canonical order of siblings varies. Dead-end
    services consume chain concepts, a second producer of a chain concept
    makes ties or a shortcut, and about one chain in five misses a link, which
    makes the goal unreachable.
    """
    length = rng.randint(2, 4)
    names = rng.sample("abcdefghijklmnopqrstuvwxyz", length + 3)
    x, out = Variable("X"), Variable("OUT")

    def service(name: str, src: str, dst: str) -> ActionSchema:
        return make_action_schema(
            name, [x], [know(Compound(src, (x,)))],
            [Compound("know", (Compound(dst, (out,)),))], [])

    actions = [service(f"{names[i]}{i}", f"c{i}", f"c{i + 1}") for i in range(length)]
    if rng.random() < 0.2:
        del actions[rng.randrange(length)]
    for j in range(rng.randint(0, 2)):
        actions.append(service(f"{names[length + j]}dead{j}",
                               f"c{rng.randrange(length)}", f"dead{j}"))
    if rng.random() < 0.5:
        dst = rng.randint(1, length)
        src = rng.randint(max(0, dst - 2), dst - 1)
        actions.append(service(f"{names[-1]}alt", f"c{src}", f"c{dst}"))
    initial = [Compound("know", (Compound("c0", (Constant(rng.choice("ab")),)),))]
    goal = (Compound("know", (Compound(f"c{length}", (Variable("W"),)),)),)
    return PlanningProblem(State.from_terms(initial), goal, tuple(actions))


def random_token_walk(rng: random.Random) -> PlanningProblem:
    """A token moving over nodes n0..nK (K = 2..4), raising and lowering flags.

    Non-monotone and placeholder-free: move(X,Y) removes at(X) and lower<i>
    removes flag<i>, so at most (K + 1) * 2**flags states are reachable. The
    goal asks for the token at a node two or more links down the spine,
    sometimes with a flag raised. About a third of the goals are unreachable
    by construction: either a node t that only links into the graph, or the
    token at two nodes at once, which ignoring remove lists would call
    reachable. Missing spine links and flags make more.
    """
    k = rng.randint(2, 4)
    nodes = [Constant(f"n{i}") for i in range(k + 1)]
    links = {(nodes[i], nodes[i + 1]) for i in range(k) if rng.random() < 0.9}
    for _ in range(rng.randint(1, k)):
        links.add((rng.choice(nodes), rng.choice(nodes)))
    x, y = Variable("X"), Variable("Y")

    def at(node: Term) -> Compound:
        return Compound("at", (node,))

    actions = [make_action_schema(
        "move", [x, y], [at(x), Compound("link", (x, y))],
        [at(y)], [at(x)])]
    flags = [Constant(f"flag{i}") for i in range(rng.randint(0, 2))]
    for i, flag in enumerate(flags):
        actions.append(make_action_schema(
            f"raise{i}", [], [at(rng.choice(nodes))], [flag], []))
        actions.append(make_action_schema(
            f"lower{i}", [], [at(rng.choice(nodes)), flag],
            [], [flag]))

    goal: list[Term] = [at(rng.choice(nodes[2:]))]
    roll = rng.random()
    if roll < 0.2:
        target = Constant("t")
        links.add((target, nodes[0]))
        goal = [at(target)]
    elif roll < 0.35:
        goal.append(at(rng.choice([n for n in nodes if at(n) != goal[0]])))
    if flags and rng.random() < 0.5:
        goal.append(rng.choice(flags))
    initial = [at(nodes[0])] + [Compound("link", link) for link in links]
    return PlanningProblem(State.from_terms(initial), tuple(goal), tuple(actions))


def random_registry_problem(rng: random.Random) -> PlanningProblem:
    """Typed services over concepts c0..cL (L = 2..3), shaped as compiled registries.

    A service takes 1-2 inputs, know(C(X)), and gives 1-2 outputs,
    know(D(O)); now and then one output value is filed under two concepts.
    Some services also need a world fact (ready(X) or open) or add one. Each
    concept c1..cL has one or two producers fed by earlier concepts, and
    distractors lead into dead-end concepts. The goal asks for cL, sometimes
    with a second concept or with ready of the same value. About one goal in
    five wants a concept no service produces (lost). About one problem in
    four is non-monotone: one service removes one of its input facts or a
    world fact.
    """
    length = rng.randint(2, 3)
    names = iter(rng.sample("abcdefghijklmnopqrstuvwxyz", 12))
    xs, outs = (Variable("X0"), Variable("X1")), (Variable("O0"), Variable("O1"))
    is_open = Constant("open")

    def ready(value: Term) -> Compound:
        return Compound("ready", (value,))

    def known(concept: str, value: Term) -> Compound:
        return know(Compound(concept, (value,)))

    def service(label: str, ins: list[str], gives: list[str]) -> ActionSchema:
        shared = len(gives) == 2 and rng.random() < 0.3
        poss = [known(c, xs[j]) for j, c in enumerate(ins)]
        adds: list[Term] = [known(c, outs[0 if shared else j]) for j, c in enumerate(gives)]
        if rng.random() < 0.25:
            poss.append(rng.choice((ready(xs[0]), is_open)))
        if rng.random() < 0.25:
            adds.append(rng.choice((ready(xs[0]), ready(outs[0]), is_open)))
        return make_action_schema(next(names) + label, xs[:len(ins)], poss, adds, [])

    def inputs(upto: int) -> list[str]:
        return rng.sample([f"c{i}" for i in range(upto)], rng.randint(1, min(2, upto)))

    actions = []
    for i in range(1, length + 1):
        for _ in range(rng.randint(1, 2)):
            extra = [f"c{rng.randint(1, length)}"] if rng.random() < 0.3 else []
            actions.append(service(str(i), inputs(i), list(dict.fromkeys([f"c{i}"] + extra))))
    for j in range(rng.randint(0, 2)):
        actions.append(service(f"dead{j}", inputs(length), [f"dead{j}"]))
    if rng.random() < 0.25:
        k = rng.randrange(len(actions))
        victim = actions[k]
        removed = rng.choice((victim.poss[0], ready(xs[0]), is_open))
        actions[k] = make_action_schema(victim.name, victim.params, victim.poss,
                                        victim.adds, [removed])

    initial: list[Term] = [known("c0", Constant("a"))]
    if rng.random() < 0.5:
        initial.append(known("c0", Constant("b")))
    if rng.random() < 0.5:
        initial.append(ready(Constant("a")))
    if rng.random() < 0.5:
        initial.append(is_open)
    w = Variable("W")
    goal: list[Term] = [known(f"c{length}", w)]
    roll = rng.random()
    if roll < 0.2:
        goal.append(known("lost", Variable("W1")))
    elif roll < 0.4:
        goal.append(known(f"c{rng.randint(1, length)}", w))
    elif roll < 0.55:
        goal.append(ready(w))
    elif roll < 0.7:
        goal.append(known(f"c{rng.randint(1, length)}", Variable("W1")))
    rng.shuffle(goal)
    return PlanningProblem(State.from_terms(initial), tuple(goal), tuple(actions))


# Request values: "k" may be named by an action, and "#x" plans without the
# composer's memo; the rest tie and flip in text order against each other and
# against "#", the first character of every placeholder text.
REQUEST_VALUES = ("a", "b", "B", "ab", "k", "z", "_", "#x")


def random_registry_request(rng: random.Random
                            ) -> tuple[Registry, TaxonomyGraph, CompositionRequest]:
    """A registry, taxonomy and request shaped as `random_registry_problem`'s problems.

    Concepts c0..cL (L = 2..3), with c0s under c0, so a value held at c0s is
    known at c0 too. A service takes 1-2 inputs and gives 1-2 outputs, now
    and then filing one output under a second concept; some need ready of an
    input, open, or ready(k), some add ready of an input or an output, or
    open, and about one registry in four has a service that removes one of
    its input facts, ready of an input, or open. Distractors lead into dead.
    The request holds 1-3 values from REQUEST_VALUES at c0 or c0s, ready of
    some of them, and sometimes open or ready(k); it wants cL, sometimes with
    a second concept or with lost, which nothing produces.
    """
    length = rng.randint(2, 3)
    concepts = [f"c{i}" for i in range(length + 1)]
    g = TaxonomyGraph(frozenset(concepts + ["c0s", "dead", "lost"]),
                      {"c0s": frozenset({"c0"})})
    names = iter(rng.sample("abcdefghijklmnopqrstuvwxyz", 12))
    x0, o0, is_open = Variable("X0"), Variable("O0"), Constant("open")

    def ready(value: Term) -> Compound:
        return Compound("ready", (value,))

    services: list[ServiceDescription] = []

    def service(label: str, ins: list[str], gives: list[str]) -> None:
        pre = [rng.choice((ready(x0), is_open, ready(Constant("k"))))] \
            if rng.random() < 0.3 else []
        adds = [rng.choice((ready(x0), ready(o0), is_open))] if rng.random() < 0.25 else []
        if rng.random() < 0.2:
            adds.append(know(Compound(rng.choice(concepts[1:]), (o0,))))
        services.append(ServiceDescription(
            next(names) + label, "", tuple((f"X{j}", c) for j, c in enumerate(ins)),
            tuple((f"O{j}", c) for j, c in enumerate(gives)), tuple(pre), tuple(adds), (),
            "stub"))

    for i in range(1, length + 1):
        for _ in range(rng.randint(1, 2)):
            ins = rng.sample(concepts[:i], rng.randint(1, min(2, i)))
            service(str(i), ins, [f"c{i}"] + (["dead"] if rng.random() < 0.1 else []))
    for j in range(rng.randint(0, 2)):
        service(f"dead{j}", rng.sample(concepts[:length], 1), ["dead"])
    if rng.random() < 0.25:
        k = rng.randrange(len(services))
        victim = services[k]
        removed = rng.choice((know(Compound(victim.inputs[0][1], (x0,))), ready(x0), is_open))
        services[k] = replace(victim, extra_removes=(removed,))

    have = tuple((rng.choice(("c0", "c0s")), rng.choice(REQUEST_VALUES))
                 for _ in range(rng.randint(1, 3)))
    facts: list[Term] = [ready(Constant(v)) for _, v in have if rng.random() < 0.4]
    if rng.random() < 0.5:
        facts.append(is_open)
    if rng.random() < 0.3:
        facts.append(ready(Constant("k")))
    want = [f"c{length}"]
    roll = rng.random()
    if roll < 0.2:
        want.append("lost")
    elif roll < 0.5:
        want.append(f"c{rng.randint(1, length)}")
    rng.shuffle(want)
    return (Registry({s.name: s for s in services}), g,
            CompositionRequest(have, tuple(want), tuple(dict.fromkeys(facts))))


# ---------------------------------------------------------------------------
# Random domain files (for parser round trips)
# ---------------------------------------------------------------------------


def random_domain_file(rng: random.Random) -> DomainFile:
    """A well-formed DomainFile value for parse/pretty-print round trips."""
    styles = ("fl{}", "Sym{}", "aB{}")
    n_fluents = rng.randint(0, 5)
    decls = [(rng.choice(styles).format(i), rng.randint(0, 3))
             for i in range(n_fluents)]
    constants = [Constant(c) for c in ("a", "b", "topic")]

    actions = []
    for i in range(rng.randint(0, 3) if decls else 0):
        params = [Variable(f"V{j}") for j in range(rng.randint(0, 3))]
        extra_vars = [Variable(f"E{j}") for j in range(2)]
        pool = params + extra_vars

        def term_of(name: str, arity: int, vars_pool: list[Variable]) -> Term:
            return _make_pattern(
                name, _random_args(rng, arity, vars_pool, constants, 0.5))

        poss = []
        for _ in range(rng.randint(0, 2)):
            name, arity = rng.choice(decls)
            knowledge = rng.choice((False, True))
            pattern = term_of(name, arity, pool)
            poss.append(know(pattern) if knowledge else pattern)
        bound = list(params)
        for pattern in poss:
            for v in _pattern_vars(pattern):
                if v not in bound:
                    bound.append(v)
        adds = []
        for j in range(rng.randint(0, 3)):
            name, arity = rng.choice(decls)
            inner = term_of(name, arity, pool + [Variable(f"O{j}")])
            adds.append(Compound("know", (inner,)) if rng.random() < 0.4 else inner)
        removes = []
        for _ in range(rng.randint(0, 2)):
            name, arity = rng.choice(decls)
            removes.append(term_of(name, arity, bound))
        actions.append(make_action_schema(f"act{i}", params, poss, adds, removes))
    return DomainFile(tuple(decls), tuple(actions))


# ---------------------------------------------------------------------------
# Random taxonomy DAGs
# ---------------------------------------------------------------------------


def random_dag_source(rng: random.Random, max_nodes: int = 30):
    """Taxonomy source text plus the parent map it encodes (acyclic by construction)."""
    n = rng.randint(1, max_nodes)
    lines = ["root C0"]
    parents: dict[str, set[str]] = {"C0": set()}
    for i in range(1, n):
        name = f"C{i}"
        parents[name] = set()
        k = rng.randint(0, min(i, 2))
        for parent_ix in rng.sample(range(i), k):
            parents[name].add(f"C{parent_ix}")
        if not parents[name]:
            lines.append(f"root {name}")
        else:
            lines.extend(f"concept {name} subClassOf {p}"
                         for p in sorted(parents[name]))
    return "\n".join(lines), parents


# ---------------------------------------------------------------------------
# Random rosters and events
# ---------------------------------------------------------------------------

PROFESSIONS = ("doctor", "nurse", "paramedic", "pharmacist", "engineer", "cook")
SPECIALIZATIONS = ("Orthopedics", "Cardiology", "GeneralMedicine", None)


def random_roster(rng: random.Random, max_passengers: int = 200,
                  max_coaches: int = 26, names: tuple[str, ...] = ()) -> Roster:
    """A roster of unique pnrs; names are unique too unless a pool is given."""
    coaches = tuple(f"S{i}" for i in range(1, rng.randint(2, max_coaches) + 1))
    passengers = []
    for i in range(rng.randint(1, max_passengers)):
        role = rng.choice((Role.PATIENT, Role.DELIVERY_PERSONNEL,
                           Role.DELIVERY_PERSONNEL, Role.NONE))
        profession = rng.choice(PROFESSIONS) if role is Role.DELIVERY_PERSONNEL else None
        name = rng.choice(names) if names else f"N{i:04d}"
        passengers.append(Passenger(
            pnr=f"P{i:04d}", name=name, coach=rng.choice(coaches),
            seat=rng.randint(1, 72), role=role, profession=profession,
            specialization=rng.choice(SPECIALIZATIONS),
            registered_for_service=rng.random() < 0.8,
            illness=None, medication=None, medicine_in_hand=None,
            travel=TravelPlan(origin="A", destination="B", journey_date=Date(2011, 11, 5),
                              validated=rng.random() < 0.7),
        ))
    return Roster(tuple(passengers), coaches)

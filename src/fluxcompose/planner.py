"""Progression-based forward-search planner over fluent-calculus schemas.

Planning moves the initial state forward through action applications. Each
application checks the schema's poss conjunction, binds output variables to
fresh deterministic placeholders, and applies the add/remove update; every
fluent not removed persists, which is the whole point of the update axioms.

The search is breadth-first with canonical child ordering (action name, then
arguments by `order_key`), so the returned plan is the shortest,
lexicographically first among equals. Five rules, always on, shrink it: a
goal symbol that no action sequence can produce fails at once, without a
search; so does a goal pattern that wants, at a ground argument, a value that
neither an initial fluent nor any add can give it, a variable read from a
relation no action of the first rule's closure adds (a static one) taking
only that relation's initial values; only the actions that can add a fluent
the goal needs, directly or through the poss of another such action, are
searched; in a domain without remove lists an application whose adds already
hold is never made; and a state seen before, up to placeholder renaming, is
not queued again. The visited set holds states, with placeholders renamed
when the problem can make any; no state or substitution is named by its
text. The symbol sets and add sources the first three rules read are
computed once per `ActionSchema`. `plan` gives the soundness argument for
the five rules; the tests check it against an unpruned enumeration of every
plan.

The search's bindings are plain dicts of variables to ground terms: a solve
starts empty and every fluent is ground, so no binding needs re-resolving.
Poss, the monotone skip and the goal test query `terms.extensions` with
them, a step's args are read from them, and `apply_update` builds a child
from them with `terms.instantiate`. `check_poss` wraps the same bindings in
`Substitution`s for callers outside the search.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .dsl import ActionSchema, DomainFile, ProblemFile, know_misuse
from .errors import FluxError
from .terms import (
    Compound,
    Constant,
    Placeholder,
    State,
    Substitution,
    Term,
    Variable,
    extensions,
    fluent_symbol,
    has_placeholder,
    instantiate,
    is_ground,
    is_knowledge,
    order_key,
    pattern_symbol,
)

# A search binding: variables to ground terms (see `terms.extensions`).
Bindings = dict[Variable, Term]


class NoPlanFound(FluxError):
    """No action sequence within the depth bound reaches the goal.

    ``unreachable`` names the goal symbols no action sequence of any length
    can produce, sorted (``name/arity``, or ``know(name/arity)`` for
    knowledge). It is empty when the search itself ran out, and when the
    static-argument rule decided: there every goal symbol can be produced,
    but not with the wanted arguments.
    """

    def __init__(self, depth: int, unreachable: tuple[str, ...] = ()):
        self.depth = depth
        self.unreachable = unreachable
        super().__init__(f"no plan within depth {depth}")


class PreconditionViolation(FluxError):
    """A substitution passed to apply_update does not satisfy the schema's poss."""


@dataclass(frozen=True)
class SearchConfig:
    max_depth: int = 8

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise FluxError("max_depth must be >= 1")


@dataclass(frozen=True)
class GroundAction:
    name: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        return "%s(%s)" % (self.name, ",".join(str(a) for a in self.args))

    def sort_key(self) -> tuple:
        return (self.name, order_key(*self.args))


@dataclass(frozen=True)
class Plan:
    """Ordered action sequence; a placeholder's seq names its producing step."""

    steps: tuple[GroundAction, ...]

    def sort_key(self) -> tuple:
        return (len(self.steps), tuple(s.sort_key() for s in self.steps))

    def __str__(self) -> str:
        return "; ".join(str(s) for s in self.steps) if self.steps else "<empty plan>"


@dataclass(frozen=True)
class PlanningProblem:
    initial: State
    goal: tuple[Term, ...]
    actions: tuple[ActionSchema, ...]


def make_problem(domain: DomainFile, problem: ProblemFile) -> PlanningProblem:
    """Tie a parsed domain and problem together, checking that the initial
    and goal fluents are declared.

    An initial or goal fluent that misuses the reserved know is refused as
    `parse_domain` refuses it in a domain file.
    """
    declared = domain.declared()
    for part, terms in (("initial", problem.initial), ("goal", problem.goal)):
        for t in terms:
            misuse = know_misuse(t)
            if misuse:
                raise FluxError("%s fluent %s: expected %s, found %s" % (part, t, *misuse))
            _, name, arity = fluent_symbol(t)
            if declared.get(name) != arity:
                raise FluxError(f"{part} fluent {name}/{arity} is not declared by the domain")
    return PlanningProblem(State.from_terms(problem.initial), problem.goal,
                           domain.actions)


# ---------------------------------------------------------------------------
# Possibility check and state update
# ---------------------------------------------------------------------------


def _solve(patterns: Iterable[Term], state: State,
           start: Bindings | None = None) -> list[Bindings]:
    """Solve a conjunction of fluent patterns left to right, in canonical fluent order.

    start, when given, must be ground; so is every solution.
    """
    results = [{} if start is None else start]
    for pattern in patterns:
        results = [new for bound in results for new in extensions(pattern, state, bound)]
        if not results:
            return results
    return results


def _poss(schema: ActionSchema, state: State) -> list[Bindings]:
    """The bindings under which the schema's poss conjunction holds, as `check_poss` gives them.

    Each grounds the schema's params and poss variables, and none repeats; an
    empty list means the action is not applicable. Keeping those that bind
    every param suffices: every state fluent is ground, so every poss variable
    ends up ground; and two different solutions first differ at a pattern
    that matched two different fluents, so they bind its variables differently.
    """
    params = schema.params
    return [b for b in _solve(schema.poss, state) if all(p in b for p in params)]


def check_poss(schema: ActionSchema, state: State) -> list[Substitution]:
    """All substitutions under which the schema's poss conjunction holds (see `_poss`)."""
    return [Substitution(b) for b in _poss(schema, state)]


def output_binding(schema: ActionSchema, step: int) -> dict[Variable, Placeholder]:
    """Deterministic fresh placeholders for the schema's outputs at a 1-based step."""
    return {v: Placeholder(schema.name, v.name, step) for v in schema.outputs}


def apply_update(schema: ActionSchema, subst: Substitution | Bindings, state: State,
                 step: int = 1, _checked: bool = False) -> State:
    """Progress a state through one action application.

    subst is a `Substitution` or, as the search passes it, a plain dict of
    bindings. Output variables are bound to fresh placeholders for the given
    step, then the update is applied: Z2 = (Z1 minus removes) union adds.
    Raises PreconditionViolation when subst does not satisfy poss in this
    state.
    """
    if isinstance(subst, Substitution):
        subst = subst.bindings
    if not _checked and subst not in _poss(schema, state):
        raise PreconditionViolation(
            f"substitution {Substitution(subst)} does not satisfy poss of {schema.name}")
    full = {**subst, **output_binding(schema, step)}
    return state.with_update([instantiate(t, full) for t in schema.adds],
                             [instantiate(t, full) for t in schema.removes])


def satisfies_goal(state: State, goal: Iterable[Term]) -> bool:
    """Existential conjunction of fluent patterns, queried as poss is.

    know(...) patterns query the knowledge fluents, everything else the world
    fluents; placeholder-valued fluents are admissible witnesses.
    """
    return bool(_solve(goal, state))


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

_PLACEHOLDER_MARK = re.compile(r"#out_\w+")


def _pruning_key(state: State) -> State:
    """The state with placeholders renamed by first appearance; itself if it has none.

    Fluents with placeholders are taken in order of their text, placeholders
    masked, so twins differing only in placeholder identity mostly share a key;
    the renaming is one-to-one, so states sharing a key are always twins.
    """
    marked = sorted((t for t in state.fluents if has_placeholder(t)),
                    key=lambda t: (_PLACEHOLDER_MARK.sub("#?", str(t)), order_key(t)))
    if not marked:
        return state
    mapping: dict[Placeholder, Placeholder] = {}

    def rename(t: Term) -> Term:
        if isinstance(t, Placeholder):
            if t not in mapping:
                mapping[t] = Placeholder("ph", "v", len(mapping))
            return mapping[t]
        if isinstance(t, Compound):
            args = tuple(map(rename, t.args))
            if args != t.args:
                return Compound(t.functor, args)
        return t

    return State(state.fluents.difference(marked).union(map(rename, marked)))


def _children(actions: list[ActionSchema], states: Iterable[State]):
    """Applicable (state, schema, bindings, ground action) of states, canonically sorted."""
    out = []
    for state in states:
        for schema in actions:
            name, params = schema.name, schema.params
            for b in _poss(schema, state):
                out.append((state, schema, b, GroundAction(name, tuple([b[p] for p in params]))))
    out.sort(key=lambda child: child[3].sort_key())
    return out


def _unreachable_goal_symbols(
        problem: PlanningProblem) -> tuple[tuple[str, ...], Optional[set]]:
    """Goal symbols outside the closure of the initial symbols under the actions,
    and the symbols the closure's actions add.

    The closure ignores arguments and remove lists: an action fires once every
    symbol its poss queries is present (a bare-variable pattern always is),
    and then adds its add symbols. A bare-variable add could add any fluent,
    so then nothing is reported missing and the added symbols are None.
    """
    # None, the symbol of a bare-variable poss pattern, is always present
    have = {None, *problem.initial.symbols()}
    added = set()
    size = None
    while size != len(have):
        size = len(have)
        for schema in problem.actions:
            if schema.poss_symbols <= have:
                if None in schema.add_symbols:
                    return (), None
                added |= schema.add_symbols
                have |= schema.add_symbols
    missing = set(map(pattern_symbol, problem.goal)) - have
    return tuple(sorted(f"know({name}/{arity})" if know else f"{name}/{arity}"
                        for know, name, arity in missing)), added


def _static_failure(problem: PlanningProblem, added: set) -> bool:
    """Whether some goal pattern can never hold, read from its fixed positions.

    A fixed position of a goal pattern (for know(P), of P) is a top-level
    argument that is ground and free of placeholders; added holds the symbols
    some action can add, the others are static. `plan` states the rule and
    argues it sound. No action is read when no goal pattern has a fixed
    position.
    """
    wanted = []
    for pattern in problem.goal:
        inner = pattern.args[0] if is_knowledge(pattern) else pattern
        if isinstance(inner, Compound):
            fixed = [(i, a) for i, a in enumerate(inner.args) if isinstance(a, Constant)
                     or isinstance(a, Compound) and is_ground(a) and not has_placeholder(a)]
            if fixed:
                wanted.append((pattern, fixed))
    initial = problem.initial
    for pattern, fixed in wanted:
        if not (_may_add(fluent_symbol(pattern), fixed, problem.actions, added, initial)
                or extensions(pattern, initial, {})):
            return True
    return False


def _may_add(symbol: tuple[bool, str, int], fixed: list[tuple[int, Term]],
             actions: Sequence[ActionSchema], added: set, initial: State) -> bool:
    """Whether an add of the symbol can take the value at each fixed position.

    Read from each add's `ActionSchema.add_sources`.
    """
    for schema in actions:
        for add_symbol, sources in schema.add_sources:
            if add_symbol != symbol:
                continue
            if all(_may_take(sources[i], value, added, initial) for i, value in fixed):
                return True
    return False


def _may_take(source, value: Term, added: set, initial: State) -> bool:
    """Whether an add argument with this `ActionSchema.add_sources` entry can be value.

    A variable at position j of a poss pattern over a static symbol, one not
    in added, can be value only if an initial fluent of that symbol has value
    as its argument j (for knowledge, of the term inside know). The fluents
    are scanned up to the first such one.
    """
    if source is None:
        return False
    if not isinstance(source, tuple):
        return source == value
    for symbol, j in source:
        if symbol in added:
            continue
        know = symbol[0]
        for f in initial.fluents_of(symbol):
            if (f.args[0] if know else f).args[j] == value:
                break
        else:
            return False
    return True


def _relevant_actions(goal: Iterable[Term],
                      actions: Sequence[ActionSchema]) -> Sequence[ActionSchema]:
    """The actions that can add a fluent the goal needs, chained backward.

    The goal's symbols are needed; an action is relevant when one of its add
    symbols is needed, and then its poss symbols are needed too. A
    bare-variable add counts as every symbol. A bare-variable goal pattern,
    or poss pattern of a relevant action, needs every symbol, and then every
    action is kept. Order is kept.
    """
    needed = set(map(pattern_symbol, goal))

    def relevant(schema: ActionSchema) -> bool:
        return None in schema.add_symbols or not needed.isdisjoint(schema.add_symbols)

    size = None
    while None not in needed and size != len(needed):
        size = len(needed)
        for schema in actions:
            if relevant(schema):
                needed |= schema.poss_symbols
    return actions if None in needed else list(filter(relevant, actions))


def plan(problem: PlanningProblem, cfg: SearchConfig = SearchConfig()) -> Plan:
    """Shortest plan reaching the goal, lexicographically first among equals.

    Breadth-first over a FIFO queue: children come in `_children` order and
    are goal-tested as they are made; a child is queued if it is shallower
    than cfg.max_depth and its `_pruning_key`, the child with placeholders
    renamed, is not yet in the visited set of states. Raises NoPlanFound
    (carrying cfg.max_depth) when no plan of at most that length exists.
    Soundness, against the enumerate_plans oracle:

    - Applications of one ground action to one state under different poss
      bindings share one path object, and the queue entries of a path are
      expanded together, their children sorted as one list. So each layer
      stays in lexicographic path order, and the first goal met is the first
      among the shortest plans that pruning leaves.
    - A child with a seen key is a placeholder-renamed twin of a state reached
      by a shorter path, or by an equally long one that is the same or
      lexicographically earlier. Renaming preserves poss, updates and the
      placeholder-free goal, so each plan through the child has a twin that
      is shorter, or equally long and no later:
      the lexicographically first shortest plan is never cut.
    - The queue runs dry before cfg.max_depth only if a layer adds no new
      state. Every deeper state is then a twin of one already goal-tested.
    - The key is the state itself, with no renaming walk, when no searched
      action has outputs, no searched action's adds name a placeholder and
      the initial state holds none. A child's fluents are then its parent's,
      or adds whose variables the poss binding maps to subterms of the
      parent's fluents; so by induction no reachable state holds a
      placeholder, and `_pruning_key` would return every state unchanged.
      This is read once from the problem, not set by the caller.

    Four more rules apply to every search:

    - Early failure. If a goal symbol is missing from
      `_unreachable_goal_symbols`' closure, NoPlanFound is raised before any
      search, naming those symbols. Every fluent of every reachable state has
      a symbol in the closure: an applied action's non-variable poss patterns
      matched fluents of their own symbols, a substitution keeps a pattern's
      symbol, and removes only shrink a state (Bonet & Geffner's delete
      relaxation). A goal pattern likewise needs a fluent of its symbol, so
      no plan of any length exists.
    - Static-argument early failure (rigid relations, as in Helmert 2009).
      Right after it, `_static_failure` raises NoPlanFound with no symbols
      named when a goal pattern with a fixed position, a top-level argument
      that is ground and placeholder-free, can never hold. A symbol that no
      action of the closure adds is static: an action outside the closure
      never fires, so in every reachable state the symbol's fluents are a
      subset of the initial ones, as removes only shrink a state (a
      bare-variable add could add any symbol, so then the rule decides
      nothing). Say the pattern holds in a reachable state through a fluent
      f, whose argument at each fixed position i is the wanted value w_i.
      Either f is initial, and an initial fluent matches the pattern; or f was
      added by some application of an action through an add A of f's symbol,
      instantiated by the poss binding and fresh placeholders for the
      outputs. Then at each i, a ground A_i is f's argument itself, so it
      equals w_i; an output took a placeholder, which a placeholder-free w_i
      never equals; and a variable that is the j-th top-level argument of a
      poss pattern over a static symbol was bound to the j-th argument of a
      fluent that pattern matched, a fluent of the initial state, so w_i is
      an initial j-th argument of that symbol. When neither case can occur, no plan of any
      length exists. A goal with no fixed position, such as compose's
      know(C(WANT)), is passed without reading any action.
    - Relevance (Nebel, Dimopoulos & Koehler 1997). Only the actions of
      `_relevant_actions`, chained backward from the goal symbols, are
      searched; the key above and the skip below are argued for the problem
      restricted to them. Deleting every irrelevant step from a valid plan
      leaves a valid plan. An irrelevant step only removes fluents and adds
      fluents of irrelevant symbols, so no relevant-symbol fluent carries a
      placeholder it minted: such fluents come from the initial state or
      from relevant steps, whose poss read only relevant symbols. By
      induction the reduced state holds a superset of the original state's
      relevant-symbol fluents, with the later steps' placeholder seqs
      renumbered: deleting an irrelevant step loses none of them, and a
      relevant step under the same binding keeps the superset, as
      (Z ∪ X) − R ∪ A ⊇ Z − R ∪ A. A relevant step's poss and the goal are
      positive conjunctions over relevant symbols, so they still hold. Hence
      no shortest plan has an irrelevant step, and every plan over the
      relevant actions is one of the problem: the lexicographically first
      shortest plan is unchanged, and when there is none the search raises
      the same NoPlanFound(cfg.max_depth). The rule runs after both early
      failures, so `unreachable` is as before.
    - Monotone skip. When no searched action has a remove list, a child is
      dropped before it is built if the schema's adds already hold in the
      parent under the poss binding, with the outputs left free. Map the
      step's fresh placeholders to the witnesses of that match, and renumber
      the later steps' placeholders: the child becomes its parent, and every
      later poss and the goal, positive conjunctions without placeholders,
      stay true. Deleting the step thus gives a valid, strictly shorter plan,
      so no shortest plan contains such a step and none is cut. With remove
      lists the mapping fails: a later remove of a fluent built from the
      step's placeholder would remove the witness instead.
    """
    if satisfies_goal(problem.initial, problem.goal):
        return Plan(())
    missing, added = _unreachable_goal_symbols(problem)
    if missing or added is not None and _static_failure(problem, added):
        raise NoPlanFound(cfg.max_depth, missing)
    actions = _relevant_actions(problem.goal, sorted(problem.actions, key=lambda a: a.name))
    monotone = not any(a.removes for a in actions)
    initial = problem.initial
    renames = (any(a.mints_placeholders for a in actions)
               or any(map(has_placeholder, initial.fluents)))
    seen = {_pruning_key(initial) if renames else initial}
    queue = deque([(initial, ())])
    while queue:
        state, steps = queue.popleft()
        group = [state]
        while queue and queue[0][1] is steps:
            group.append(queue.popleft()[0])
        depth = len(steps) + 1
        path = None
        for state, schema, b, ga in _children(actions, group):
            if monotone and _solve(schema.adds, state, b):
                continue
            child = apply_update(schema, b, state, step=depth, _checked=True)
            if path is None or path[-1] != ga:
                path = steps + (ga,)
            if satisfies_goal(child, problem.goal):
                return Plan(path)
            if depth == cfg.max_depth:
                continue
            key = _pruning_key(child) if renames else child
            if key in seen:
                continue
            seen.add(key)
            queue.append((child, path))
    raise NoPlanFound(cfg.max_depth)

"""First-order terms and world+knowledge states.

A state is two duplicate-free sets of ground terms (its fluents): plain world
fluents and knowledge fluents carrying the reserved outer functor ``know``.
Everything here is immutable; operations are pure functions returning new
values, so states and substitutions can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import FluxError

KNOW = "know"


class NotGroundError(FluxError):
    """A fluent that must be ground contains a variable."""


@dataclass(frozen=True)
class Constant:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Placeholder:
    """Stand-in constant for an action output whose value arrives at execution.

    Ids are deterministic given the action sequence: ``out_<action>_<param>_<seq>``
    where ``seq`` is the 1-based position of the producing step.
    """

    action: str
    param: str
    seq: int

    @property
    def id(self) -> str:
        return f"out_{self.action}_{self.param}_{self.seq}"

    def __str__(self) -> str:
        return "#" + self.id


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple["Term", ...]

    def __str__(self) -> str:
        return "%s(%s)" % (self.functor, ",".join(str(a) for a in self.args))


Term = Union[Constant, Variable, Placeholder, Compound]


def is_ground(term: Term) -> bool:
    """True when the term tree contains no Variable (placeholders count as ground)."""
    if isinstance(term, Variable):
        return False
    if isinstance(term, Compound):
        return all(is_ground(a) for a in term.args)
    return True


def variables_in(term: Term) -> Iterator[Variable]:
    """Yield every Variable in the term, left to right, duplicates included."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, Compound):
        for a in term.args:
            yield from variables_in(a)


def functor_arity(term: Term) -> tuple[str, int]:
    """Fluent symbol of a term: (functor, arity) for compounds, (name, 0) otherwise."""
    if isinstance(term, Compound):
        return term.functor, len(term.args)
    if isinstance(term, Constant):
        return term.name, 0
    if isinstance(term, Placeholder):
        return term.id, 0
    return term.name, 0


def know_wrap(term: Term) -> Compound:
    return Compound(KNOW, (term,))


def is_knowledge(term: Term) -> bool:
    """True for terms with outer functor know/1."""
    return isinstance(term, Compound) and term.functor == KNOW and len(term.args) == 1


# ---------------------------------------------------------------------------
# Substitutions and unification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Substitution:
    """Idempotent variable binding map.

    Bindings are kept fully resolved: no stored value contains a bound
    variable, so applying a substitution twice equals applying it once, and
    the occurs check guarantees no binding is cyclic.
    """

    bindings: Mapping[Variable, Term] = field(default_factory=dict)

    def get(self, var: Variable) -> Optional[Term]:
        return self.bindings.get(var)

    def apply(self, term: Term) -> Term:
        if isinstance(term, Variable):
            return self.bindings.get(term, term)
        if isinstance(term, Compound):
            return Compound(term.functor, tuple(self.apply(a) for a in term.args))
        return term

    def bind(self, var: Variable, term: Term) -> Optional["Substitution"]:
        """Extend with var -> term, re-resolving stored values. None if occurs check fires."""
        resolved = self.apply(term)
        if _occurs(var, resolved):
            return None
        single = {var: resolved}
        updated = {
            v: _substitute_one(t, var, resolved) for v, t in self.bindings.items()
        }
        updated.update(single)
        return Substitution(updated)

    def extend_all(self, pairs: Mapping[Variable, Term]) -> "Substitution":
        """Bind several fresh variables at once (no occurs check needed for leaves)."""
        updated = dict(self.bindings)
        updated.update(pairs)
        return Substitution(updated)

    def dedup_key(self) -> tuple:
        return tuple(sorted((v.name, str(t)) for v, t in self.bindings.items()))

    def __len__(self) -> int:
        return len(self.bindings)

    def __str__(self) -> str:
        inner = ", ".join(
            f"{v.name}={t}" for v, t in sorted(self.bindings.items(), key=lambda p: p[0].name)
        )
        return "{" + inner + "}"


EMPTY_SUBST = Substitution({})


def _occurs(var: Variable, term: Term) -> bool:
    if isinstance(term, Variable):
        return term == var
    if isinstance(term, Compound):
        return any(_occurs(var, a) for a in term.args)
    return False


def _substitute_one(term: Term, var: Variable, value: Term) -> Term:
    if isinstance(term, Variable):
        return value if term == var else term
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_substitute_one(a, var, value) for a in term.args))
    return term


def unify(t1: Term, t2: Term, subst: Substitution = EMPTY_SUBST) -> Optional[Substitution]:
    """Most general unifier of t1 and t2 extending subst, or None on non-match.

    None signals a failed match (functor/arity clash or occurs check), not a
    fault; applying a successful result to both terms yields equal trees.
    """
    a = subst.apply(t1)
    b = subst.apply(t2)
    if a == b:
        return subst
    if isinstance(a, Variable):
        return subst.bind(a, b)
    if isinstance(b, Variable):
        return subst.bind(b, a)
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        out: Optional[Substitution] = subst
        for x, y in zip(a.args, b.args):
            out = unify(x, y, out)
            if out is None:
                return None
        return out
    return None


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class State:
    """World fluents plus know(.)-wrapped knowledge fluents, both ground sets."""

    world: frozenset = frozenset()
    knowledge: frozenset = frozenset()

    @classmethod
    def from_terms(cls, terms: Iterable[Term]) -> "State":
        """Build a state, routing know/1 terms to the knowledge set."""
        world = set()
        knowledge = set()
        for t in terms:
            if not is_ground(t):
                raise NotGroundError(f"state fluent is not ground: {t}")
            if is_knowledge(t):
                knowledge.add(t)
            else:
                world.add(t)
        return cls(frozenset(world), frozenset(knowledge))

    def sorted_world(self) -> list[Term]:
        return sorted(self.world, key=str)

    def sorted_knowledge(self) -> list[Term]:
        return sorted(self.knowledge, key=str)

    def all_terms(self) -> list[Term]:
        return sorted(self.world | self.knowledge, key=str)

    def with_update(self, adds: Iterable[Term], removes: Iterable[Term]) -> "State":
        """Apply a state update: (self minus removes) union adds, per fluent set."""
        world = set(self.world)
        knowledge = set(self.knowledge)
        for t in removes:
            if not is_ground(t):
                raise NotGroundError(f"remove pattern is not ground: {t}")
            (knowledge if is_knowledge(t) else world).discard(t)
        for t in adds:
            if not is_ground(t):
                raise NotGroundError(f"add pattern is not ground: {t}")
            (knowledge if is_knowledge(t) else world).add(t)
        return State(frozenset(world), frozenset(knowledge))

    def __contains__(self, term: Term) -> bool:
        return term in self.knowledge if is_knowledge(term) else term in self.world


def canonicalize(state: State) -> str:
    """Canonical text key: equal states (as sets) map to byte-identical keys."""
    return "|".join(sorted(str(f) for f in state.world | state.knowledge))


def holds(pattern: Term, state: State,
          subst: Substitution = EMPTY_SUBST) -> Iterator[Substitution]:
    """Yield every extension of subst under which pattern matches a world fluent.

    Enumeration follows canonical (sorted) fluent order, so results are
    deterministic. An empty sequence means the pattern does not hold.
    """
    for f in state.sorted_world():
        got = unify(pattern, f, subst)
        if got is not None:
            yield got


def knows_val(pattern: Term, state: State,
              subst: Substitution = EMPTY_SUBST) -> Iterator[Substitution]:
    """Yield extensions of subst under which know(pattern) matches a knowledge fluent.

    A binding to a Placeholder counts as known: the value will exist by the
    time the producing step has executed.
    """
    target = know_wrap(pattern)
    for f in state.sorted_knowledge():
        got = unify(target, f, subst)
        if got is not None:
            yield got

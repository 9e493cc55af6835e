"""First-order terms and world+knowledge states.

A state is two duplicate-free sets of ground terms (its fluents): plain world
fluents and knowledge fluents carrying the reserved outer functor ``know``.
On its first query a state indexes each set once: the fluents in canonical
(rendered text) order, and the same order grouped by fluent symbol (functor
and arity; for knowledge, those of the term inside ``know``). `holds` and
`knows_val` scan only the group of the pattern's symbol, or every fluent when
the pattern is a bare variable. A compound renders its text once.

A query matches one way: it walks the pattern against a ground fluent, and
only the pattern's variables get bound. This yields exactly what `unify` of
the pattern and the fluent would. The fluent is ground, and the substitution
is idempotent, so the pattern resolved by it holds only variables it leaves
unbound. Each is bound to a ground subterm of the fluent: no variable is ever
bound to another variable, and no occurs check can fire. Stored values that
mention a newly bound variable are re-resolved, as `Substitution.bind` does,
so the result stays idempotent. `unify` itself has no caller at run time.

Everything here is immutable; operations are pure functions returning new
values, and a term left unchanged by a substitution is returned as is. The
index and the rendered text are computed lazily but always to the same value,
so states, terms and substitutions can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
        # Rendered once, then kept beside the fields: equality and hashing
        # never see it. (One frame per nesting level, unlike cached_property.)
        cache = self.__dict__
        text = cache.get("_text")
        if text is None:
            text = cache["_text"] = "%s(%s)" % (self.functor, ",".join(map(str, self.args)))
        return text


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

    def apply(self, term: Term) -> Term:
        """The term with bound variables replaced; an unchanged term is returned as is."""
        if isinstance(term, Variable):
            return self.bindings.get(term, term)
        if isinstance(term, Compound) and self.bindings:
            args = tuple(map(self.apply, term.args))
            if args != term.args:
                return Compound(term.functor, args)
        return term

    def bind(self, var: Variable, term: Term) -> Optional["Substitution"]:
        """Extend with var -> term, re-resolving stored values. None if occurs check fires."""
        resolved = self.apply(term)
        if _occurs(var, resolved):
            return None
        single = Substitution({var: resolved})
        updated = {v: single.apply(t) for v, t in self.bindings.items()}
        updated[var] = resolved
        return Substitution(updated)

    def extend_all(self, pairs: Mapping[Variable, Term]) -> "Substitution":
        """Bind several fresh variables at once (no occurs check needed for leaves)."""
        updated = dict(self.bindings)
        updated.update(pairs)
        return Substitution(updated)

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


def unify(t1: Term, t2: Term, subst: Substitution = EMPTY_SUBST) -> Optional[Substitution]:
    """Most general unifier of t1 and t2 extending subst, or None on non-match.

    None signals a failed match (functor/arity clash or occurs check), not a
    fault; applying a successful result to both terms yields equal trees.
    Nothing in the package calls it at run time (queries match one way, see
    `holds`). It is kept as the tests' oracle for that matching and as a span
    target of perfbench's tracer.
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

    @cached_property
    def _world_index(self) -> "_Index":
        return _index(self.world, functor_arity)

    @cached_property
    def _knowledge_index(self) -> "_Index":
        return _index(self.knowledge, lambda t: functor_arity(t.args[0]))

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


# All fluents in canonical order, and the same order split by fluent symbol.
_Index = tuple[tuple[Term, ...], dict[tuple[str, int], tuple[Term, ...]]]


def _index(fluents: frozenset, symbol) -> _Index:
    ordered = tuple(sorted(fluents, key=str))
    groups: dict[tuple[str, int], list[Term]] = {}
    for t in ordered:
        groups.setdefault(symbol(t), []).append(t)
    return ordered, {k: tuple(v) for k, v in groups.items()}


def _candidates(pattern: Term, index: _Index) -> tuple[Term, ...]:
    """The indexed fluents that can match a resolved pattern, in canonical order."""
    ordered, groups = index
    if isinstance(pattern, Variable):
        return ordered
    return groups.get(functor_arity(pattern), ())


def _match(pattern: Term, fluent: Term, new: dict) -> bool:
    """Match a resolved pattern against a ground fluent, adding bindings to new.

    A variable binds to the fluent's subterm at its first occurrence and must
    meet an equal one at every other. Any other leaf, a constant or a
    placeholder, must equal the subterm, so ``Constant("p")`` does not match
    ``p()`` and a placeholder does not match a constant named by its id.
    """
    if isinstance(pattern, Variable):
        bound = new.setdefault(pattern, fluent)
        return bound is fluent or bound == fluent
    if isinstance(pattern, Compound):
        if (not isinstance(fluent, Compound) or pattern.functor != fluent.functor
                or len(pattern.args) != len(fluent.args)):
            return False
        for p, f in zip(pattern.args, fluent.args):
            if not _match(p, f, new):
                return False
        return True
    return pattern == fluent


def _extend(subst: Substitution, pattern: Term, fluent: Term) -> Optional[Substitution]:
    """subst extended so that the resolved pattern equals the ground fluent, or None.

    subst itself when the match binds nothing. Otherwise each stored value is
    re-resolved under the new (ground) bindings, as `Substitution.bind` does,
    so a start of {X: Y} matched through Y binds X too.
    """
    new: dict = {}
    if not _match(pattern, fluent, new):
        return None
    if not new:
        return subst
    if not subst.bindings:
        return Substitution(new)
    resolve = Substitution(new).apply
    updated = {v: resolve(t) for v, t in subst.bindings.items()}
    updated.update(new)
    return Substitution(updated)


def holds(pattern: Term, state: State,
          subst: Substitution = EMPTY_SUBST) -> Iterator[Substitution]:
    """Yield every extension of subst under which pattern matches a world fluent.

    Each result equals ``unify(pattern, fluent, subst)`` for a world fluent it
    succeeds on (see the module docstring), and they come in canonical
    (sorted) fluent order, so results are deterministic. An empty sequence
    means the pattern does not hold.
    """
    pattern = subst.apply(pattern)
    for f in _candidates(pattern, state._world_index):
        got = _extend(subst, pattern, f)
        if got is not None:
            yield got


def knows_val(pattern: Term, state: State,
              subst: Substitution = EMPTY_SUBST) -> Iterator[Substitution]:
    """Yield extensions of subst under which know(pattern) matches a knowledge fluent.

    The pattern is matched against the term inside each ``know``, which gives
    ``unify(know(pattern), fluent, subst)`` in canonical order, as in `holds`.
    A binding to a Placeholder counts as known: the value will exist by the
    time the producing step has executed.
    """
    pattern = subst.apply(pattern)
    for f in _candidates(pattern, state._knowledge_index):
        got = _extend(subst, pattern, f.args[0])
        if got is not None:
            yield got

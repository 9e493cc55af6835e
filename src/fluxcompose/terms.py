"""First-order terms and fluent states.

A state is one duplicate-free set of ground terms, its fluents; as in the
fluent calculus, a knowledge fact ``know(C(v))`` is a fluent like any other.
On its first query a state groups its fluents by `fluent_symbol` (knowledge
or world, then functor and arity; for ``know(T)``, those of T), each group in
canonical `order_key` order.

There is one query, `holds(pattern, state, bound)`, and one binding type, a
plain dict of variables to ground terms; the planner's search calls it. A
pattern ``know(P)`` scans only the knowledge group of P's symbol, any other
pattern only the world group of its own; `knows_val(P)` is
``holds(know(P))``. When the pattern's first argument, looked up in the bound
dict if it is a variable, is a constant or a placeholder (for knowledge, that
of P), and the group holds more than one fluent, it scans only the fluents
with that first argument, from a map the group builds on its first such
query. A bare-variable pattern scans every fluent of its side, sorted for
that query, unless it is bound. A compound renders its text once.

A child made by `State.with_update` from an indexed state inherits the
index. On the child's first query only the groups of the symbols whose
fluents differ from the parent's are rebuilt; every other group is the
parent's own object, first-argument map included. So one expansion costs
its update, not its state, and a static relation such as a link graph is
split by first argument once per problem. That sharing is what makes the map
pay: built anew for every state, it cost more than the scans it saved.

A query matches one way: it walks the pattern against a ground fluent, and
only the pattern's variables get bound. The bindings it starts from must be
ground; it copies them into the match before the walk, so a bound variable
is an equality check, like a variable met a second time, and the pattern is
never rebuilt. An unbound variable is bound to a ground subterm of the
fluent, so no variable is ever bound to another variable, no occurs check
can fire, and every extension is ground again. So is every binding of a
search: it starts empty, and every fluent is ground. The result is exactly
what `unify` of the pattern and the fluent would give. `instantiate` is the
one place a binding map is applied to a term.

Everything here is immutable; operations are pure functions returning new
values, and a term left unchanged by a binding map is returned as is. The
index and the rendered text are computed lazily but always to the same value,
so states and terms can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, KeysView, Mapping, Optional, Union

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


def has_placeholder(term: Term) -> bool:
    """True when the term tree contains a Placeholder."""
    if isinstance(term, Compound):
        return any(map(has_placeholder, term.args))
    return isinstance(term, Placeholder)


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
    if isinstance(term, Placeholder):
        return term.id, 0
    return term.name, 0


def is_knowledge(term: Term) -> bool:
    """True for terms with outer functor know/1."""
    return isinstance(term, Compound) and term.functor == KNOW and len(term.args) == 1


def know(term: Term) -> Compound:
    """The knowledge fluent know(term)."""
    return Compound(KNOW, (term,))


def fluent_symbol(term: Term) -> tuple[bool, str, int]:
    """(is_knowledge, functor, arity) of a fluent; for know(T), the symbol is T's."""
    # is_knowledge inlined: this runs for every fluent a state indexes
    if not isinstance(term, Compound):
        return (False,) + functor_arity(term)
    if term.functor == KNOW and len(term.args) == 1:
        return (True,) + functor_arity(term.args[0])
    return (False, term.functor, len(term.args))


def leaf_args(term: Term) -> Optional[tuple[Term, ...]]:
    """The arguments of a fluent or pattern (for know(P), of P) when none is a compound.

    A constant or a placeholder is its own one argument. None when an
    argument is a compound, and for a bare variable, in know(...) or not.
    """
    inner = term.args[0] if is_knowledge(term) else term
    if isinstance(inner, Compound):
        args = inner.args
        return None if any(isinstance(a, Compound) for a in args) else args
    return None if isinstance(inner, Variable) else (inner,)


def pattern_symbol(pattern: Term) -> Optional[tuple[bool, str, int]]:
    """The `fluent_symbol` a pattern queries; None for a bare variable, in know(...) or not."""
    if isinstance(pattern.args[0] if is_knowledge(pattern) else pattern, Variable):
        return None
    return fluent_symbol(pattern)


class _Tie(tuple):
    """Terms compared by their reprs: the tie-break of `order_key`."""

    def __lt__(self, other) -> bool:
        return repr(self) < repr(other)

    def __gt__(self, other) -> bool:
        return repr(self) > repr(other)


def order_key(*terms: Term) -> tuple[tuple[str, ...], _Tie]:
    """The canonical sort key of a term, or of a row of terms: texts, then reprs.

    Where texts differ they alone decide. A term's repr names its kind and
    every field, so it tells apart terms whose texts tie, as those of
    ``Constant("f(a)")`` and the compound ``f(a)`` do; the reprs are built only
    for such a tie. The order is total and does not follow hashing.
    """
    return (tuple(map(str, terms)), _Tie(terms))


# ---------------------------------------------------------------------------
# Binding maps and unification
# ---------------------------------------------------------------------------


def instantiate(term: Term, bindings: Mapping[Variable, Term]) -> Term:
    """The term with each variable bound in bindings replaced by its value.

    One pass: the values are taken as they are, so for an idempotent map, as
    `unify`'s or a ground one, the result holds no bound variable. A term left
    unchanged is returned as is.
    """
    if isinstance(term, Variable):
        return bindings.get(term, term)
    if isinstance(term, Compound) and bindings:
        args = tuple([instantiate(a, bindings) for a in term.args])
        if args != term.args:
            return Compound(term.functor, args)
    return term


# The default start of a query or unification; read-only, as `unify` may return it.
_NO_BINDINGS: Mapping[Variable, Term] = MappingProxyType({})


def _occurs(var: Variable, term: Term) -> bool:
    if isinstance(term, Variable):
        return term == var
    if isinstance(term, Compound):
        return any(_occurs(var, a) for a in term.args)
    return False


def _bind(bindings: Mapping[Variable, Term], var: Variable,
          term: Term) -> Optional[dict[Variable, Term]]:
    """A new map: bindings plus var -> term, stored values re-resolved; None if
    the occurs check fires."""
    resolved = instantiate(term, bindings)
    if _occurs(var, resolved):
        return None
    single = {var: resolved}
    out = {v: instantiate(t, single) for v, t in bindings.items()}
    out[var] = resolved
    return out


def unify(t1: Term, t2: Term,
          bindings: Mapping[Variable, Term] = _NO_BINDINGS) -> Optional[Mapping[Variable, Term]]:
    """Most general unifier of t1 and t2 extending bindings, or None on non-match.

    bindings must be idempotent (no stored value holds a bound variable) and
    is never written: a result that binds more is a new dict, its stored
    values re-resolved at each binding and kept acyclic by the occurs check.
    None signals a failed match (functor/arity clash or occurs check), not a
    fault. Nothing in the package calls it at run time: it is the tests'
    oracle for `holds`'s one-way matching and a span target of perfbench's
    tracer.
    """
    a = instantiate(t1, bindings)
    b = instantiate(t2, bindings)
    if a == b:
        return bindings
    if isinstance(a, Variable):
        return _bind(bindings, a, b)
    if isinstance(b, Variable):
        return _bind(bindings, b, a)
    if isinstance(a, Compound) and isinstance(b, Compound):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        out: Optional[Mapping[Variable, Term]] = bindings
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
    """One duplicate-free set of ground fluents; a know(...) fact is one of them."""

    fluents: frozenset = frozenset()

    @classmethod
    def from_terms(cls, terms: Iterable[Term]) -> "State":
        """Build a state, checking that every term is ground."""
        terms = tuple(terms)
        for t in terms:
            if not is_ground(t):
                raise NotGroundError(f"state fluent is not ground: {t}")
        return cls(frozenset(terms))

    # A child of an indexed state keeps its parent's index and fluent set
    # (see with_update) until its first query.
    @cached_property
    def _index(self) -> "_Index":
        return _updated(*self.__dict__.get("_base", ({}, frozenset())), self.fluents)

    def with_update(self, adds: Iterable[Term], removes: Iterable[Term]) -> "State":
        """Apply a state update: (self minus removes) union adds.

        A child of an indexed state inherits its index: on the child's first
        query only the groups of the symbols whose fluents differ are rebuilt.
        """
        removes, adds = tuple(removes), tuple(adds)
        for kind, terms in (("remove", removes), ("add", adds)):
            for t in terms:
                if not is_ground(t):
                    raise NotGroundError(f"{kind} pattern is not ground: {t}")
        child = State(self.fluents.difference(removes).union(adds))
        index = self.__dict__.get("_index")
        if index is not None:
            child.__dict__["_base"] = (index, self.fluents)
        return child

    def __contains__(self, term: Term) -> bool:
        return term in self.fluents

    def fluents_of(self, symbol: tuple[bool, str, int]) -> tuple[Term, ...]:
        """The fluents of one `fluent_symbol`, in canonical order, read from the index."""
        return self._index.get(symbol, ())

    def symbols(self) -> KeysView:
        """The `fluent_symbol`s of the state's fluents, read from the index."""
        return self._index.keys()


class _Group(tuple):
    """The fluents of one symbol in canonical order, and on demand by first argument.

    For a knowledge fluent the first argument is that of the term inside
    ``know``. The map is built into a local and stored once, so a group
    shared across states and threads only ever shows a whole map.
    """

    def by_first(self, arg: Term) -> tuple[Term, ...]:
        table = self.__dict__.get("table")
        if table is None:
            lists: dict[Term, list[Term]] = {}
            for t in self:
                lists.setdefault((t.args[0] if is_knowledge(t) else t).args[0], []).append(t)
            table = self.__dict__["table"] = {k: tuple(v) for k, v in lists.items()}
        return table.get(arg, ())


# A state's groups by fluent symbol.
_Index = dict[tuple[bool, str, int], _Group]


def _updated(index: _Index, before: frozenset, fluents: frozenset) -> _Index:
    """The index of fluents, from the index of the set before.

    Only the groups of the symbols of fluents gone or new are rebuilt; the
    other groups are shared. The old members of a rebuilt group are compared
    with the few fluents gone, not hashed again.
    """
    gone, new = tuple(before - fluents), fluents - before
    stale = {fluent_symbol(t) for t in (*gone, *new)} if index else ()
    index = dict(index)
    members = [t for symbol in stale for t in index.pop(symbol, ()) if t not in gone]
    lists: dict[tuple[bool, str, int], list[Term]] = {}
    for t in sorted((*members, *new), key=order_key):
        lists.setdefault(fluent_symbol(t), []).append(t)
    for symbol, group in lists.items():
        index[symbol] = _Group(group)
    return index


def _candidates(pattern: Term, state: State, knowledge: bool,
                bound: Mapping[Variable, Term]) -> Iterable[Term]:
    """The fluents of one side that can match a pattern under ground bindings, in canonical order.

    A bound bare variable is looked up as its value, and a bound variable in
    first-argument position as the value's first argument. A group of one
    fluent is scanned: its map would cost more than it saves.
    """
    if isinstance(pattern, Variable):
        if pattern not in bound:
            return sorted((t for t in state.fluents if is_knowledge(t) == knowledge),
                          key=order_key)
        pattern = bound[pattern]
    if isinstance(pattern, Compound):
        group = state._index.get((knowledge, pattern.functor, len(pattern.args)), ())
        if len(group) > 1 and pattern.args:
            first = pattern.args[0]
            if isinstance(first, Variable):
                first = bound.get(first, first)
            if isinstance(first, (Constant, Placeholder)):
                return group.by_first(first)
        return group
    return state._index.get((knowledge,) + functor_arity(pattern), ())


def _match(pattern: Term, fluent: Term, new: dict) -> bool:
    """Match a pattern against a ground fluent, adding bindings to new.

    A variable already in new, bound before the query or at an earlier
    occurrence, must meet an equal subterm; any other binds to the fluent's
    subterm. Any other leaf, a constant or a placeholder, must equal the
    subterm, so ``Constant("p")`` does not match ``p()`` and a placeholder
    does not match a constant named by its id.
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


def holds(pattern: Term, state: State,
          bound: Mapping[Variable, Term] = _NO_BINDINGS) -> list[dict[Variable, Term]]:
    """Every extension of the ground bindings under which pattern matches a fluent.

    The one query. Every value in bound must be ground, and bound is never
    written. A ``know(P)`` pattern queries the knowledge fluents, matching P
    against the term inside each ``know``; any other pattern, a bare variable
    included, queries the world fluents. Each extension is a new dict: bound
    plus the pattern's other variables, each bound to a ground subterm of one
    fluent, equal to ``unify(pattern, fluent, bound)``. They come in canonical
    fluent order, so results are deterministic; an empty list means the
    pattern does not hold.
    """
    # is_knowledge inlined: this runs for every query of a search
    knowledge = (isinstance(pattern, Compound) and pattern.functor == KNOW
                 and len(pattern.args) == 1)
    if knowledge:
        pattern = pattern.args[0]
    out = []
    new = None
    for f in _candidates(pattern, state, knowledge, bound):
        if new is None:
            new = dict(bound)
        if _match(pattern, f.args[0] if knowledge else f, new):
            out.append(new)
            new = None
        elif len(new) != len(bound):
            new = None  # a failed match leaves new as bound unless it bound more
    return out


def knows_val(pattern: Term, state: State,
              bound: Mapping[Variable, Term] = _NO_BINDINGS) -> list[dict[Variable, Term]]:
    """``holds(know(pattern), state, bound)``: the known values of pattern. A
    Placeholder counts as known: its value exists once its step has run."""
    return holds(know(pattern), state, bound)

"""Unification, the one query holds and knows_val over it, and states."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fluxcompose.terms import (
    Compound,
    Constant,
    Placeholder,
    State,
    Variable,
    fluent_symbol,
    holds,
    instantiate,
    is_ground,
    is_knowledge,
    know,
    knows_val,
    order_key,
    unify,
)

PR, SP, P, X, Y = (Variable("PR"), Variable("SP"), Variable("P"), Variable("X"),
                  Variable("Y"))
doctor, orthopedics, nurse, general = (
    Constant("doctor"), Constant("orthopedics"), Constant("nurse"), Constant("general"))


def comp(functor, *args):
    return Compound(functor, tuple(args))


# ---------------------------------------------------------------------------
# unify
# ---------------------------------------------------------------------------


def test_unify_single_variable():
    assert unify(comp("Profession", PR), comp("Profession", doctor)) == {PR: doctor}


def test_unify_available_pattern():
    got = unify(comp("available", PR, SP), comp("available", doctor, orthopedics))
    assert got == {PR: doctor, SP: orthopedics}


def test_unify_occurs_check():
    assert unify(X, comp("f", X)) is None


def test_unify_functor_and_arity_clash():
    assert unify(comp("f", X), comp("g", X)) is None
    assert unify(comp("f", X), comp("f", X, X)) is None
    assert unify(doctor, nurse) is None


def test_unify_extends_given_substitution():
    base = unify(PR, doctor)
    got = unify(comp("available", PR, SP), comp("available", doctor, orthopedics), base)
    assert got == {PR: doctor, SP: orthopedics}
    assert base == {PR: doctor}  # the bindings passed in are never written
    assert unify(comp("available", PR, SP), comp("available", nurse, orthopedics), base) is None


def test_unify_applies_both_sides_equal():
    got = unify(comp("f", X, nurse), comp("f", doctor, SP))
    assert instantiate(comp("f", X, nurse), got) == instantiate(comp("f", doctor, SP), got)


def test_placeholders_are_ground_constants():
    ph = Placeholder("findResource", "NAME", 1)
    assert is_ground(ph)
    assert str(ph) == "#out_findResource_NAME_1"
    assert unify(P, ph) == {P: ph}
    assert unify(ph, Placeholder("findResource", "NAME", 2)) is None


# term generator for the symmetry/idempotence properties


def _terms(max_depth=3):
    leaves = st.one_of(
        st.sampled_from([doctor, nurse, orthopedics]),
        st.sampled_from([X, PR, SP]),
        st.builds(Placeholder, st.just("a"), st.sampled_from(["P", "Q"]),
                  st.integers(1, 3)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.builds(
            lambda f, args: Compound(f, tuple(args)),
            st.sampled_from(["f", "g", "h"]),
            st.lists(inner, min_size=0, max_size=3),
        ),
        max_leaves=8,
    )


def _rename_canonically(term, mapping):
    if isinstance(term, Variable):
        if term not in mapping:
            mapping[term] = Variable(f"R{len(mapping)}")
        return mapping[term]
    if isinstance(term, Compound):
        return Compound(term.functor,
                        tuple(_rename_canonically(a, mapping) for a in term.args))
    return term


@given(_terms(), _terms())
@settings(max_examples=300)
def test_unify_symmetric_success(t1, t2):
    a = unify(t1, t2)
    b = unify(t2, t1)
    assert (a is None) == (b is None)
    if a is not None:
        # unified results are equal up to variable renaming
        left = _rename_canonically(instantiate(t1, a), {})
        right = _rename_canonically(instantiate(t2, b), {})
        assert left == right


@given(_terms())
@settings(max_examples=200)
def test_unify_ground_term_with_itself_is_identity(t):
    if is_ground(t):
        got = unify(t, t)
        assert got is not None and len(got) == 0


@given(_terms(), _terms())
@settings(max_examples=200)
def test_substitution_apply_is_idempotent(t1, t2):
    got = unify(t1, t2)
    if got is not None:
        for t in (t1, t2):
            once = instantiate(t, got)
            assert instantiate(once, got) == once


def test_substitution_never_binds_var_to_term_containing_it():
    got = unify(comp("f", X, X), comp("f", P, comp("g", P)))
    assert got is None


# ---------------------------------------------------------------------------
# holds / knows_val
# ---------------------------------------------------------------------------


def _state(*terms):
    return State.from_terms(terms)


def _side(state, knowledge):
    """The state's knowledge or world fluents in canonical order: the oracles' scan."""
    return sorted((f for f in state.fluents if is_knowledge(f) == knowledge), key=order_key)


def test_holds_matches_pattern_against_world():
    state = _state(comp("available", doctor, orthopedics))
    assert holds(comp("available", PR, SP), state) == [{PR: doctor, SP: orthopedics}]


def test_holds_empty_state():
    assert holds(comp("available", PR, SP), State()) == []


def test_holds_filters_by_bound_constant():
    state = _state(comp("available", doctor, orthopedics),
                   comp("available", nurse, general))
    assert holds(comp("available", doctor, SP), state) == [{SP: orthopedics}]


def test_knows_val_matches_knowledge():
    state = _state(know(comp("Profession", doctor)))
    assert knows_val(comp("Profession", PR), state) == [{PR: doctor}]


def test_knows_val_placeholder_counts_as_known():
    ph = Placeholder("findResource", "NAME", 1)
    state = _state(know(comp("Name", ph)))
    assert knows_val(comp("Name", P), state) == [{P: ph}]


def test_knows_val_empty_knowledge():
    assert knows_val(Constant("ConfirmSend"), State()) == []


def test_knowledge_and_world_are_separate():
    state = _state(comp("f", doctor), know(comp("f", doctor)))
    assert len(holds(comp("f", X), state)) == 1
    assert len(knows_val(comp("f", X), state)) == 1
    # a know(...) pattern queries the knowledge fluents, as knows_val does
    assert holds(know(comp("f", X)), state) == [{X: doctor}]


@given(st.data())
@settings(max_examples=100)
def test_holds_equals_brute_force_on_random_states(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    consts = [Constant(c) for c in "abcde"]
    fluents = []
    for _ in range(rng.randint(0, 50)):
        name = rng.choice("pqr")
        arity = rng.randint(0, 3)
        args = tuple(rng.choice(consts) for _ in range(arity))
        fluents.append(Compound(name, args) if args else Constant(name))
    state = State.from_terms(fluents)
    pattern_args = tuple(
        rng.choice([X, P, SP] + consts) for _ in range(rng.randint(0, 3)))
    pattern = Compound(rng.choice("pqr"), pattern_args) if pattern_args \
        else Constant(rng.choice("pqr"))

    got = holds(pattern, state)
    oracle = []
    for f in _side(state, knowledge=False):
        s = unify(pattern, f)
        if s is not None:
            oracle.append(s)
    assert got == oracle


@given(st.data())
@settings(max_examples=100)
def test_knows_val_equals_brute_force_on_random_states(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    consts = [Constant(c) for c in "abcde"]
    entries = []
    for _ in range(rng.randint(0, 50)):
        inner = Compound(rng.choice("pq"),
                         tuple(rng.choice(consts) for _ in range(rng.randint(0, 2))))
        entries.append(know(inner))
    state = State.from_terms(entries)
    pattern = Compound(rng.choice("pq"), tuple(
        rng.choice([X, P] + consts) for _ in range(rng.randint(0, 2))))

    got = knows_val(pattern, state)
    oracle = []
    for f in _side(state, knowledge=True):
        s = unify(know(pattern), f)
        if s is not None:
            oracle.append(s)
    assert got == oracle


# Mixed symbols: functors p/q/r at arities 0-3, constants and a placeholder
# sharing a functor's name or a placeholder's id, and nested arguments.
_PH = Placeholder("a", "P", 1)
_LEAVES = [Constant(c) for c in "abc"] + [_PH, Constant("p"), Constant(_PH.id)]


def _random_fluent(rng, depth=1):
    if rng.random() < 0.15:
        return rng.choice(_LEAVES)
    args = tuple(_random_fluent(rng, depth - 1) if depth and rng.random() < 0.2
                 else rng.choice(_LEAVES) for _ in range(rng.randint(0, 3)))
    return Compound(rng.choice("pqr"), args)


def _random_pattern(rng):
    """A pattern headed by a compound, a constant, a placeholder or a bare variable."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice([X, P])
    if roll < 0.25:
        return rng.choice(_LEAVES)
    pool = [X, P, SP, Y] + _LEAVES
    args = tuple(comp("p", rng.choice(pool)) if rng.random() < 0.15 else rng.choice(pool)
                 for _ in range(rng.randint(0, 3)))
    return Compound(rng.choice("pqr"), args)


def _random_start(rng, least=0):
    """Ground bindings of at least least pattern variables, to leaves or to p(#ph)."""
    return {v: rng.choice(_LEAVES + [comp("p", _PH)])
            for v in rng.sample([X, P, SP, Y], rng.randint(least, 3))}


def _random_twinned_state(rng):
    """World and knowledge fluents of shared symbols: p(a) beside know(p(a)), and alone."""
    fluents = [_random_fluent(rng) for _ in range(rng.randint(0, 40))]
    return State.from_terms(t for f in fluents
                            for t in rng.choice([(f,), (know(f),), (f, know(f))]))


@given(st.data())
@settings(max_examples=200)
def test_holds_equals_brute_force_over_mixed_symbols(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    state = _random_twinned_state(rng)
    pattern, start = _random_pattern(rng), _random_start(rng)
    got = holds(pattern, state, start)
    oracle = [s for s in (unify(pattern, f, start)
                          for f in _side(state, knowledge=False)) if s is not None]
    assert got == oracle


@given(st.data())
@settings(max_examples=200)
def test_knows_val_equals_brute_force_over_mixed_symbols(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    state = _random_twinned_state(rng)
    pattern, start = _random_pattern(rng), _random_start(rng)
    got = knows_val(pattern, state, start)
    oracle = [s for s in (unify(know(pattern), f, start)
                          for f in _side(state, knowledge=True)) if s is not None]
    assert got == oracle
    assert holds(know(pattern), state, start) == oracle


def test_bare_variables_see_only_their_own_side():
    state = _state(comp("p", doctor), know(comp("p", doctor)), know(doctor), nurse)
    assert [s[X] for s in holds(X, state)] == [nurse, comp("p", doctor)]
    assert [s[X] for s in knows_val(X, state)] == [doctor, comp("p", doctor)]
    # the side is the pattern's as given: X bound to a knowledge fluent is no knowledge query
    assert holds(X, state, {X: know(doctor)}) == []


# Children made by with_update inherit their parent's index: each answer must
# equal that of a freshly built state and the unify brute force, in order.
def _random_stored(rng):
    fluent = _random_fluent(rng)
    return know(fluent) if rng.random() < 0.5 else fluent


def _random_update(rng, state):
    """Adds and removes: present, absent, both added and removed, a whole group emptied."""
    present = sorted(state.fluents, key=order_key)
    removes = rng.sample(present, rng.randint(0, min(4, len(present))))
    if present and rng.random() < 0.3:
        emptied = fluent_symbol(rng.choice(present))
        removes += [t for t in present if fluent_symbol(t) == emptied]
    adds = [_random_stored(rng) for _ in range(rng.randint(0, 4))]
    adds += rng.sample(removes, rng.randint(0, len(removes)))
    removes += [_random_stored(rng) for _ in range(rng.randint(0, 2))]
    return adds, removes


def _generalized(rng, fluent):
    """A pattern for the fluent's symbol: arguments turned variable at random."""
    inner = fluent.args[0] if is_knowledge(fluent) else fluent
    if not isinstance(inner, Compound):
        return inner
    pool = [X, P, SP]
    return Compound(inner.functor, tuple(rng.choice(pool) if rng.random() < 0.4 else a
                                         for a in inner.args))


def _assert_answers(pattern, state, start):
    fresh = State(state.fluents)
    for query, knowledge, oracle_pattern in ((holds, False, pattern),
                                             (knows_val, True, know(pattern))):
        got = query(pattern, state, start)
        assert got == query(pattern, fresh, start)
        oracle = (unify(oracle_pattern, f, start) for f in _side(state, knowledge))
        assert got == [s for s in oracle if s is not None]


@given(st.data())
@settings(max_examples=300)
def test_children_answer_like_fresh_states(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    state = State.from_terms(_random_stored(rng) for _ in range(rng.randint(0, 30)))
    for _ in range(rng.randint(1, 3)):
        adds, removes = _random_update(rng, state)
        patterns = [_random_pattern(rng) for _ in range(3)]
        patterns += [_generalized(rng, t) for t in adds + removes]
        starts = [_random_start(rng) for _ in patterns]
        for pattern, start in zip(patterns, starts):  # the parent builds what is inherited
            _assert_answers(pattern, state, start)
        state = state.with_update(adds, removes)
        for pattern, start in zip(patterns, starts):
            _assert_answers(pattern, state, start)


# Named cases of one-way matching, each checked against the unify oracle too.
def _both_ways(pattern, fluents):
    """holds over the fluents and knows_val over their know() twins, which must agree."""
    got = holds(pattern, State.from_terms(fluents))
    assert knows_val(pattern, State.from_terms(map(know, fluents))) == got
    assert got == [s for s in (unify(pattern, f) for f in sorted(fluents, key=str))
                   if s is not None]
    return got


def test_match_repeated_variable_needs_equal_arguments():
    assert _both_ways(comp("p", X, X), [comp("p", doctor, doctor)]) == [{X: doctor}]
    assert _both_ways(comp("p", X, X), [comp("p", doctor, nurse)]) == []


def test_match_placeholder_is_not_the_constant_named_by_its_id():
    assert _both_ways(_PH, [Constant(_PH.id)]) == []
    assert _both_ways(comp("p", _PH), [comp("p", Constant(_PH.id))]) == []
    assert len(_both_ways(comp("p", _PH), [comp("p", _PH)])) == 1


def test_match_constant_is_not_the_nullary_compound():
    assert _both_ways(Constant("p"), [comp("p")]) == []
    assert _both_ways(comp("p"), [Constant("p")]) == []


def test_match_ground_pattern_yields_the_start_as_a_new_dict():
    start = {X: doctor}
    state = _state(comp("p", doctor, nurse), comp("p", nurse, nurse))
    got = holds(comp("p", X, nurse), state, start)
    assert got == [start] and got[0] is not start
    got[0][Y] = nurse  # an answer is the caller's own
    assert start == {X: doctor}
    got = knows_val(comp("p", X, nurse), _state(know(comp("p", doctor, nurse))), start)
    assert got == [start] and got[0] is not start


# The extensions holds gives from an empty and from ground partial bindings:
# they must equal those of a fresh state and of the unify brute force, in order.
def _assert_core(pattern, state, bound):
    before = dict(bound)
    got = holds(pattern, state, bound)
    assert bound == before  # the bindings passed in are never written
    assert got == holds(pattern, State(state.fluents), bound)
    oracle = (unify(pattern, f, bound) for f in _side(state, is_knowledge(pattern)))
    assert got == [s for s in oracle if s is not None]
    return got


@given(st.data())
@settings(max_examples=300)
def test_extensions_equal_holds_and_brute_force(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    state = _random_twinned_state(rng)
    patterns = [_random_pattern(rng) for _ in range(2)]
    patterns += [know(p) for p in patterns]
    for fluent in rng.sample(sorted(state.fluents, key=order_key), min(2, len(state.fluents))):
        inner = _generalized(rng, fluent)
        patterns.append(know(inner) if is_knowledge(fluent) else inner)
    for pattern in patterns:
        for solution in _assert_core(pattern, state, {}):
            # a part of a solution, which the query from it must meet again
            part = {v: t for v, t in solution.items() if rng.random() < 0.5}
            assert solution in _assert_core(pattern, state, part)
        _assert_core(pattern, state, _random_start(rng, least=1))


def test_extensions_resolve_a_bound_first_argument_through_the_map():
    state = _state(comp("p", doctor, nurse), comp("p", nurse, nurse), comp("p", doctor, general))
    got = holds(comp("p", X, Y), state, {X: doctor})
    assert got == [{X: doctor, Y: general}, {X: doctor, Y: nurse}]
    # the group was split by first argument for the bound X: by_first was taken
    assert "table" in vars(state._index[(False, "p", 2)])
    assert _assert_core(comp("p", X, Y), state, {X: doctor}) == got
    assert _assert_core(know(comp("p", X, Y)), _state(*map(know, state.fluents)),
                        {X: nurse}) == [{X: nurse, Y: nurse}]


def test_fluents_of_reads_one_symbol_in_canonical_order():
    p_dn, p_ng = comp("p", doctor, nurse), comp("p", nurse, general)
    state = _state(p_ng, p_dn, know(p_dn))
    assert state.fluents_of((False, "p", 2)) == (p_dn, p_ng)
    assert state.fluents_of((True, "p", 2)) == (know(p_dn),)
    assert state.fluents_of((False, "p", 1)) == ()


def test_extensions_check_a_bound_variable():
    state = _state(comp("p", doctor, nurse), comp("p", nurse, general), comp("p", nurse, nurse))
    assert _assert_core(comp("p", X, Y), state, {Y: nurse}) == [
        {X: doctor, Y: nurse}, {X: nurse, Y: nurse}]
    assert _assert_core(comp("p", X, nurse), state, {X: general}) == []


def test_extensions_check_a_repeated_variable():
    state = _state(comp("p", doctor, nurse))
    assert _assert_core(comp("p", X, X), state, {}) == []
    assert _assert_core(comp("p", X, X), state, {X: doctor}) == []
    assert _assert_core(comp("p", X, X), _state(comp("p", nurse, nurse)), {}) == [{X: nurse}]


def test_extensions_tell_apart_leaves_that_share_a_group_key():
    assert _assert_core(Constant("p"), _state(comp("p")), {}) == []
    assert _assert_core(know(comp("p")), _state(know(Constant("p"))), {}) == []
    assert _assert_core(X, _state(comp("p")), {X: Constant("p")}) == []
    assert _assert_core(_PH, _state(Constant(_PH.id)), {}) == []
    assert _assert_core(comp("p", X), _state(comp("p", Constant(_PH.id))), {X: _PH}) == []


def test_extensions_of_a_bare_variable_bound_and_unbound():
    state = _state(comp("p", doctor), know(comp("p", doctor)), know(doctor), nurse)
    assert _assert_core(X, state, {}) == [{X: nurse}, {X: comp("p", doctor)}]
    assert _assert_core(X, state, {X: comp("p", doctor)}) == [{X: comp("p", doctor)}]
    assert _assert_core(know(X), state, {X: doctor}) == [{X: doctor}]
    # the side is the pattern's as given: X bound to a knowledge fluent is no knowledge query
    assert _assert_core(X, state, {X: know(doctor)}) == []


@given(_terms())
def test_apply_returns_an_unchanged_term_itself(t):
    assert instantiate(t, {}) is t
    assert instantiate(t, {Variable("Z"): doctor}) is t
    if is_ground(t):
        assert instantiate(t, {X: nurse}) is t


def _render(t):
    if isinstance(t, Compound):
        return "%s(%s)" % (t.functor, ",".join(_render(a) for a in t.args))
    return str(t)


@given(_terms())
def test_compound_text_equals_uncached_rendering(t):
    twin = _rename_canonically(t, {v: v for v in (X, PR, SP)})  # equal, never rendered
    assert str(t) == _render(t) == str(t)
    assert t == twin and hash(t) == hash(twin)


# Canonical order: text first, repr only where texts tie. These leaves and
# functors make different terms render alike.
def _tied_terms():
    leaves = st.one_of(
        st.sampled_from([Constant(n) for n in ("a", "b", "f(a)", "a,b", "X", "#out_a_P_1")]),
        st.sampled_from([Variable("X"), Variable("a")]),
        st.builds(Placeholder, st.sampled_from(["a", "a_P"]), st.sampled_from(["P", "P_1"]),
                  st.integers(1, 2)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.builds(lambda f, args: Compound(f, tuple(args)),
                                st.sampled_from(["f", "a"]),
                                st.lists(inner, min_size=0, max_size=3)),
        max_leaves=6,
    )


def test_terms_that_render_alike_get_different_order_keys():
    a, b = Constant("a"), Constant("b")
    for one, other in ((Constant("f(a)"), comp("f", a)),
                       (Constant("X"), X),
                       (Constant("#out_a_P_1"), Placeholder("a", "P", 1)),
                       (Placeholder("a_P", "1", 1), Placeholder("a", "P_1", 1)),
                       (comp("f", Constant("a,b")), comp("f", a, b))):
        assert str(one) == str(other)
        assert order_key(one) != order_key(other)


@given(st.lists(_tied_terms(), min_size=2, max_size=8))
@settings(max_examples=300)
def test_order_key_is_one_to_one_and_follows_the_text(terms):
    for one in terms:
        for other in terms:
            key, other_key = order_key(one), order_key(other)
            assert (key == other_key) == (one == other)
            assert [key < other_key, key == other_key, key > other_key].count(True) == 1
            if str(one) != str(other):
                assert (key < other_key) == (str(one) < str(other))


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_states_reject_non_ground_fluents():
    from fluxcompose.terms import NotGroundError
    with pytest.raises(NotGroundError):
        State.from_terms([comp("f", X)])
    with pytest.raises(NotGroundError):
        State().with_update([comp("f", X)], [])

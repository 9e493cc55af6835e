"""Unification, holds/knows_val matching, and states."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fluxcompose.terms import (
    EMPTY_SUBST,
    Compound,
    Constant,
    Placeholder,
    State,
    Substitution,
    Variable,
    holds,
    is_ground,
    knows_val,
    unify,
)

PR, SP, P, X = Variable("PR"), Variable("SP"), Variable("P"), Variable("X")
doctor, orthopedics, nurse, general = (
    Constant("doctor"), Constant("orthopedics"), Constant("nurse"), Constant("general"))


def comp(functor, *args):
    return Compound(functor, tuple(args))


def know(t):
    return comp("know", t)


# ---------------------------------------------------------------------------
# unify
# ---------------------------------------------------------------------------


def test_unify_single_variable():
    got = unify(comp("Profession", PR), comp("Profession", doctor))
    assert got is not None
    assert got.apply(PR) == doctor


def test_unify_available_pattern():
    got = unify(comp("available", PR, SP), comp("available", doctor, orthopedics))
    assert got is not None
    assert got.apply(PR) == doctor
    assert got.apply(SP) == orthopedics


def test_unify_occurs_check():
    assert unify(X, comp("f", X)) is None


def test_unify_functor_and_arity_clash():
    assert unify(comp("f", X), comp("g", X)) is None
    assert unify(comp("f", X), comp("f", X, X)) is None
    assert unify(doctor, nurse) is None


def test_unify_extends_given_substitution():
    base = unify(PR, doctor)
    got = unify(comp("available", PR, SP), comp("available", doctor, orthopedics), base)
    assert got is not None
    assert got.apply(SP) == orthopedics
    assert unify(comp("available", PR, SP), comp("available", nurse, orthopedics), base) is None


def test_unify_applies_both_sides_equal():
    got = unify(comp("f", X, nurse), comp("f", doctor, SP))
    assert got.apply(comp("f", X, nurse)) == got.apply(comp("f", doctor, SP))


def test_placeholders_are_ground_constants():
    ph = Placeholder("findResource", "NAME", 1)
    assert is_ground(ph)
    assert str(ph) == "#out_findResource_NAME_1"
    got = unify(P, ph)
    assert got.apply(P) == ph
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
        left = _rename_canonically(a.apply(t1), {})
        right = _rename_canonically(b.apply(t2), {})
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
            once = got.apply(t)
            assert got.apply(once) == once


def test_substitution_never_binds_var_to_term_containing_it():
    got = unify(comp("f", X, X), comp("f", P, comp("g", P)))
    assert got is None


# ---------------------------------------------------------------------------
# holds / knows_val
# ---------------------------------------------------------------------------


def _state(*terms):
    return State.from_terms(terms)


def test_holds_matches_pattern_against_world():
    state = _state(comp("available", doctor, orthopedics))
    got = list(holds(comp("available", PR, SP), state))
    assert len(got) == 1
    assert got[0].apply(PR) == doctor and got[0].apply(SP) == orthopedics


def test_holds_empty_state():
    assert list(holds(comp("available", PR, SP), State())) == []


def test_holds_filters_by_bound_constant():
    state = _state(comp("available", doctor, orthopedics),
                   comp("available", nurse, general))
    got = list(holds(comp("available", doctor, SP), state))
    assert len(got) == 1
    assert got[0].apply(SP) == orthopedics


def test_knows_val_matches_knowledge():
    state = _state(know(comp("Profession", doctor)))
    got = list(knows_val(comp("Profession", PR), state))
    assert len(got) == 1 and got[0].apply(PR) == doctor


def test_knows_val_placeholder_counts_as_known():
    ph = Placeholder("findResource", "NAME", 1)
    state = _state(know(comp("Name", ph)))
    got = list(knows_val(comp("Name", P), state))
    assert len(got) == 1 and got[0].apply(P) == ph


def test_knows_val_empty_knowledge():
    assert list(knows_val(Constant("ConfirmSend"), State())) == []


def test_knowledge_and_world_are_separate():
    state = _state(comp("f", doctor), know(comp("f", doctor)))
    assert len(list(holds(comp("f", X), state))) == 1
    assert len(list(knows_val(comp("f", X), state))) == 1
    assert len(list(holds(know(comp("f", X)), state))) == 0


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

    got = list(holds(pattern, state))
    oracle = []
    for f in sorted(state.world, key=str):
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

    got = list(knows_val(pattern, state))
    oracle = []
    for f in sorted(state.knowledge, key=str):
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
    pool = [X, P, SP, Variable("Y")] + _LEAVES
    args = tuple(comp("p", rng.choice(pool)) if rng.random() < 0.15 else rng.choice(pool)
                 for _ in range(rng.randint(0, 3)))
    return Compound(rng.choice("pqr"), args)


def _random_start(rng):
    """A start substitution binding some pattern variables (X possibly to Y)."""
    start = EMPTY_SUBST
    for var in rng.sample([X, P, SP], rng.randint(0, 2)):
        start = start.bind(var, rng.choice(_LEAVES + [Variable("Y"), comp("p", _PH)]))
    return start


@given(st.data())
@settings(max_examples=200)
def test_holds_equals_brute_force_over_mixed_symbols(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    state = State.from_terms(_random_fluent(rng) for _ in range(rng.randint(0, 40)))
    pattern, start = _random_pattern(rng), _random_start(rng)
    got = [s.bindings for s in holds(pattern, state, start)]
    oracle = [s.bindings for s in (unify(pattern, f, start)
                                   for f in sorted(state.world, key=str)) if s is not None]
    assert got == oracle


@given(st.data())
@settings(max_examples=200)
def test_knows_val_equals_brute_force_over_mixed_symbols(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    state = State.from_terms(know(_random_fluent(rng)) for _ in range(rng.randint(0, 40)))
    pattern, start = _random_pattern(rng), _random_start(rng)
    got = [s.bindings for s in knows_val(pattern, state, start)]
    oracle = [s.bindings for s in (unify(know(pattern), f, start)
                                   for f in sorted(state.knowledge, key=str)) if s is not None]
    assert got == oracle


# Named cases of one-way matching, each checked against the unify oracle too.
Y = Variable("Y")


def _both_ways(pattern, fluents, start=EMPTY_SUBST):
    """holds over the fluents and knows_val over their know() twins, which must agree."""
    got = list(holds(pattern, State.from_terms(fluents), start))
    known = list(knows_val(pattern, State.from_terms(map(know, fluents)), start))
    assert known == got
    assert got == [s for s in (unify(pattern, f, start) for f in sorted(fluents, key=str))
                   if s is not None]
    return got


def test_match_through_a_start_binding_rebinds_its_owner():
    start = EMPTY_SUBST.bind(X, Y)
    got = _both_ways(comp("p", Y), [comp("p", doctor)], start)
    assert [s.bindings for s in got] == [{X: doctor, Y: doctor}]


def test_match_repeated_variable_needs_equal_arguments():
    got = _both_ways(comp("p", X, X), [comp("p", doctor, doctor)])
    assert [s.bindings for s in got] == [{X: doctor}]
    assert _both_ways(comp("p", X, X), [comp("p", doctor, nurse)]) == []


def test_match_placeholder_is_not_the_constant_named_by_its_id():
    assert _both_ways(_PH, [Constant(_PH.id)]) == []
    assert _both_ways(comp("p", _PH), [comp("p", Constant(_PH.id))]) == []
    assert len(_both_ways(comp("p", _PH), [comp("p", _PH)])) == 1


def test_match_constant_is_not_the_nullary_compound():
    assert _both_ways(Constant("p"), [comp("p")]) == []
    assert _both_ways(comp("p"), [Constant("p")]) == []


def test_match_ground_pattern_yields_the_start_itself():
    start = EMPTY_SUBST.bind(X, doctor)
    state = _state(comp("p", doctor, nurse), comp("p", nurse, nurse))
    got = list(holds(comp("p", X, nurse), state, start))
    assert len(got) == 1 and got[0] is start
    got = list(knows_val(comp("p", X, nurse), _state(know(comp("p", doctor, nurse))), start))
    assert len(got) == 1 and got[0] is start


@given(_terms())
def test_apply_returns_an_unchanged_term_itself(t):
    assert EMPTY_SUBST.apply(t) is t
    unrelated = Substitution({Variable("Z"): doctor})
    assert unrelated.apply(t) is t
    if is_ground(t):
        assert Substitution({X: nurse}).apply(t) is t


def _render(t):
    if isinstance(t, Compound):
        return "%s(%s)" % (t.functor, ",".join(_render(a) for a in t.args))
    return str(t)


@given(_terms())
def test_compound_text_equals_uncached_rendering(t):
    twin = _rename_canonically(t, {v: v for v in (X, PR, SP)})  # equal, never rendered
    assert str(t) == _render(t) == str(t)
    assert t == twin and hash(t) == hash(twin)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_states_reject_non_ground_fluents():
    from fluxcompose.terms import NotGroundError
    with pytest.raises(NotGroundError):
        State.from_terms([comp("f", X)])
    with pytest.raises(NotGroundError):
        State().with_update([comp("f", X)], [])

"""Domain-language parser and pretty-printer."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import randgen
from fluxcompose import dsl
from fluxcompose.errors import ParseError
from fluxcompose.terms import Compound, Constant, Variable, is_ground, is_knowledge, know

TABLE_ACTION = (
    "fluent Profession/1. fluent Specialization/1. fluent availableRole/2.\n"
    "fluent Name/1. fluent CoachNum/1.\n"
    "action findResource(PR,SP) "
    "poss: knows_val(Profession(PR)), knows_val(Specialization(SP)), "
    "holds(availableRole(PR,SP)) "
    "update: add [know(Name(P)), know(CoachNum(CN))] remove []."
)


def test_parse_domain_find_resource_axiom():
    d = dsl.parse_domain(TABLE_ACTION)
    assert len(d.actions) == 1
    a = d.actions[0]
    assert a.name == "findResource"
    assert a.params == (Variable("PR"), Variable("SP"))
    assert [is_knowledge(pattern) for pattern in a.poss] == [True, True, False]
    assert a.outputs == (Variable("P"), Variable("CN"))
    assert a.removes == ()


def test_parse_domain_empty_source():
    d = dsl.parse_domain("")
    assert d.fluent_decls == () and d.actions == ()


def test_parse_domain_undeclared_fluent_position():
    source = "action f() poss: update: add [g(X)] remove [g(X)]."
    with pytest.raises(dsl.ArityError) as exc:
        dsl.parse_domain(source)
    # position independently verified by character count of the fixture
    expected_col = source.index("g(X)") + 1
    assert exc.value.line == 1
    assert exc.value.column == expected_col


def test_parse_domain_arity_mismatch():
    with pytest.raises(dsl.ArityError):
        dsl.parse_domain("fluent g/2. action f() poss: update: add [g(a)] remove [].")


@pytest.mark.parametrize("add, error, found", [
    ("know(know(p))", ParseError, "nested know"),
    ("know(p,p)", ParseError, "'know(p,p)'"),
    ("know", ParseError, "'know'"),
    ("know(know)", ParseError, "nested know"),  # know is reserved, with or without arguments
])
def test_misused_know_in_an_update(add, error, found):
    source = f"fluent p/0.\naction f() poss: update: add [{add}] remove []."
    with pytest.raises(error) as exc:
        dsl.parse_domain(source)
    assert found in str(exc.value)
    assert (exc.value.line, exc.value.column) == (2, source.index(add) - 11)


def test_parse_domain_duplicate_action_name():
    src = ("fluent p/0. action f() poss: update: add [p] remove []. "
           "action f() poss: update: add [] remove [p].")
    with pytest.raises(ParseError):
        dsl.parse_domain(src)


def test_parse_domain_unbound_remove_variable():
    with pytest.raises(ParseError):
        dsl.parse_domain("fluent g/1. action f() poss: update: add [] remove [g(X)].")


def test_parse_domain_know_is_reserved():
    with pytest.raises(ParseError):
        dsl.parse_domain("fluent know/1.")


def test_parse_domain_empty_poss_and_variable_convention():
    d = dsl.parse_domain("fluent g/2. action f(X) poss: holds(g(X,doctor)) "
                         "update: add [g(X,ConfirmSend)] remove [].")
    pattern = d.actions[0].poss[0]
    assert pattern.args == (Variable("X"), Constant("doctor"))
    # CamelCase bare identifiers are constants; all-caps are variables
    assert d.actions[0].adds[0].args == (Variable("X"), Constant("ConfirmSend"))


def test_parse_problem_table_goal():
    pf = dsl.parse_problem(
        "init: availableRole(doctor,orthopedics), know(Profession(doctor)). "
        "goal: know(ConfirmSend).")
    assert len(pf.initial) == 2
    assert len(pf.goal) == 1
    assert pf.goal[0] == Compound("know", (Constant("ConfirmSend"),))


def test_parse_problem_empty():
    pf = dsl.parse_problem("init: . goal: .")
    assert pf.initial == () and pf.goal == ()


def test_parse_problem_groundness_error():
    with pytest.raises(dsl.GroundnessError):
        dsl.parse_problem("init: f(X). goal: f(X).")


def test_parse_problem_trailing_garbage():
    with pytest.raises(ParseError):
        dsl.parse_problem("init: . goal: . extra")


DEEP_TERM = "f(" * 3000 + "a" + ")" * 3000


@pytest.mark.parametrize("parse, text", [
    (dsl.parse_domain,
     f"fluent f/1.\naction a() poss: holds({DEEP_TERM}) update: add [] remove []."),
    (dsl.parse_problem, f"init: {DEEP_TERM}. goal: ."),
    (dsl.parse_term_text, DEEP_TERM),
    (dsl.parse_atom_text, f"holds({DEEP_TERM})"),
])
def test_too_deep_nesting_is_a_parse_error(parse, text):
    with pytest.raises(ParseError) as exc:
        parse(text, "deep.src")
    assert exc.value.source_name == "deep.src"
    assert exc.value.found == "term nesting too deep"


def _nested(depth, leaf="a"):
    return "f(" * depth + leaf + ")" * depth


def test_nesting_at_the_limit_parses_and_renders():
    text = _nested(dsl.MAX_TERM_DEPTH)
    term = dsl.parse_term_text(text)
    assert is_ground(term)
    assert str(term) == text
    assert not is_ground(dsl.parse_term_text(_nested(dsl.MAX_TERM_DEPTH, "X")))


def test_nesting_past_the_limit_names_the_outermost_term():
    with pytest.raises(ParseError) as exc:
        dsl.parse_term_text("\n  g(a, " + _nested(dsl.MAX_TERM_DEPTH) + ")", "deep.src")
    assert (exc.value.line, exc.value.column) == (2, 3)
    assert str(exc.value) == (
        "deep.src:2:3: expected shallower nesting, found term nesting too deep")
    with pytest.raises(ParseError):
        dsl.parse_term_text(_nested(dsl.MAX_TERM_DEPTH + 1))


def test_comments_are_skipped():
    d = dsl.parse_domain("% a comment\nfluent p/0. % another\n")
    assert d.fluent_decls == (("p", 0),)


# ---------------------------------------------------------------------------
# pretty-printing round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text, line, column, found", [
    ("fluent p/1. $", 1, 13, "'$'"),
    ("fluent p/1.\r\n\r\n\n  fluent q/1. \u00e9", 4, 15, "'\u00e9'"),
    ("fluent p/1.\n% a comment\n\n  p", 4, 3, "'p'"),
])
def test_parse_error_positions_after_stray_characters_and_line_breaks(
        text, line, column, found):
    with pytest.raises(ParseError) as exc:
        dsl.parse_domain(text)
    assert (exc.value.line, exc.value.column, exc.value.found) == (line, column, found)


# Token alphabet pieces, comments, both line-break forms and stray characters.
TOKEN_SOURCES = st.lists(
    st.one_of(st.sampled_from(["fluent", "X_1", "p", "42", "(", ")", "[", "]", ",",
                               ".", "/", ":", " ", "\t", "\n", "\r\n", "%",
                               "% note", "$", "-", "\u00e9", "\x85", "\u2028"]),
              st.characters()),
    max_size=40).map("".join)


@given(TOKEN_SOURCES)
@settings(max_examples=300)
def test_tokenize_agrees_with_the_match_loop_reference(text):
    try:
        expected = oracles.match_loop_tokenize(text, "t.fcd")
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            dsl._tokenize(text, "t.fcd")
        assert (got.value.line, got.value.column, str(got.value)) == (
            exc.line, exc.column, str(exc))
    else:
        assert [tuple(t) for t in dsl._tokenize(text, "t.fcd")] == expected


def test_pretty_print_empty_domain_is_empty_text():
    assert dsl.pretty_print(dsl.DomainFile((), ())) == ""


def test_bundled_domain_round_trips(emergency_domain):
    printed = dsl.pretty_print(emergency_domain)
    assert dsl.parse_domain(printed) == emergency_domain


def test_pretty_print_is_stable(emergency_domain):
    once = dsl.pretty_print(emergency_domain)
    twice = dsl.pretty_print(dsl.parse_domain(once))
    assert once == twice


def test_problem_pretty_print_round_trips(emergency_problem):
    printed = dsl.pretty_print_problem(emergency_problem)
    assert dsl.parse_problem(printed) == emergency_problem


@given(st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_generated_domains_round_trip(seed):
    d = randgen.random_domain_file(random.Random(seed))
    assert dsl.parse_domain(dsl.pretty_print(d)) == d


@given(st.text(max_size=120))
@settings(max_examples=300)
def test_parsing_is_total(text):
    try:
        dsl.parse_domain(text)
    except ParseError as exc:
        lines = text.split("\n")
        assert 1 <= exc.line <= max(1, len(lines))
        assert exc.column >= 1
    try:
        dsl.parse_problem(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1


@given(st.text(alphabet="fluent action poss update add remove []()./:,%XYx\n ",
               max_size=200))
@settings(max_examples=300)
def test_parsing_is_total_near_grammar(text):
    try:
        dsl.parse_domain(text)
    except ParseError:
        pass


def test_parse_term_text_fragment():
    t = dsl.parse_term_text("availableRole(doctor,Orthopedics)")
    assert t == Compound("availableRole", (Constant("doctor"), Constant("Orthopedics")))
    with pytest.raises(ParseError):
        dsl.parse_term_text("f(a) trailing")


def test_parse_atom_text_fragment():
    available = Compound("availableAt", (Variable("P"), Variable("CN")))
    assert dsl.parse_atom_text("holds(availableAt(P,CN))") == available
    assert dsl.parse_atom_text("knows_val(availableAt(P,CN))") == know(available)
    for text in ("holds(availableAt(P,CN))", "knows_val(availableAt(P,CN))"):
        assert dsl.atom_text(dsl.parse_atom_text(text)) == text
    with pytest.raises(ParseError):
        dsl.parse_atom_text("neither(x)")

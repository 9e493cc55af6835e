"""Textual domain language for fluent declarations, action schemas, and problems.

Grammar (documented bit-exactly; see also README):

    domain    := (fluent_decl | action)*
    fluent_decl := "fluent" IDENT "/" NUMBER "."
    action    := "action" IDENT "(" [VAR ("," VAR)*] ")"
                 "poss" ":" [atom ("," atom)*]
                 "update" ":" "add" "[" [term ("," term)*] "]"
                             "remove" "[" [term ("," term)*] "]" "."
    atom      := ("holds" | "knows_val") "(" term ")"
    problem   := "init" ":" [term ("," term)*] "." "goal" ":" [term ("," term)*] "."
    term      := IDENT "(" [term ("," term)*] ")" | IDENT

Statements end with ".". Lists use "[...]" with "," separators. "%" starts a
comment running to end of line. Encoding is UTF-8. A bare identifier made of
capitals, digits and underscores (PR, SP, MSG) is a Variable; any other bare
identifier (doctor, ConfirmSend) is a Constant. An identifier in functor
position is always a functor symbol. A term nests at most MAX_TERM_DEPTH
compounds deep. ``know`` is reserved: it wraps knowledge fluents and cannot be
declared. A poss atom is kept as the fluent pattern it queries: holds(P) as P,
and knows_val(P) as know(P); `atom_text` writes it back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .errors import FluxError, ParseError
from .terms import (
    Compound,
    Constant,
    KNOW,
    Term,
    Variable,
    fluent_symbol,
    functor_arity,
    has_placeholder,
    is_ground,
    is_knowledge,
    know,
    pattern_symbol,
    variables_in,
)

# A variable name, in domain files and registry parameters alike.
VAR_RE = re.compile(r"[A-Z][A-Z0-9_]*\Z")

# Deepest compound nesting a term may have. Code downstream (rendering,
# unification, groundness) recurses a few frames per level, so this stays far
# under the interpreter's recursion limit; real fluents nest two or three deep.
MAX_TERM_DEPTH = 64


class ArityError(ParseError):
    """A fluent is used undeclared or with the wrong arity."""


class GroundnessError(ParseError):
    """A variable occurs where only ground terms are allowed."""


@dataclass(frozen=True)
class ActionSchema:
    """An action's parameters, poss-precondition, and add/remove update lists.

    ``poss`` is a conjunction of fluent patterns, know(P) for knows_val(P).
    ``outputs`` are the variables of the add list left unbound by params and
    poss; they receive fresh placeholder values when the action is applied.
    The planner's symbol analysis reads the cached attributes below, computed
    once per schema.
    """

    name: str
    params: tuple[Variable, ...]
    poss: tuple[Term, ...]
    adds: tuple[Term, ...]
    removes: tuple[Term, ...]
    outputs: tuple[Variable, ...]

    @cached_property
    def poss_symbols(self) -> frozenset:
        """The `pattern_symbol`s poss queries; None stands for a bare variable."""
        return frozenset(map(pattern_symbol, self.poss))

    @cached_property
    def add_symbols(self) -> frozenset:
        """The `pattern_symbol`s of the adds; None stands for a bare variable."""
        return frozenset(map(pattern_symbol, self.adds))

    @cached_property
    def add_sources(self) -> tuple[tuple[Optional[tuple[bool, str, int]], tuple], ...]:
        """Per add, its `pattern_symbol` and where each top-level argument's value comes from.

        An argument (inside know, of the term in it) is kept as itself when it
        is ground; an output, which takes a fresh placeholder, is None; any
        other is the tuple of (`pattern_symbol`, position) pairs at which it is
        a top-level argument of a poss pattern, empty for a compound holding a
        variable or a variable met only nested or not at all. A bare-variable
        add has no arguments.
        """
        columns: dict[Variable, tuple] = {}
        for pattern in self.poss:
            inner = pattern.args[0] if is_knowledge(pattern) else pattern
            if isinstance(inner, Compound):
                for j, arg in enumerate(inner.args):
                    if isinstance(arg, Variable):
                        columns[arg] = columns.get(arg, ()) + ((pattern_symbol(pattern), j),)

        def source(arg: Term):
            if is_ground(arg):
                return arg
            return None if arg in self.outputs else columns.get(arg, ())

        sources = []
        for add in self.adds:
            inner = add.args[0] if is_knowledge(add) else add
            args = inner.args if isinstance(inner, Compound) else ()
            sources.append((pattern_symbol(add), tuple(map(source, args))))
        return tuple(sources)

    @cached_property
    def mints_placeholders(self) -> bool:
        """Whether an application can add a placeholder: outputs, or an add naming one."""
        return bool(self.outputs) or any(map(has_placeholder, self.adds))


def make_action_schema(name: str, params: Iterable[Variable], poss: Iterable[Term],
                       adds: Iterable[Term], removes: Iterable[Term]) -> ActionSchema:
    """Construct a schema, computing outputs and checking the remove-list rule."""
    params = tuple(params)
    poss = tuple(poss)
    adds = tuple(adds)
    removes = tuple(removes)
    bound = set(params)
    for pattern in poss:
        bound.update(variables_in(pattern))
    outputs: list[Variable] = []
    for t in adds:
        for v in variables_in(t):
            if v not in bound and v not in outputs:
                outputs.append(v)
    for t in removes:
        for v in variables_in(t):
            if v not in bound:
                raise FluxError(
                    f"action {name}: variable {v.name} in remove list is unbound"
                )
    return ActionSchema(name, params, poss, adds, removes, tuple(outputs))


@dataclass(frozen=True)
class DomainFile:
    fluent_decls: tuple[tuple[str, int], ...]
    actions: tuple[ActionSchema, ...]

    def declared(self) -> dict[str, int]:
        return dict(self.fluent_decls)


@dataclass(frozen=True)
class ProblemFile:
    initial: tuple[Term, ...]
    goal: tuple[Term, ...]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # ident | number | punct | eof
    text: str
    line: int
    col: int


# Every character starts a match: `bad` takes any one the others do not.
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>%[^\n]*)"
    r"|(?P<number>\d+)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<punct>[()\[\],./:])"
    r"|(?P<bad>.)",
    re.S,
)


def _tokenize(source: str, source_name: str) -> list[_Token]:
    """The tokens of source, ending in an eof token, in one regex pass.

    Only whitespace runs can hold a line break: a comment stops before one.
    """
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            text = m.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rindex("\n") + 1
        elif kind == "bad":
            raise ParseError(line, m.start() - line_start + 1, "a token",
                             repr(m.group()), source_name)
        elif kind != "comment":
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
    tokens.append(_Token("eof", "<end of input>", line, len(source) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, source: str, source_name: str):
        self.source_name = source_name
        self.tokens = _tokenize(source, source_name)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, expected: str, tok: Optional[_Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(tok.line, tok.col, expected, repr(tok.text), self.source_name)

    def expect_punct(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            raise self.fail(repr(text))
        return self.advance()

    def expect_ident(self, what: str = "an identifier") -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(what)
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            raise self.fail(repr(word))
        return self.advance()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    # -- terms --------------------------------------------------------------

    def parse_term(self, depth: int = 0,
                   top: Optional[_Token] = None) -> tuple[Term, _Token]:
        """Parse one term; past MAX_TERM_DEPTH compounds deep, fail at the outermost."""
        tok = self.expect_ident("a term")
        top = top or tok
        if self.at_punct("("):
            if depth == MAX_TERM_DEPTH:
                raise ParseError(top.line, top.col, "shallower nesting",
                                 "term nesting too deep", self.source_name)
            self.advance()
            args: list[Term] = []
            if not self.at_punct(")"):
                args.append(self.parse_term(depth + 1, top)[0])
                while self.at_punct(","):
                    self.advance()
                    args.append(self.parse_term(depth + 1, top)[0])
            self.expect_punct(")")
            return Compound(tok.text, tuple(args)), tok
        if VAR_RE.match(tok.text):
            return Variable(tok.text), tok
        return Constant(tok.text), tok

    def parse_atom(self, expected: str) -> tuple[Term, _Token]:
        """Parse holds(P) into the pattern P, or knows_val(P) into know(P);
        expected names what may come first, for the error when something
        else does. P is a bare fluent: inside knows_val a know(...) would
        nest, and inside holds it would spell knows_val a second way."""
        kind_tok = self.expect_ident(expected)
        if kind_tok.text not in ("holds", "knows_val"):
            raise self.fail(expected, kind_tok)
        self.expect_punct("(")
        pattern, pat_tok = self.parse_term()
        self.expect_punct(")")
        if functor_arity(pattern)[0] == KNOW:
            raise self.fail("a bare fluent pattern", pat_tok)
        return (know(pattern) if kind_tok.text == "knows_val" else pattern), pat_tok

    def parse_term_list(self, closer: str) -> list[tuple[Term, _Token]]:
        items: list[tuple[Term, _Token]] = []
        if self.at_punct(closer):
            return items
        items.append(self.parse_term())
        while self.at_punct(","):
            self.advance()
            items.append(self.parse_term())
        return items


# ---------------------------------------------------------------------------
# Domain files
# ---------------------------------------------------------------------------


def know_misuse(term: Term) -> Optional[tuple[str, str]]:
    """(expected, found) when a fluent pattern misuses the reserved know, else None.

    know takes exactly one argument, and that argument is never know itself,
    with or without arguments.
    """
    knowledge, name, _ = fluent_symbol(term)
    if name != KNOW:
        return None
    if knowledge:
        return "a fluent inside know(...)", "nested know"
    if isinstance(term, (Compound, Constant)):
        return "know with exactly one argument", repr(str(term))
    return None


def _fluent_usage(term: Term, tok: _Token,
                  source_name: str) -> tuple[str, int, _Token]:
    """Fluent symbol a pattern commits to: know(T) commits to T's symbol."""
    misuse = know_misuse(term)
    if misuse:
        raise ParseError(tok.line, tok.col, *misuse, source_name)
    _, name, arity = fluent_symbol(term)
    return name, arity, tok


def parse_domain(source: str, source_name: str = "<string>") -> DomainFile:
    """Parse a domain file; raises ParseError / ArityError, never anything else."""
    p = _Parser(source, source_name)
    decls: list[tuple[str, int]] = []
    decl_map: dict[str, int] = {}
    actions: list[ActionSchema] = []
    raw_actions: list[tuple] = []
    action_names: set[str] = set()
    usages: list[tuple[str, int, _Token]] = []

    while p.peek().kind != "eof":
        head = p.expect_ident("'fluent' or 'action'")
        if head.text == "fluent":
            name_tok = p.expect_ident("a fluent name")
            if name_tok.text == KNOW:
                raise ParseError(name_tok.line, name_tok.col,
                                 "a non-reserved fluent name", repr(KNOW), source_name)
            p.expect_punct("/")
            arity_tok = p.peek()
            if arity_tok.kind != "number":
                raise p.fail("an arity number")
            p.advance()
            p.expect_punct(".")
            if name_tok.text in decl_map:
                raise ParseError(name_tok.line, name_tok.col,
                                 "a fresh fluent name", repr(name_tok.text), source_name)
            decl_map[name_tok.text] = int(arity_tok.text)
            decls.append((name_tok.text, int(arity_tok.text)))
        elif head.text == "action":
            name_tok = p.expect_ident("an action name")
            if name_tok.text in action_names:
                raise ParseError(name_tok.line, name_tok.col,
                                 "a unique action name", repr(name_tok.text), source_name)
            action_names.add(name_tok.text)
            p.expect_punct("(")
            params: list[Variable] = []
            if not p.at_punct(")"):
                while True:
                    ptok = p.expect_ident("a variable parameter")
                    if not VAR_RE.match(ptok.text):
                        raise ParseError(ptok.line, ptok.col, "a variable parameter",
                                         repr(ptok.text), source_name)
                    if Variable(ptok.text) in params:
                        raise ParseError(ptok.line, ptok.col, "a fresh parameter name",
                                         repr(ptok.text), source_name)
                    params.append(Variable(ptok.text))
                    if p.at_punct(","):
                        p.advance()
                        continue
                    break
            p.expect_punct(")")
            p.expect_keyword("poss")
            p.expect_punct(":")
            poss: list[Term] = []

            def parse_atom() -> None:
                pattern, pat_tok = p.parse_atom("'holds', 'knows_val' or 'update'")
                usages.append(_fluent_usage(pattern, pat_tok, source_name))
                poss.append(pattern)

            if not p.at_keyword("update"):
                parse_atom()
                while p.at_punct(","):
                    p.advance()
                    parse_atom()
            p.expect_keyword("update")
            p.expect_punct(":")
            p.expect_keyword("add")
            p.expect_punct("[")
            add_items = p.parse_term_list("]")
            p.expect_punct("]")
            p.expect_keyword("remove")
            p.expect_punct("[")
            remove_items = p.parse_term_list("]")
            p.expect_punct("]")
            dot_tok = p.peek()
            p.expect_punct(".")
            for t, tok in add_items + remove_items:
                usages.append(_fluent_usage(t, tok, source_name))
            raw_actions.append((name_tok.text, params, poss,
                                [t for t, _ in add_items],
                                [t for t, _ in remove_items], dot_tok))
        else:
            raise p.fail("'fluent' or 'action'", head)

    # declaredness first: an undeclared fluent is the more fundamental defect
    for name, arity, tok in usages:
        declared = decl_map.get(name)
        if declared is None:
            raise ArityError(tok.line, tok.col,
                             f"a declared fluent (found use of {name}/{arity})",
                             repr(name), source_name)
        if declared != arity:
            raise ArityError(tok.line, tok.col,
                             f"{name}/{declared} per its declaration",
                             f"{name}/{arity}", source_name)
    for name, params, poss, adds, removes, dot_tok in raw_actions:
        try:
            actions.append(make_action_schema(name, params, poss, adds, removes))
        except FluxError as exc:
            raise ParseError(dot_tok.line, dot_tok.col,
                             "remove-list variables bound by params or poss",
                             str(exc), source_name) from None
    return DomainFile(tuple(decls), tuple(actions))


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------


def parse_problem(source: str, source_name: str = "<string>") -> ProblemFile:
    """Parse `init: ... . goal: ... .`; initial fluents must be ground."""
    p = _Parser(source, source_name)
    p.expect_keyword("init")
    p.expect_punct(":")
    init_items = p.parse_term_list(".")
    p.expect_punct(".")
    p.expect_keyword("goal")
    p.expect_punct(":")
    goal_items = p.parse_term_list(".")
    p.expect_punct(".")
    if p.peek().kind != "eof":
        raise p.fail("end of input")
    for t, tok in init_items:
        if not is_ground(t):
            bad = next(variables_in(t))
            raise GroundnessError(tok.line, tok.col, "a ground initial fluent",
                                  f"variable {bad.name}", source_name)
    return ProblemFile(tuple(t for t, _ in init_items), tuple(t for t, _ in goal_items))


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------


def atom_text(pattern: Term) -> str:
    """A poss pattern as written: knows_val(P) for know(P), holds(P) otherwise."""
    if is_knowledge(pattern):
        return f"knows_val({pattern.args[0]})"
    return f"holds({pattern})"


def pretty_print_action(a: ActionSchema) -> str:
    params = ",".join(v.name for v in a.params)
    poss = ", ".join(map(atom_text, a.poss))
    adds = ", ".join(str(t) for t in a.adds)
    removes = ", ".join(str(t) for t in a.removes)
    return (
        f"action {a.name}({params})\n"
        f"  poss: {poss}\n"
        f"  update: add [{adds}] remove [{removes}]."
    )


def pretty_print(d: DomainFile) -> str:
    """Render a domain file so that parse_domain(pretty_print(d)) == d."""
    sections: list[str] = []
    if d.fluent_decls:
        sections.append("\n".join(f"fluent {n}/{k}." for n, k in d.fluent_decls))
    sections.extend(pretty_print_action(a) for a in d.actions)
    if not sections:
        return ""
    return "\n\n".join(sections) + "\n"


def pretty_print_problem(pf: ProblemFile) -> str:
    init = ", ".join(str(t) for t in pf.initial)
    goal = ", ".join(str(t) for t in pf.goal)
    init_part = f"init: {init}." if init else "init: ."
    goal_part = f"goal: {goal}." if goal else "goal: ."
    return f"{init_part}\n{goal_part}\n"


def parse_term_text(text: str, source_name: str = "<string>") -> Term:
    """Parse a single term from a text fragment (used by registry and CLI)."""
    p = _Parser(text, source_name)
    term, _ = p.parse_term()
    if p.peek().kind != "eof":
        raise p.fail("end of term")
    return term


def parse_atom_text(text: str, source_name: str = "<string>") -> Term:
    """Parse one holds(...)/knows_val(...) atom from a text fragment into its pattern."""
    p = _Parser(text, source_name)
    pattern, _ = p.parse_atom("'holds' or 'knows_val'")
    if p.peek().kind != "eof":
        raise p.fail("end of atom")
    return pattern

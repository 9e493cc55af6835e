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
declared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import FluxError, ParseError
from .terms import (
    Compound,
    Constant,
    KNOW,
    Term,
    Variable,
    functor_arity,
    is_ground,
    is_knowledge,
    variables_in,
)

_VAR_RE = re.compile(r"[A-Z][A-Z0-9_]*\Z")

# Deepest compound nesting a term may have. Code downstream (rendering,
# unification, groundness) recurses a few frames per level, so this stays far
# under the interpreter's recursion limit; real fluents nest two or three deep.
MAX_TERM_DEPTH = 64


class ArityError(ParseError):
    """A fluent is used undeclared or with the wrong arity."""


class GroundnessError(ParseError):
    """A variable occurs where only ground terms are allowed."""


HOLDS = "holds"
KNOWS_VAL = "knows_val"


@dataclass(frozen=True)
class Atom:
    """One precondition conjunct: holds(pattern) or knows_val(pattern)."""

    kind: str
    pattern: Term

    def __str__(self) -> str:
        return f"{self.kind}({self.pattern})"


@dataclass(frozen=True)
class ActionSchema:
    """An action's parameters, poss-precondition, and add/remove update lists.

    ``outputs`` are the variables of the add list left unbound by params and
    poss; they receive fresh placeholder values when the action is applied.
    """

    name: str
    params: tuple[Variable, ...]
    poss: tuple[Atom, ...]
    adds: tuple[Term, ...]
    removes: tuple[Term, ...]
    outputs: tuple[Variable, ...]


def make_action_schema(name: str, params: Iterable[Variable], poss: Iterable[Atom],
                       adds: Iterable[Term], removes: Iterable[Term]) -> ActionSchema:
    """Construct a schema, computing outputs and checking the remove-list rule."""
    params = tuple(params)
    poss = tuple(poss)
    adds = tuple(adds)
    removes = tuple(removes)
    bound = set(params)
    for atom in poss:
        bound.update(variables_in(atom.pattern))
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
    source_name: str = field(default="<string>", compare=False)

    def declared(self) -> dict[str, int]:
        return dict(self.fluent_decls)


@dataclass(frozen=True)
class ProblemFile:
    initial: tuple[Term, ...]
    goal: tuple[Term, ...]
    source_name: str = field(default="<string>", compare=False)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | number | punct | eof
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>%[^\n]*)"
    r"|(?P<number>\d+)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<punct>[()\[\],./:])"
)


def _tokenize(source: str, source_name: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(line, pos - line_start + 1, "a token",
                             repr(source[pos]), source_name)
        kind = m.lastgroup or ""
        text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, text, line, pos - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "<end of input>", line, pos - line_start + 1))
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
        if _VAR_RE.match(tok.text):
            return Variable(tok.text), tok
        return Constant(tok.text), tok

    def parse_atom(self, expected: str) -> tuple[Atom, _Token]:
        """Parse holds(pattern) or knows_val(pattern); expected names what
        may come first, for the error when something else does. The pattern
        is a bare fluent: holds queries world fluents and knows_val wraps in
        know itself, so a know(...) pattern could never be satisfied."""
        kind_tok = self.expect_ident(expected)
        if kind_tok.text not in (HOLDS, KNOWS_VAL):
            raise self.fail(expected, kind_tok)
        self.expect_punct("(")
        pattern, pat_tok = self.parse_term()
        self.expect_punct(")")
        if functor_arity(pattern)[0] == KNOW:
            raise self.fail("a bare fluent pattern", pat_tok)
        return Atom(kind_tok.text, pattern), pat_tok

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


def _fluent_usage(term: Term, tok: _Token,
                  source_name: str) -> tuple[str, int, _Token]:
    """Fluent symbol a pattern commits to: know(T) commits to T's symbol."""
    if is_knowledge(term):
        inner = term.args[0]
        if is_knowledge(inner) or (isinstance(inner, Compound) and inner.functor == KNOW):
            raise ParseError(tok.line, tok.col, "a fluent inside know(...)",
                             "nested know", source_name)
        name, arity = functor_arity(inner)
        return name, arity, tok
    if (isinstance(term, Compound) and term.functor == KNOW) or (
            isinstance(term, Constant) and term.name == KNOW):
        raise ParseError(tok.line, tok.col, "know with exactly one argument",
                         repr(str(term)), source_name)
    name, arity = functor_arity(term)
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
                    if not _VAR_RE.match(ptok.text):
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
            poss: list[Atom] = []

            def parse_atom() -> None:
                atom, pat_tok = p.parse_atom("'holds', 'knows_val' or 'update'")
                usages.append(_fluent_usage(atom.pattern, pat_tok, source_name))
                poss.append(atom)

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
    return DomainFile(tuple(decls), tuple(actions), source_name)


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
    return ProblemFile(tuple(t for t, _ in init_items),
                       tuple(t for t, _ in goal_items), source_name)


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------


def pretty_print_action(a: ActionSchema) -> str:
    params = ",".join(v.name for v in a.params)
    poss = ", ".join(str(atom) for atom in a.poss)
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


def parse_atom_text(text: str, source_name: str = "<string>") -> Atom:
    """Parse one holds(...)/knows_val(...) atom from a text fragment."""
    p = _Parser(text, source_name)
    atom, _ = p.parse_atom("'holds' or 'knows_val'")
    if p.peek().kind != "eof":
        raise p.fail("end of atom")
    return atom

"""Service descriptions (profile / process / grounding) and their compilation.

Registry files use one block per service; field order is fixed so pretty
printing is byte-stable:

    service <name>
      textDescription: <free text>
      hasInput: <PARAM> : <Concept>
      hasOutput: <PARAM> : <Concept>
      precondition: <holds(...) | knows_val(...)>
      effectAdd: <fluent pattern>
      effectRemove: <fluent pattern>
      grounding: <stub id>
    end

``#`` starts a comment. A typed parameter (P : Concept) is represented at the
fluent level as Concept(P): inputs compile to know(Concept(P)) preconditions,
the patterns a knows_val(Concept(P)) line parses to, and outputs to know(...)
add-effects whose variables are outputs of the action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from . import dsl
from .errors import FluxError, ParseError, numbered_lines
from .ontology import Concept, MatchDegree, TaxonomyGraph, UnknownConceptError, match_degree
from .terms import Compound, Constant, Term, Variable, know, leaf_args


class DuplicateServiceError(FluxError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate service name: {name}")


@dataclass(frozen=True)
class ServiceDescription:
    name: str
    text_description: str
    inputs: tuple[tuple[str, Concept], ...]
    outputs: tuple[tuple[str, Concept], ...]
    extra_preconditions: tuple[Term, ...]
    extra_adds: tuple[Term, ...]
    extra_removes: tuple[Term, ...]
    grounding_stub_id: str


@dataclass(frozen=True)
class Registry:
    services: Mapping[str, ServiceDescription]

    def get(self, name: str) -> ServiceDescription:
        return self.services[name]

    def sorted_services(self) -> list[ServiceDescription]:
        return [self.services[n] for n in sorted(self.services)]

    @cached_property
    def actions(self) -> tuple[dsl.ActionSchema, ...]:
        """Every service compiled once, by name; one that does not compile raises."""
        return tuple(map(compile_service_to_action, self.sorted_services()))

    @cached_property
    def input_concepts(self) -> frozenset[Concept]:
        """The concepts some service takes as input."""
        return frozenset(c for svc in self.services.values() for _, c in svc.inputs)

    @cached_property
    def action_constants(self) -> Optional[frozenset[str]]:
        """The names of the constants the compiled actions' poss, adds and removes hold.

        None when an argument of some pattern is a compound, or a pattern is a
        bare variable (see `terms.leaf_args`); `composer.compose` then plans
        every request afresh.
        """
        names = set()
        for schema in self.actions:
            for pattern in (*schema.poss, *schema.adds, *schema.removes):
                args = leaf_args(pattern)
                if args is None:
                    return None
                names.update(a.name for a in args if isinstance(a, Constant))
        return frozenset(names)

    @cached_property
    def action_constant_order(self) -> Optional[tuple[str, ...]]:
        """`action_constants` in text order, sorted once for `composer.compose`'s memo key."""
        named = self.action_constants
        return None if named is None else tuple(sorted(named))

    def __len__(self) -> int:
        return len(self.services)


def load_registry(source: str, g: TaxonomyGraph,
                  source_name: str = "<string>") -> Registry:
    """Parse a registry file, validating every concept against the taxonomy."""
    services: dict[str, ServiceDescription] = {}
    block: dict | None = None

    def fail(lineno: int, expected: str, found: str) -> ParseError:
        return ParseError(lineno, 1, expected, found, source_name)

    def parse_typed_param(lineno: int, rest: str) -> tuple[str, Concept]:
        parts = [p.strip() for p in rest.split(":")]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise fail(lineno, "<PARAM> : <Concept>", repr(rest))
        param, concept = parts
        if not dsl.VAR_RE.match(param):
            raise fail(lineno, "an all-caps parameter name", repr(param))
        if not g.declares(concept):
            raise UnknownConceptError(concept)
        if any(param == p for p, _ in block["inputs"] + block["outputs"]):
            raise fail(lineno, "a fresh parameter name", repr(param))
        return param, concept

    def parse_fragment(parse, lineno: int, line: str, rest: str) -> Term:
        # an error's column counts from the source line's start: its indent,
        # then the stripped line up to rest, which ends it
        try:
            return parse(rest, source_name)
        except ParseError as exc:
            raw = source.split("\n")[lineno - 1]
            start = len(raw) - len(raw.lstrip()) + len(line) - len(rest)
            raise ParseError(lineno, start + exc.column, exc.expected, exc.found,
                             source_name) from None

    def finish(lineno: int) -> None:
        if block["grounding"] is None:
            raise fail(lineno, "a grounding field before 'end'", "'end'")
        svc = ServiceDescription(
            name=block["name"],
            text_description=block["description"],
            inputs=tuple(block["inputs"]),
            outputs=tuple(block["outputs"]),
            extra_preconditions=tuple(block["pre"]),
            extra_adds=tuple(block["adds"]),
            extra_removes=tuple(block["removes"]),
            grounding_stub_id=block["grounding"],
        )
        if svc.name in services:
            raise DuplicateServiceError(svc.name)
        services[svc.name] = svc

    lines, end = numbered_lines(source, True)
    for lineno, line in lines:
        if block is None:
            words = line.split()
            if len(words) != 2 or words[0] != "service":
                raise fail(lineno, "'service <name>'", repr(line))
            block = {"name": words[1], "description": "", "inputs": [],
                     "outputs": [], "pre": [], "adds": [], "removes": [],
                     "grounding": None}
            continue
        if line == "end":
            finish(lineno)
            block = None
            continue
        field, _, rest = line.partition(":")
        field = field.strip()
        rest = rest.strip()
        if field == "textDescription":
            block["description"] = rest
        elif field == "hasInput":
            block["inputs"].append(parse_typed_param(lineno, rest))
        elif field == "hasOutput":
            block["outputs"].append(parse_typed_param(lineno, rest))
        elif field == "precondition":
            block["pre"].append(parse_fragment(dsl.parse_atom_text, lineno, line, rest))
        elif field in ("effectAdd", "effectRemove"):
            block["adds" if field == "effectAdd" else "removes"].append(
                parse_fragment(_parse_effect, lineno, line, rest))
        elif field == "grounding":
            if not rest:
                raise fail(lineno, "a grounding stub id", repr(line))
            block["grounding"] = rest
        else:
            raise fail(lineno, "a service field or 'end'", repr(line))
    if block is not None:
        raise fail(end, "'end'", "<end of input>")
    return Registry(services)


def _parse_effect(text: str, source_name: str) -> Term:
    """One effect pattern, refused at its start if it misuses know, as in a domain file."""
    term = dsl.parse_term_text(text, source_name)
    misuse = dsl.know_misuse(term)
    if misuse:
        raise ParseError(1, 1, *misuse, source_name)
    return term


def compile_service_to_action(svc: ServiceDescription) -> dsl.ActionSchema:
    """Compile a service description into a fluent-calculus action schema.

    Inputs (p, C) become know(C(p)) preconditions; outputs (q, D) become
    know(D(q)) add-effects; extra preconditions and effects are appended
    verbatim. The schema follows the domain-file rule of make_action_schema:
    remove-list variables must be bound, and the add-list variables left
    unbound, which become the outputs, must be exactly the declared ones.
    """
    poss = tuple(
        know(Compound(concept, (Variable(p),))) for p, concept in svc.inputs
    ) + svc.extra_preconditions
    adds = tuple(
        know(Compound(concept, (Variable(q),))) for q, concept in svc.outputs
    ) + svc.extra_adds
    schema = dsl.make_action_schema(svc.name, (Variable(p) for p, _ in svc.inputs),
                                    poss, adds, svc.extra_removes)
    declared = tuple(Variable(q) for q, _ in svc.outputs)
    if schema.outputs != declared:
        raise FluxError(
            f"service {svc.name}: effect variables left unbound "
            f"({', '.join(v.name for v in schema.outputs)}) must equal the "
            f"hasOutput variables ({', '.join(v.name for v in declared)})"
        )
    return schema


def find_candidates(reg: Registry, requested_outputs: list[Concept],
                    g: TaxonomyGraph) -> list[tuple[ServiceDescription, MatchDegree]]:
    """Services whose outputs cover every requested concept, best match first.

    A service covers a request at the worst-case degree over the requested
    concepts; anything below Subsumes excludes it. Ties break by name.
    """
    for concept in requested_outputs:
        if not g.declares(concept):
            raise UnknownConceptError(concept)
    ranked: list[tuple[ServiceDescription, MatchDegree]] = []
    for svc in reg.sorted_services():
        worst = MatchDegree.EXACT
        for requested in requested_outputs:
            best = MatchDegree.FAIL
            for _, advertised in svc.outputs:
                best = max(best, match_degree(advertised, requested, g))
            worst = min(worst, best)
        if worst > MatchDegree.FAIL:
            ranked.append((svc, worst))
    ranked.sort(key=lambda pair: (-pair[1], pair[0].name))
    return ranked


def pretty_print_registry(reg: Registry) -> str:
    """Render a registry with fixed field order; output is byte-stable."""
    blocks: list[str] = []
    for svc in reg.sorted_services():
        lines = [f"service {svc.name}"]
        if svc.text_description:
            lines.append(f"  textDescription: {svc.text_description}")
        lines.extend(f"  hasInput: {p} : {c}" for p, c in svc.inputs)
        lines.extend(f"  hasOutput: {p} : {c}" for p, c in svc.outputs)
        lines.extend(f"  precondition: {dsl.atom_text(p)}" for p in svc.extra_preconditions)
        lines.extend(f"  effectAdd: {t}" for t in svc.extra_adds)
        lines.extend(f"  effectRemove: {t}" for t in svc.extra_removes)
        lines.append(f"  grounding: {svc.grounding_stub_id}")
        lines.append("end")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")

"""Concept taxonomy with subsumption, match ranking, and severity rules.

Taxonomies are subClassOf DAGs loaded from a line format:

    root <Name>
    concept <Child> subClassOf <Parent>
    individual <name> type <Concept>

``#`` starts a comment. Severity rules use one line per rule:

    rule <Specialization> {sym,sym} -> <Severity> @<priority>

Graphs are immutable after load and safe to share read-only across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from typing import Iterable, Mapping, Optional

from .errors import FluxError, ParseError, numbered_lines

Concept = str

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")


class UnknownConceptError(FluxError):
    def __init__(self, concept: str):
        self.concept = concept
        super().__init__(f"unknown concept: {concept}")


class CycleError(FluxError):
    """The subClassOf relation is cyclic; carries the offending cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("subClassOf cycle: " + " -> ".join(cycle + [cycle[0]]))


class UndeclaredConceptError(ParseError):
    """An individual is typed with a concept the taxonomy does not declare."""


class MatchDegree(IntEnum):
    """Semantic match ranking, totally ordered Exact > Plugin > Subsumes > Fail."""

    FAIL = 0
    SUBSUMES = 1
    PLUGIN = 2
    EXACT = 3

    def __str__(self) -> str:
        return self.name.capitalize()


class Severity(Enum):
    MINOR = "Minor"
    MAJOR = "Major"
    EMERGENCY = "Emergency"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TaxonomyGraph:
    concepts: frozenset
    parents: Mapping[str, frozenset]
    individuals: Mapping[str, str] = field(default_factory=dict)

    def declares(self, concept: Concept) -> bool:
        return concept in self.concepts

    def direct_parents(self, concept: Concept) -> frozenset:
        return self.parents.get(concept, frozenset())

    def ancestors(self, concept: Concept) -> set:
        """Reflexive-transitive closure of subClassOf from concept upward."""
        if concept not in self.concepts:
            raise UnknownConceptError(concept)
        seen = {concept}
        frontier = [concept]
        while frontier:
            c = frontier.pop()
            for parent in self.parents.get(c, frozenset()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return seen

    def with_individual(self, name: str, concept: Concept) -> "TaxonomyGraph":
        if concept not in self.concepts:
            raise UnknownConceptError(concept)
        updated = dict(self.individuals)
        updated[name] = concept
        return replace(self, individuals=updated)


def load_taxonomy(source: str, source_name: str = "<string>") -> TaxonomyGraph:
    """Parse and validate a taxonomy; rejects cycles and undeclared references."""
    concepts: set[str] = set()
    edges: set[tuple[str, str]] = set()
    individuals: dict[str, str] = {}

    def name_token(token: str, lineno: int) -> str:
        if not _NAME_RE.match(token):
            raise ParseError(lineno, 1, "a concept name", repr(token), source_name)
        return token

    for lineno, line in numbered_lines(source, True)[0]:
        words = line.split()
        if words[0] == "root" and len(words) == 2:
            concepts.add(name_token(words[1], lineno))
        elif words[0] == "concept" and len(words) == 4 and words[2] == "subClassOf":
            child = name_token(words[1], lineno)
            parent = name_token(words[3], lineno)
            concepts.add(child)
            concepts.add(parent)
            edges.add((child, parent))
        elif words[0] == "individual" and len(words) == 4 and words[2] == "type":
            ind = name_token(words[1], lineno)
            concept = name_token(words[3], lineno)
            if concept not in concepts:
                raise UndeclaredConceptError(
                    lineno, 1, "a declared concept", repr(concept), source_name)
            individuals[ind] = concept
        else:
            raise ParseError(lineno, 1, "'root', 'concept' or 'individual' declaration",
                             repr(line), source_name)

    parents: dict[str, set[str]] = {}
    for child, parent in edges:
        parents.setdefault(child, set()).add(parent)
    _check_acyclic(concepts, parents)
    return TaxonomyGraph(
        frozenset(concepts),
        {c: frozenset(ps) for c, ps in parents.items()},
        individuals,
    )


def _check_acyclic(concepts: Iterable[str], parents: Mapping[str, set]) -> None:
    """Raise CycleError on the first cycle of a depth-first walk up subClassOf in
    sorted order; the walk keeps its own stack, so a chain of any depth is checked."""
    done: set[str] = set()
    path: list[str] = []
    on_path: set[str] = set()
    pending = [iter(sorted(concepts))]
    while pending:
        for node in pending[-1]:
            if node in on_path:
                raise CycleError(path[path.index(node):])
            if node not in done:
                path.append(node)
                on_path.add(node)
                pending.append(iter(sorted(parents.get(node, ()))))
                break
        else:
            pending.pop()
            if path:
                on_path.remove(path[-1])
                done.add(path.pop())


def is_subsumed_by(child: Concept, ancestor: Concept, g: TaxonomyGraph) -> bool:
    """True iff ancestor is reachable from child via subClassOf edges, or equal."""
    if ancestor not in g.concepts:
        raise UnknownConceptError(ancestor)
    return ancestor in g.ancestors(child)


def match_degree(advertised: Concept, requested: Concept, g: TaxonomyGraph) -> MatchDegree:
    """Rank how an advertised concept satisfies a requested one.

    Exact on equality; Plugin when the advertised concept is more specific
    than asked (still satisfies); Subsumes when it is strictly weaker.
    """
    if advertised not in g.concepts:
        raise UnknownConceptError(advertised)
    if requested not in g.concepts:
        raise UnknownConceptError(requested)
    if advertised == requested:
        return MatchDegree.EXACT
    if is_subsumed_by(advertised, requested, g):
        return MatchDegree.PLUGIN
    if is_subsumed_by(requested, advertised, g):
        return MatchDegree.SUBSUMES
    return MatchDegree.FAIL


# ---------------------------------------------------------------------------
# Severity classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeverityRule:
    specialization: Concept
    required_symptoms: frozenset
    severity: Severity
    priority: int


def classify_severity(specialization: Optional[Concept], symptoms: Iterable[str],
                      rules: Iterable[SeverityRule]) -> Severity:
    """Severity of the highest-priority matching rule; Emergency when none match.

    A rule matches when its specialization equals the event's and all of its
    required symptoms are present. The Emergency default is fail-safe: an
    unrecognized symptom picture is never downgraded.
    """
    present = set(symptoms)
    best: Optional[SeverityRule] = None
    for rule in rules:
        if rule.specialization != specialization:
            continue
        if not rule.required_symptoms <= present:
            continue
        if best is None or rule.priority > best.priority:
            best = rule
    return best.severity if best is not None else Severity.EMERGENCY


_RULE_RE = re.compile(
    r"rule\s+(?P<spec>[A-Za-z][A-Za-z0-9_-]*)\s*"
    r"\{(?P<syms>[^}]*)\}\s*->\s*"
    r"(?P<sev>Minor|Major|Emergency)\s*@(?P<prio>\d+)\Z"
)


def load_severity_rules(source: str, source_name: str = "<string>") -> tuple[SeverityRule, ...]:
    """Parse severity rules, sorted by priority descending."""
    rules: list[SeverityRule] = []
    seen: set[tuple[str, int]] = set()
    for lineno, line in numbered_lines(source, True)[0]:
        m = _RULE_RE.match(line)
        if m is None:
            raise ParseError(lineno, 1, "rule <Spec> {syms} -> <Severity> @<priority>",
                             repr(line), source_name)
        priority = int(m.group("prio"))
        key = (m.group("spec"), priority)
        if key in seen:
            raise ParseError(lineno, 1, "a unique priority per specialization",
                             repr(line), source_name)
        seen.add(key)
        symptoms = frozenset(
            s.strip() for s in m.group("syms").split(",") if s.strip()
        )
        rules.append(SeverityRule(m.group("spec"), symptoms,
                                  Severity(m.group("sev")), priority))
    rules.sort(key=lambda r: (-r.priority, r.specialization))
    return tuple(rules)

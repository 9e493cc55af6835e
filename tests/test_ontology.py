"""Taxonomy subsumption, match ranking, and severity classification."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fluxcompose.errors import ParseError
from fluxcompose.ontology import (
    CycleError,
    MatchDegree,
    Severity,
    SeverityRule,
    UndeclaredConceptError,
    UnknownConceptError,
    classify_severity,
    is_subsumed_by,
    load_severity_rules,
    load_taxonomy,
    match_degree,
)


def test_load_taxonomy_two_edges():
    g = load_taxonomy("concept Medical subClassOf EventType\n"
                      "concept Orthopedics subClassOf Medical\n")
    assert g.concepts == {"Medical", "EventType", "Orthopedics"}
    assert g.direct_parents("Orthopedics") == {"Medical"}
    assert g.direct_parents("Medical") == {"EventType"}


def test_load_taxonomy_empty():
    g = load_taxonomy("")
    assert g.concepts == frozenset()


def test_load_taxonomy_two_cycle():
    with pytest.raises(CycleError) as exc:
        load_taxonomy("concept A subClassOf B\nconcept B subClassOf A\n")
    assert set(exc.value.cycle) == {"A", "B"}


def test_load_taxonomy_self_cycle():
    with pytest.raises(CycleError):
        load_taxonomy("concept A subClassOf A\n")


def chain_taxonomy(n: int, cyclic: bool) -> str:
    """n concepts C00000, C00001, ..., each a subclass of the next, so the names
    sort child first; with cyclic, the last is a subclass of the first too."""
    names = [f"C{i:05d}" for i in range(n)]
    edges = list(zip(names, names[1:])) + ([(names[-1], names[0])] if cyclic else [])
    return "".join(f"concept {child} subClassOf {parent}\n" for child, parent in edges)


def test_load_taxonomy_5000_deep_chain():
    g = load_taxonomy(chain_taxonomy(5000, cyclic=False))
    assert len(g.concepts) == 5000
    assert g.direct_parents("C04998") == {"C04999"}


def test_load_taxonomy_5000_long_cycle():
    with pytest.raises(CycleError) as exc:
        load_taxonomy(chain_taxonomy(5000, cyclic=True))
    assert exc.value.cycle == [f"C{i:05d}" for i in range(5000)]


def test_load_taxonomy_bad_line_position():
    with pytest.raises(ParseError) as exc:
        load_taxonomy("root Event\nconcept nonsense here\n")
    assert exc.value.line == 2


def test_load_taxonomy_individuals():
    g = load_taxonomy("root Doctor\nindividual ravi type Doctor\n")
    assert g.individuals == {"ravi": "Doctor"}
    with pytest.raises(UndeclaredConceptError):
        load_taxonomy("individual ravi type Doctor\n")


def test_with_individual_is_functional(taxonomy):
    g2 = taxonomy.with_individual("P001", "DeliveryPersonnel")
    assert "P001" in g2.individuals
    assert "P001" not in taxonomy.individuals
    with pytest.raises(UnknownConceptError):
        taxonomy.with_individual("x", "NoSuchConcept")


def test_is_subsumed_by_bundled_taxonomy(taxonomy):
    assert is_subsumed_by("Orthopedics", "Medical", taxonomy)
    assert is_subsumed_by("Medical", "Medical", taxonomy)
    assert not is_subsumed_by("Medical", "Orthopedics", taxonomy)
    assert is_subsumed_by("Orthopedics", "Event", taxonomy)
    with pytest.raises(UnknownConceptError):
        is_subsumed_by("Medical", "NoSuch", taxonomy)


def test_match_degree_bundled_taxonomy(taxonomy):
    assert match_degree("Orthopedics", "Orthopedics", taxonomy) is MatchDegree.EXACT
    assert match_degree("Orthopedics", "Medical", taxonomy) is MatchDegree.PLUGIN
    assert match_degree("Medical", "Orthopedics", taxonomy) is MatchDegree.SUBSUMES
    assert match_degree("Robbery", "Orthopedics", taxonomy) is MatchDegree.FAIL


def test_match_degree_total_order():
    assert MatchDegree.EXACT > MatchDegree.PLUGIN > MatchDegree.SUBSUMES > MatchDegree.FAIL


def test_cloud_taxonomy_loads(cloud_taxonomy):
    assert is_subsumed_by("Compute", "CloudOntology", cloud_taxonomy)
    assert {"Infrastructure", "Platform", "Software"} <= set(cloud_taxonomy.concepts)


# ---------------------------------------------------------------------------
# random-DAG properties against an exhaustive-DFS oracle
# ---------------------------------------------------------------------------

from randgen import random_dag_source  # noqa: E402


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_subsumption_matches_dfs_oracle(seed):
    rng = random.Random(seed)
    source, parents = random_dag_source(rng)
    g = load_taxonomy(source)
    nodes = sorted(g.concepts)
    for a in nodes:
        assert is_subsumed_by(a, a, g)
        assert match_degree(a, a, g) is MatchDegree.EXACT
    for _ in range(60):
        a, b = rng.choice(nodes), rng.choice(nodes)
        assert is_subsumed_by(a, b, g) == oracles.reachable(parents, a, b)


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_subsumption_is_transitive(seed):
    rng = random.Random(seed)
    source, _ = random_dag_source(rng, max_nodes=15)
    g = load_taxonomy(source)
    nodes = sorted(g.concepts)
    for _ in range(40):
        a, b, c = (rng.choice(nodes) for _ in range(3))
        if is_subsumed_by(a, b, g) and is_subsumed_by(b, c, g):
            assert is_subsumed_by(a, c, g)


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_match_degree_fail_is_symmetric(seed):
    rng = random.Random(seed)
    source, _ = random_dag_source(rng, max_nodes=15)
    g = load_taxonomy(source)
    nodes = sorted(g.concepts)
    for _ in range(40):
        a, b = rng.choice(nodes), rng.choice(nodes)
        if match_degree(a, b, g) is MatchDegree.FAIL:
            assert match_degree(b, a, g) is MatchDegree.FAIL


# ---------------------------------------------------------------------------
# severity
# ---------------------------------------------------------------------------


def test_orthopedics_severity_cases(severity_rules):
    assert classify_severity("Orthopedics", {"pain"}, severity_rules) is Severity.MINOR
    assert classify_severity("Orthopedics", {"pain", "swelling"},
                             severity_rules) is Severity.MAJOR
    assert classify_severity("Orthopedics", {"fracture"},
                             severity_rules) is Severity.EMERGENCY


def test_unmatched_symptoms_default_to_emergency(severity_rules):
    assert classify_severity("Orthopedics", {"dizziness"},
                             severity_rules) is Severity.EMERGENCY
    assert classify_severity("Cardiology", {"pain"}, severity_rules) is Severity.EMERGENCY
    assert classify_severity(None, set(), severity_rules) is Severity.EMERGENCY


@given(st.sets(st.sampled_from(["pain", "swelling", "nausea", "bruise"]), max_size=4))
def test_adding_fracture_always_yields_emergency(severity_rules, symptoms):
    got = classify_severity("Orthopedics", symptoms | {"fracture"}, severity_rules)
    assert got is Severity.EMERGENCY


def test_highest_priority_rule_wins_regardless_of_input_order():
    rules = (
        SeverityRule("Orthopedics", frozenset({"pain"}), Severity.MINOR, 1),
        SeverityRule("Orthopedics", frozenset({"pain", "swelling"}), Severity.MAJOR, 2),
    )
    assert classify_severity("Orthopedics", {"pain", "swelling"}, rules) is Severity.MAJOR


def test_load_severity_rules_bundled(severity_rules):
    assert [r.priority for r in severity_rules] == [3, 2, 1]
    assert severity_rules[0].required_symptoms == {"fracture"}


def test_load_severity_rules_rejects_duplicates_and_junk():
    with pytest.raises(ParseError):
        load_severity_rules("rule A {x} -> Minor @1\nrule A {y} -> Major @1\n")
    with pytest.raises(ParseError):
        load_severity_rules("rule A x -> Minor @1\n")
    with pytest.raises(ParseError):
        load_severity_rules("rule A {x} -> Fatal @1\n")

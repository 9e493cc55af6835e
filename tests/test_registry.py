"""Registry loading, service-to-action compilation, and candidate ranking."""

import pytest

from fluxcompose import registry
from fluxcompose.errors import FluxError, ParseError
from fluxcompose.ontology import MatchDegree, UnknownConceptError
from fluxcompose.registry import (
    DuplicateServiceError,
    compile_service_to_action,
    find_candidates,
    load_registry,
    pretty_print_registry,
)
from fluxcompose.terms import Compound, Variable


def test_bundled_registry_loads(service_registry):
    assert len(service_registry) == 2
    find_resource = service_registry.get("findResource")
    assert find_resource.inputs == (("PR", "Profession"), ("SP", "Specialization"))
    assert find_resource.outputs == (("P", "Name"), ("CN", "Coach"))
    assert find_resource.grounding_stub_id == "roster-lookup"


def test_empty_registry(taxonomy):
    assert len(load_registry("", taxonomy)) == 0


def test_duplicate_service_rejected(taxonomy):
    src = ("service s\n  grounding: x\nend\n"
           "service s\n  grounding: x\nend\n")
    with pytest.raises(DuplicateServiceError):
        load_registry(src, taxonomy)


def test_unknown_concept_rejected(taxonomy):
    src = "service s\n  hasInput: X : Nonexistent\n  grounding: x\nend\n"
    with pytest.raises(UnknownConceptError):
        load_registry(src, taxonomy)


def test_duplicate_param_rejected(taxonomy):
    src = ("service s\n  hasInput: X : Profession\n  hasInput: X : Name\n"
           "  grounding: x\nend\n")
    with pytest.raises(ParseError):
        load_registry(src, taxonomy)


def test_missing_grounding_rejected(taxonomy):
    with pytest.raises(ParseError):
        load_registry("service s\nend\n", taxonomy)


def test_bad_fragment_reports_registry_line(taxonomy):
    src = "service s\n  precondition: holds(f(\n  grounding: x\nend\n"
    with pytest.raises(ParseError) as exc:
        load_registry(src, taxonomy)
    assert exc.value.line == 2


def test_too_deep_precondition_is_a_parse_error(taxonomy):
    deep = "f(" * 3000 + "a" + ")" * 3000
    src = f"service s\n  precondition: holds({deep})\n  grounding: x\nend\n"
    with pytest.raises(ParseError) as exc:
        load_registry(src, taxonomy, "deep.reg")
    assert exc.value.line == 2
    assert str(exc.value).startswith("deep.reg:2:")


def test_know_precondition_pattern_rejected_as_in_domains(taxonomy):
    # knows_val wraps its pattern in know itself and holds reads world
    # fluents, so a know(...) pattern could never fire
    for kind in ("holds", "knows_val"):
        src = f"service s\n  precondition: {kind}(know(Message(M)))\n  grounding: x\nend\n"
        with pytest.raises(ParseError) as exc:
            load_registry(src, taxonomy, "s.reg")
        assert exc.value.line == 2
        assert str(exc.value).endswith("expected a bare fluent pattern, found 'know'")


def test_compiled_find_resource_matches_axiom_shape(service_registry):
    schema = compile_service_to_action(service_registry.get("findResource"))
    assert schema.name == "findResource"
    assert schema.params == (Variable("PR"), Variable("SP"))
    assert [a.kind for a in schema.poss] == ["knows_val", "knows_val", "holds"]
    assert schema.poss[0].pattern == Compound("Profession", (Variable("PR"),))
    assert schema.poss[2].pattern == Compound(
        "availableRole", (Variable("PR"), Variable("SP")))
    assert schema.outputs == (Variable("P"), Variable("CN"))
    know_adds = [t for t in schema.adds if t.functor == "know"]
    assert know_adds[0].args[0] == Compound("Name", (Variable("P"),))
    assert schema.removes == ()


def test_compiled_notify_resource_matches_axiom_shape(service_registry):
    schema = compile_service_to_action(service_registry.get("notifyResource"))
    assert schema.params == (Variable("P"), Variable("CN"), Variable("MSG"))
    assert [a.kind for a in schema.poss] == ["knows_val"] * 3 + ["holds"]
    assert Compound("SendMsg",
                    (Variable("P"), Variable("CN"), Variable("MSG"))) in schema.adds
    assert schema.outputs == (Variable("ACK"),)


def test_service_with_no_params_compiles_empty(taxonomy):
    reg = load_registry("service noop\n  grounding: x\nend\n", taxonomy)
    schema = compile_service_to_action(reg.get("noop"))
    assert schema.params == () and schema.poss == ()
    assert schema.adds == () and schema.removes == () and schema.outputs == ()


def test_compiled_outputs_equal_declared_outputs(service_registry):
    for svc in service_registry.sorted_services():
        schema = compile_service_to_action(svc)
        assert tuple(v.name for v in schema.outputs) == tuple(p for p, _ in svc.outputs)


@pytest.mark.parametrize("fields, reason", [
    # an effect variable bound by nothing becomes an undeclared output
    ("  hasOutput: P : Name\n  effectAdd: availableAt(P,CN)\n",
     "effect variables left unbound (P, CN) must equal the hasOutput variables (P)"),
    # a remove-effect variable that is a declared output
    ("  hasOutput: P : Name\n  effectRemove: availableAt(P)\n",
     "variable P in remove list is unbound"),
    # a precondition that names a declared output would bind it before the
    # placeholder does, so the output is no longer produced by the service
    ("  hasInput: PR : Profession\n  hasOutput: P : Name\n"
     "  precondition: holds(availableAt(P))\n",
     "effect variables left unbound () must equal the hasOutput variables (P)"),
], ids=["unbound-effect", "removed-output", "precondition-names-output"])
def test_compile_rejects_misbound_variables(taxonomy, fields, reason):
    reg = load_registry(f"service badService\n{fields}  grounding: x\nend\n", taxonomy)
    with pytest.raises(FluxError) as exc:
        compile_service_to_action(reg.get("badService"))
    assert "badService" in str(exc.value)
    assert reason in str(exc.value)


def test_compilation_is_injective_on_bundled_corpus(service_registry):
    schemas = [compile_service_to_action(s) for s in service_registry.sorted_services()]
    assert len(set(map(str, schemas))) == len(schemas)


def test_find_candidates_name_and_coach(service_registry, taxonomy):
    got = find_candidates(service_registry, ["Name", "Coach"], taxonomy)
    assert [(s.name, d) for s, d in got] == [("findResource", MatchDegree.EXACT)]


def test_find_candidates_empty_request_returns_all(service_registry, taxonomy):
    got = find_candidates(service_registry, [], taxonomy)
    assert [(s.name, d) for s, d in got] == [
        ("findResource", MatchDegree.EXACT), ("notifyResource", MatchDegree.EXACT)]


def test_find_candidates_confirm_send(service_registry, taxonomy):
    got = find_candidates(service_registry, ["ConfirmSend"], taxonomy)
    assert [(s.name, d) for s, d in got] == [("notifyResource", MatchDegree.EXACT)]


def test_find_candidates_ranking_uses_taxonomy():
    from fluxcompose.ontology import load_taxonomy
    g = load_taxonomy("root Medical\nconcept Orthopedics subClassOf Medical\n")
    src = ("service generalist\n  hasOutput: X : Medical\n  grounding: a\nend\n"
           "service specialist\n  hasOutput: X : Orthopedics\n  grounding: b\nend\n")
    reg = load_registry(src, g)
    got = find_candidates(reg, ["Medical"], g)
    assert [(s.name, d) for s, d in got] == [
        ("generalist", MatchDegree.EXACT), ("specialist", MatchDegree.PLUGIN)]
    got = find_candidates(reg, ["Orthopedics"], g)
    assert [(s.name, d) for s, d in got] == [
        ("specialist", MatchDegree.EXACT), ("generalist", MatchDegree.SUBSUMES)]


def test_find_candidates_deterministic(service_registry, taxonomy):
    a = find_candidates(service_registry, ["Name"], taxonomy)
    b = find_candidates(service_registry, ["Name"], taxonomy)
    assert [(s.name, d) for s, d in a] == [(s.name, d) for s, d in b]


def test_registry_pretty_print_round_trips(service_registry, taxonomy):
    printed = pretty_print_registry(service_registry)
    reparsed = registry.load_registry(printed, taxonomy)
    assert pretty_print_registry(reparsed) == printed
    assert {s.name for s in reparsed.sorted_services()} == {"findResource",
                                                            "notifyResource"}

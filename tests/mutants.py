"""Mutation gate: every mutant in MUTANTS must make each of its named tests fail.

Run from the root of a checkout:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

pytest does not collect this file. A mutant names a file of the checkout, an
exact old text that must occur there once, the new text, and the pytest node
ids that must fail with it (a parametrized test's id may leave out its
parameters). The tool copies src/, tests/ and pyproject.toml into a temporary
directory. There it first runs every named test on the unchanged copy, which
must pass; then, one mutant at a time, it applies the mutant, runs its tests,
and puts the file back. Tests run under a fixed hash seed and a fixed
hypothesis seed, so a run repeats. It exits 1 when a mutant survives (one of
its tests passes), when an old text does not occur exactly once, when a
mutant breaks the run itself rather than a test, or when the unchanged copy
fails.

A pruning rule, key or matcher change ships with its mutants here; weakening
or deleting one is a change to the checks. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TERMS = "src/fluxcompose/terms.py"
PLANNER = "src/fluxcompose/planner.py"
DSL = "src/fluxcompose/dsl.py"
CLI = "src/fluxcompose/cli.py"
ERRORS = "src/fluxcompose/errors.py"
ONTOLOGY = "src/fluxcompose/ontology.py"
SCENARIO = "src/fluxcompose/scenario.py"
COMPOSER = "src/fluxcompose/composer.py"
REGISTRY = "src/fluxcompose/registry.py"
T_TERMS = "tests/test_terms.py::"
T_PLANNER = "tests/test_planner.py::"
T_DSL = "tests/test_dsl.py::"
T_CLI = "tests/test_cli.py::"
T_LINES = "tests/test_line_formats.py::"
T_ONTOLOGY = "tests/test_ontology.py::"
T_SCENARIO = "tests/test_scenario.py::"
T_COMPOSER = "tests/test_composer.py::"
T_REGISTRY = "tests/test_registry.py::"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # the one query, terms.holds
    Mutant("core: a bound variable is not checked, the fluent's value wins", TERMS,
           """            new = dict(bound)
        if _match(pattern, f.args[0] if knowledge else f, new):
            out.append(new)
            new = None
        elif len(new) != len(bound):""",
           """            new = {}
        if _match(pattern, f.args[0] if knowledge else f, new):
            out.append({**bound, **new})
            new = None
        elif new:""",
           (T_TERMS + "test_extensions_check_a_bound_variable",)),
    Mutant("core: by_first keyed on the unresolved argument", TERMS,
           "return group.by_first(first)", "return group.by_first(pattern.args[0])",
           (T_TERMS + "test_extensions_resolve_a_bound_first_argument_through_the_map",)),
    Mutant("core: a bound first argument is not looked up, the group is scanned", TERMS,
           "first = bound.get(first, first)", "pass",
           (T_TERMS + "test_extensions_resolve_a_bound_first_argument_through_the_map",)),
    Mutant("core: no repeated-variable check", TERMS,
           "return bound is fluent or bound == fluent", "return True",
           (T_TERMS + "test_extensions_check_a_repeated_variable",
            T_TERMS + "test_match_repeated_variable_needs_equal_arguments")),
    Mutant("core: the leaf == dropped", TERMS,
           "    return pattern == fluent\n", "    return True\n",
           (T_TERMS + "test_extensions_tell_apart_leaves_that_share_a_group_key",
            T_TERMS + "test_match_placeholder_is_not_the_constant_named_by_its_id",
            T_TERMS + "test_match_constant_is_not_the_nullary_compound")),
    # canonical order
    Mutant("order key: text only", TERMS,
           "return (tuple(map(str, terms)), _Tie(terms))", "return (tuple(map(str, terms)), ())",
           (T_TERMS + "test_terms_that_render_alike_get_different_order_keys",)),
    Mutant("index: groups sorted by text", TERMS,
           "for t in sorted((*members, *new), key=order_key):",
           "for t in sorted((*members, *new), key=str):",
           (T_PLANNER + "test_plans_do_not_follow_the_hash_seed_where_texts_tie",)),
    # the search's four rules and its visited set
    Mutant("search: renames forced False", PLANNER,
           """    renames = (any(a.mints_placeholders for a in actions)
               or any(map(has_placeholder, initial.fluents)))""",
           "    renames = False",
           (T_PLANNER + "test_placeholders_of_the_initial_state_keep_the_renaming_key",
            T_PLANNER + "test_outputs_and_placeholder_adds_keep_the_renaming_key")),
    Mutant("search: the visited-set cut removed", PLANNER,
           """            if key in seen:
                continue
""", "",
           (T_PLANNER + "test_unreachable_walks_stop_before_max_depth",)),
    Mutant("search: monotone skip left on with remove lists", PLANNER,
           "monotone = not any(a.removes for a in actions)", "monotone = True",
           (T_PLANNER + "test_plan_agrees_with_oracle_on_registry_family",)),
    Mutant("search: monotone skip never taken", PLANNER,
           "monotone = not any(a.removes for a in actions)", "monotone = False",
           (T_PLANNER + "test_plan_agrees_with_oracle_on_registry_family",)),
    Mutant("search: a key that drops placeholder fluents", PLANNER,
           "return State(state.fluents.difference(marked).union(map(rename, marked)))",
           "return State(state.fluents.difference(marked))",
           (T_PLANNER + "test_pruning_key_insertion_order_invariant",)),
    Mutant("search: relevance does not chain through poss", PLANNER,
           "needed |= schema.poss_symbols", "pass",
           (T_PLANNER + "test_plan_emergency_two_steps",)),
    Mutant("search: early failure's closure adds nothing", PLANNER,
           "have |= schema.add_symbols", "pass",
           (T_PLANNER + "test_plan_emergency_two_steps",)),
    # static-argument early failure
    Mutant("static failure: only the adds of an action adding a goal symbol count", PLANNER,
           "                added |= schema.add_symbols\n",
           """                if not schema.add_symbols.isdisjoint(map(pattern_symbol, problem.goal)):
                    added |= schema.add_symbols
""",
           (T_PLANNER + "test_static_argument_failure_keeps_every_plan",)),
    Mutant("static failure: a bare-variable add is not heeded", PLANNER,
           "return (), None", "return (), added",
           (T_PLANNER + "test_static_argument_failure_keeps_every_plan",)),
    Mutant("static failure: the initial-fluent check dropped", PLANNER,
           """        if not (_may_add(fluent_symbol(pattern), fixed, problem.actions, added, initial)
                or holds(pattern, initial)):""",
           """        if not _may_add(fluent_symbol(pattern), fixed, problem.actions, added, initial):""",
           (T_PLANNER + "test_static_argument_failure_keeps_every_plan",)),
    Mutant("static failure: a placeholder counts as a fixed argument", PLANNER,
           "if isinstance(a, Constant)\n", "if not isinstance(a, Variable)\n",
           (T_PLANNER + "test_static_argument_failure_keeps_every_plan",)),
    Mutant("static failure: an output may take any value", DSL,
           "return None if arg in self.outputs else columns.get(arg, ())",
           "return columns.get(arg, ())",
           (T_PLANNER + "test_static_argument_failure_decides_before_any_search",)),
    Mutant("static failure: the first column read, not the poss position's", PLANNER,
           "if (f.args[0] if know else f).args[j] == value:",
           "if (f.args[0] if know else f).args[0] == value:",
           (T_PLANNER + "test_static_argument_failure_decides_before_any_search",)),
    Mutant("static failure: a known relation read with its know wrapper", PLANNER,
           "if (f.args[0] if know else f).args[j] == value:", "if f.args[j] == value:",
           (T_PLANNER + "test_static_argument_failure_keeps_every_plan",)),
    # compose's memo of workflows by request shape
    Mutant("memo: the key without the text order of the values", COMPOSER,
           "           tuple((bisect_left(order, t), slots.get(t, t)) for t in sorted(texts)))",
           "           ())",
           (T_COMPOSER + "test_memo_agrees_with_a_fresh_compose_where_the_key_needs_care",)),
    Mutant("memo: the key without the registry", COMPOSER,
           "key = (id(reg), cfg,", "key = (cfg,",
           (T_SCENARIO + "test_a_report_after_the_registry_is_rebound_plans_with_the_new_one",)),
    Mutant("memo: the key without the concept structure", COMPOSER,
           "id(g.concepts), id(g.parents), ", "",
           (T_COMPOSER + "test_one_memo_under_two_taxonomies_composes_as_each_does",)),
    Mutant("memo: the key holds req.have sorted, not in order", COMPOSER,
           "tuple(have)", "tuple(sorted(have))",
           (T_COMPOSER + "test_a_memo_hit_keeps_the_first_of_two_sources_of_equal_degree",)),
    Mutant("memo: a hit's slots not mapped back to the request's values", COMPOSER,
           "RequestSource(s.concept, to_value[s.value], s.degree)",
           "RequestSource(s.concept, s.value, s.degree)",
           (T_COMPOSER + "test_memo_agrees_with_a_fresh_compose_where_the_key_needs_care",
            T_COMPOSER + "test_memo_path_equals_a_fresh_compose",
            T_SCENARIO + "test_a_memo_hit_after_a_registration_wires_as_a_fresh_compose")),
    Mutant("memo: a value an action names is slotted", COMPOSER,
           "if value not in named:", "if True:",
           (T_COMPOSER + "test_memo_agrees_with_a_fresh_compose_where_the_key_needs_care",)),
    Mutant("memo: a value starting with # is slotted", COMPOSER,
           'if value.startswith("#"):', "if False:",
           (T_COMPOSER + "test_memo_agrees_with_a_fresh_compose_where_the_key_needs_care",)),
    Mutant("memo: the text order without the placeholders' sentinel", COMPOSER,
           'texts = {"#", *slots}', "texts = set(slots)",
           (T_COMPOSER + "test_memo_agrees_with_a_fresh_compose_where_the_key_needs_care",)),
    Mutant("memo: a world fact with a compound argument is keyed", COMPOSER,
           """        if args is None:
            return None
        texts""",
           """        if args is None:
            args = (fact.args[0] if fact.functor == "know" else fact).args
        texts""",
           (T_COMPOSER + "test_memo_agrees_with_a_fresh_compose_where_the_key_needs_care",)),
    # the wiring of a step input
    Mutant("wiring: any placeholder is the output of the step its seq names", COMPOSER,
           """        if (0 <= step < len(earlier) and earlier[step].name == arg.action
                and any(param == arg.param for param, _ in reg.get(arg.action).outputs)):""",
           "        if True:",
           (T_COMPOSER + "test_a_world_fact_placeholder_no_earlier_step_made_has_no_source",)),
    Mutant("wiring: the placeholder read from a step source is off by one", COMPOSER,
           "Placeholder(self.services[s.step], s.out_param, s.step + 1)",
           "Placeholder(self.services[s.step], s.out_param, s.step)",
           (T_COMPOSER + "test_compose_emergency_workflow",
            T_COMPOSER + "test_a_workflow_plan_read_from_its_wiring_is_the_plan_found")),
    # the reserved know in the inputs that are not domain files
    Mutant("know: a world fact's misuse let through", COMPOSER,
           "misuse = know_misuse(fact)", "misuse = None",
           (T_COMPOSER + "test_a_world_fact_misusing_know_is_refused",
            T_CLI + "test_fact_misusing_know_exit_2")),
    Mutant("know: a registry effect's misuse let through", REGISTRY,
           "misuse = dsl.know_misuse(term)", "misuse = None",
           (T_REGISTRY + "test_know_misused_in_an_effect_rejected_as_in_domains",
            T_CLI + "test_registry_effect_misusing_know_exit_2")),
    # the tokenizer
    Mutant("tokenizer: no catch-all, a stray character is skipped", DSL,
           '\n    r"|(?P<bad>.)"', "",
           (T_DSL + "test_parse_error_positions_after_stray_characters_and_line_breaks",
            T_DSL + "test_tokenize_agrees_with_the_match_loop_reference")),
    Mutant("tokenizer: a whitespace run counts one line break", DSL,
           "line += newlines", "line += 1",
           (T_DSL + "test_parse_error_positions_after_stray_characters_and_line_breaks",
            T_DSL + "test_tokenize_agrees_with_the_match_loop_reference")),
    # the line reader of the line formats
    Mutant("reader: lines end where str.splitlines breaks", ERRORS,
           'lines = text.split("\\n")', "lines = text.splitlines() + ['']",
           (T_LINES + "test_line_format_message",)),
    Mutant("reader: inline comments kept in the declaration formats", ERRORS,
           'lines = [line.split("#", 1)[0] for line in lines]', "pass",
           (T_LINES + "test_line_format_message",)),
    Mutant("roster: a row holding a carriage return is split on its commas", SCENARIO,
           """if '"' in line or "\\r" in line or len(line) > field_limit:""",
           """if '"' in line or len(line) > field_limit:""",
           (T_LINES + "test_line_format_message",
            T_SCENARIO + "test_load_roster_matches_the_csv_oracle")),
    Mutant("taxonomy: no cycle check", ONTOLOGY,
           "    _check_acyclic(concepts, parents)\n", "",
           (T_ONTOLOGY + "test_load_taxonomy_two_cycle",
            T_ONTOLOGY + "test_load_taxonomy_5000_long_cycle")),
    Mutant("roster: two adjacent cells swapped in the record", SCENARIO,
           """illness or None,
            medication or None,""",
           """medication or None,
            illness or None,""",
           (T_SCENARIO + "test_load_roster_puts_each_cell_in_its_field",
            T_SCENARIO + "test_load_roster_matches_the_csv_oracle")),
    # the roster's update and the report's one record
    Mutant("roster: the ready pool is not updated", SCENARIO,
           "if now_ready != _is_ready(block[j]):", "if False:",
           (T_SCENARIO + "test_roster_index_follows_updates",)),
    Mutant("roster: the block copy keeps the old passenger", SCENARIO,
           "block = block[:j] + (updated,) + block[j + 1:]",
           "block = block[:j] + (updated,) + block[j:]",
           (T_SCENARIO + "test_roster_index_follows_updates",)),
    Mutant("roster: a duplicate coach takes its last position", SCENARIO,
           "coach_positions.setdefault(coach, i)", "coach_positions[coach] = i",
           (T_SCENARIO + "test_duplicate_coaches_in_the_coach_order_take_the_first_position",)),
    # responder ranking
    Mutant("ranking: with no specialization asked, a doctor without one is a specialist",
           SCENARIO,
           "elif specialization is not None and p.specialization == specialization:",
           "elif p.specialization == specialization:",
           (T_SCENARIO + "test_trace_resources_matches_comparator_oracle",)),
    Mutant("report: a record appended twice", SCENARIO,
           "    rid = ctx.log.append(record)\n",
           "    ctx.log.append(record)\n    rid = ctx.log.append(record)\n",
           (T_SCENARIO + "test_report_always_appends_exactly_one_record",)),
    Mutant("report: a responder holding the separator is logged", SCENARIO,
           'if ";" in responder:', "if False:",
           (T_SCENARIO + "test_report_rejects_a_responder_that_would_not_read_back",)),
    # the event log
    Mutant("line: a newline is written unescaped", SCENARIO,
           r'''if "\\" in text or "\t" in text or "\n" in text:''',
           r'''if "\\" in text or "\t" in text:''',
           (T_SCENARIO + "test_record_round_trip_with_escapes",)),
    Mutant("event log: a torn final line is not cut", SCENARIO,
           "    end = os.fstat(fd).st_size\n", "    return\n",
           (T_SCENARIO + "test_event_log_open_agrees_with_the_full_parse",
            T_SCENARIO + "test_event_log_cuts_a_torn_line_longer_than_a_chunk")),
    Mutant("event log: the next id is the largest, not one past it", SCENARIO,
           "default=0) + 1", "default=0)",
           (T_SCENARIO + "test_event_log_ids_continue_after_reopen",)),
    Mutant("message sink: a write error escapes", SCENARIO,
           """            except OSError as exc:
                raise FluxError(f"cannot append to message sink""",
           """            except () as exc:
                raise FluxError(f"cannot append to message sink""",
           (T_CLI + "test_message_sink_that_cannot_be_written_exit_2",)),
    Mutant("message sink: a short write is not continued", SCENARIO,
           "while data:", "if data:",
           (T_SCENARIO + "test_message_sink_finishes_a_short_write",)),
    # the CLI's exit codes
    Mutant("cli: a missing input file is not reported where it is read", CLI,
           """        raise FluxError(f"missing input file: {path}") from None
    except OSError as exc:
        reason = exc.strerror""",
           """        raise
    except OSError as exc:
        reason = exc.strerror""",
           (T_CLI + "test_missing_file_exit_2",)),
    Mutant("cli: NoPlanFound exits 2", CLI,
           """        print(exc, file=sys.stderr)
        return 1""",
           """        print(exc, file=sys.stderr)
        return 2""",
           (T_CLI + "test_report_without_a_plan_in_depth_exits_1_and_logs_nothing",)),
    Mutant("cli: FallbackRequired exits 2", CLI,
           """        print(f"fallback required: {exc}", file=sys.stderr)
        return 1""",
           """        print(f"fallback required: {exc}", file=sys.stderr)
        return 2""",
           (T_CLI + "test_trace_needs_validated_personnel",)),
    Mutant("cli: FluxError exits 1", CLI,
           """        print(str(exc), file=sys.stderr)
        return 2""",
           """        print(str(exc), file=sys.stderr)
        return 1""",
           (T_CLI + "test_missing_file_exit_2",
            T_CLI + "test_unreadable_file_exit_2")),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(tree: Path, tests) -> tuple[int, set[str], str]:
    """pytest's exit code, the node ids that failed, and its output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="3")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")}
    return proc.returncode, failed, proc.stdout + proc.stderr


def _failed(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        code, _, out = _run(tree, sorted({t for m in chosen for t in m.tests}))
        if code != 0:
            print(out + "\nthe named tests fail on the unchanged copy", file=sys.stderr)
            return 1
        for m in chosen:
            path = tree / m.path
            text = path.read_text(encoding="utf-8")
            count = text.count(m.old)
            if count != 1:
                print(f"MISSING\t{m.name}\told text occurs {count} times in {m.path}")
                bad += 1
                continue
            t0 = time.perf_counter()
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                code, failed, out = _run(tree, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            alive = [t for t in m.tests if not _failed(t, failed)]
            if code not in (0, 1):
                verdict = f"ERROR\t{m.name}\tpytest exit code {code}"
            elif alive:
                verdict = f"SURVIVED\t{m.name}\tpassed: {', '.join(alive)}"
            else:
                verdict = f"killed\t{m.name}"
            print(f"{verdict}\t{time.perf_counter() - t0:.1f}s")
            if not verdict.startswith("killed"):
                print(out, file=sys.stderr)
                bad += 1
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - started:.0f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

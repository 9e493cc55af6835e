"""Span tracing around the package's public functions, from outside the package.

``Tracer.install`` wraps each traced function and rebinds the wrapper under
every name that refers to the original in every ``fluxcompose`` module (so
``composer.find_plan`` is traced as ``planner.plan``), and on classes for
methods. ``uninstall`` restores the originals. Spans (name, start, end,
parent) are kept in compact in-memory columns and written out at the end;
self time is a span's duration minus the durations of its child spans.

Generator functions (``holds``, ``knows_val``) record one span per resumption,
so work done by the consumer between two results is not charged to them.
``unify`` recurses through its module-level name; only outermost calls are
recorded.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from fluxcompose import cli, composer, dsl, ontology, planner, registry, scenario, terms

# (span name, owner, attribute, outermost calls only)
TARGETS = [
    ("terms.unify", terms, "unify", True),
    ("terms.holds", terms, "holds", False),
    ("terms.knows_val", terms, "knows_val", False),
    ("terms.with_update", terms.State, "with_update", False),
    ("planner.plan", planner, "plan", False),
    ("planner.check_poss", planner, "check_poss", False),
    ("planner.satisfies_goal", planner, "satisfies_goal", False),
    ("planner.apply_update", planner, "apply_update", False),
    ("dsl.parse_domain", dsl, "parse_domain", False),
    ("dsl.parse_problem", dsl, "parse_problem", False),
    ("ontology.load_taxonomy", ontology, "load_taxonomy", False),
    ("ontology.ancestors", ontology.TaxonomyGraph, "ancestors", False),
    ("ontology.match_degree", ontology, "match_degree", False),
    ("ontology.with_individual", ontology.TaxonomyGraph, "with_individual", False),
    ("registry.load_registry", registry, "load_registry", False),
    ("registry.compile_service_to_action", registry, "compile_service_to_action", False),
    ("composer.build_problem", composer, "build_problem", False),
    ("composer.compose", composer, "compose", False),
    ("composer.execute", composer, "execute", False),
    ("scenario.load_roster", scenario, "load_roster", False),
    ("scenario.eventlog_open", scenario.EventLog, "__init__", False),
    ("scenario.validate_travel_plan", scenario, "validate_travel_plan", False),
    ("scenario.trace_resources", scenario, "trace_resources", False),
    ("scenario.report_emergency", scenario, "report_emergency", False),
    ("scenario.eventlog_append", scenario.EventLog, "append", False),
    ("cli.run", cli, "run", False),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.plan_steps = 0
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.end_col.append(0)
        self._stack.append(idx)
        self.start_col.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end_col[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given name."""
        idx = self.open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, orig, outermost: bool):
        tracer = self
        name_id = self._name_id(name)
        calls = self.calls

        if inspect.isgeneratorfunction(orig):
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                it = orig(*args, **kwargs)
                while True:
                    idx = tracer.open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item
            return gen_wrapper

        if name == "cli.run":
            def cli_wrapper(argv=None):
                calls[name] += 1
                idx = tracer.open(tracer._name_id(f"cli.run.{argv[0]}") if argv else name_id)
                try:
                    return orig(argv)
                finally:
                    tracer.close(idx)
            return cli_wrapper

        if outermost:
            active = [False]

            def outer_wrapper(*args, **kwargs):
                if active[0]:
                    return orig(*args, **kwargs)
                calls[name] += 1
                active[0] = True
                idx = tracer.open(name_id)
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer.close(idx)
                    active[0] = False
            return outer_wrapper

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = tracer.open(name_id)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if isinstance(result, planner.Plan):
                tracer.plan_steps += len(result.steps)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fluxcompose" or n.startswith("fluxcompose.")]
        for name, owner, attr, outermost in TARGETS:
            orig = owner.__dict__[attr]
            wrapped = self._wrap(name, orig, outermost)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._rebind(module, key, wrapped)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: span count, total ms and self ms."""
        n = len(self.start_col)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent_col[i]
            if p >= 0:
                child[p] += self.end_col[i] - self.start_col[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"spans": 0, "ms": 0.0, "self_ms": 0.0})
        for i in range(n):
            dur = self.end_col[i] - self.start_col[i]
            agg = out[self.names[self.name_col[i]]]
            agg["spans"] += 1
            agg["ms"] += dur / 1e6
            agg["self_ms"] += (dur - child[i]) / 1e6
        return out

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line: index, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start_col)):
                fh.write(f"{i}\t{self.names[self.name_col[i]]}\t{self.start_col[i]}\t"
                         f"{self.end_col[i]}\t{self.parent_col[i]}\n")

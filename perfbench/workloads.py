"""The four benchmark workloads: generated inputs, requests and reference answers.

Each workload generates its inputs from a seed, loads them through the
package's public functions in ``setup`` (the timed set-up), and then serves
the requests of its ``script`` one at a time. Every request carries the answer
the generator knows by construction, or a reference model derives it.
``check`` compares each output with that answer right after the request,
outside the timed span, and keeps only the failures, so the benchmark's own
memory does not grow with the number of requests served.

Why these workloads (each stresses a different layer):

* ``plan-movechain``: progression planning in a non-monotone domain (``move``
  removes ``at(X)``). Time goes to ``terms`` and ``planner``.
* ``compose-services``: service composition, a monotone search space where
  every step adds fresh placeholders. Two requests in twelve want a concept no
  service produces and must end in ``NoPlanFound``.
* ``dispatch-train``: the emergency-dispatch layer on a large roster and a
  pre-seeded event log: roster scans and copies, ranking, registration and
  log appends.
* ``cli-bundled``: in-process ``cli.run`` on the bundled data, where fixed
  per-call costs (file loading, argparse, log open) dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import shutil
from dataclasses import dataclass, field
from datetime import date, datetime, time
from pathlib import Path
from typing import Iterator, Optional

from fluxcompose import cli, composer, dsl, ontology, planner, registry, scenario

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "fluxcompose" / "data"


@dataclass
class Request:
    """One call into the program. ``negative`` marks an expected negative verdict
    (no plan, a fallback notice or exit code 1); ``expected`` is the reference."""

    kind: str
    negative: bool
    payload: object
    expected: object = None


@dataclass
class Failure:
    index: int
    message: str


@dataclass
class CheckResult:
    failures: list[Failure] = field(default_factory=list)
    reports: int = 0
    fallbacks: int = 0
    known_defect_hits: int = 0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def messages_path(log: Path) -> Path:
    """The message-sink file beside an event log, named as the CLI names it."""
    return Path(str(log) + ".messages")


def _copy_fresh(src: Path, dst: Path) -> None:
    """Replace dst by a byte copy of src (fresh log or message-sink file)."""
    if dst.exists():
        dst.unlink()
    shutil.copyfile(src, dst)


class Workload:
    """Base class. A subclass calls ``keep_digests`` with its generated inputs
    and either fills ``self.requests``, which ``script`` cycles, or overrides
    ``script``."""

    name = ""

    def __init__(self, seed: int, work_dir: Path, tiny: bool):
        self.seed = seed
        self.work_dir = work_dir
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}:{seed}")
        self.requests: list[Request] = []
        self.digests: dict[str, str] = {}
        self.result = CheckResult()

    def keep_digests(self, inputs: dict[str, bytes]) -> None:
        """Record the SHA-256 of each generated input; the bytes are not kept."""
        self.digests = {k: sha256(v) for k, v in sorted(inputs.items())}

    def script(self) -> Iterator[Request]:
        """The requests of a pass, in order: endless, a pass stops on its own."""
        return itertools.cycle(self.requests)

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what setup loaded; the next setup starts from fresh inputs."""

    def prepare(self, req: Request) -> None:
        """Untimed work before a request, such as fresh copies of its files."""

    def issue(self, req: Request):
        raise NotImplementedError

    def begin_check(self) -> None:
        """Start a pass: an empty result and a fresh reference state."""
        self.result = CheckResult()

    def check(self, index: int, req: Request, output) -> None:
        """Untimed, right after a request: record a failure if the output is wrong."""
        msg = self.mismatch(req, output)
        if msg:
            self.result.failures.append(Failure(index, msg))

    def mismatch(self, req: Request, output) -> Optional[str]:
        raise NotImplementedError

    def end_check(self, count: int) -> CheckResult:
        """Checks that need the whole pass of ``count`` requests; returns its result."""
        return self.result


def _expect_no_plan(out, depth: int) -> Optional[str]:
    if isinstance(out, planner.NoPlanFound):
        return None if out.depth == depth else f"NoPlanFound at depth {out.depth}, expected {depth}"
    return f"expected NoPlanFound({depth}), got {out!r}"


# ---------------------------------------------------------------------------
# plan-movechain
# ---------------------------------------------------------------------------

MOVE_DOMAIN = """\
fluent at/1.
fluent link/2.
action move(X,Y)
  poss: holds(at(X)), holds(link(X,Y))
  update: add [at(Y)] remove [at(X)].
"""

MOVE_MAX_DEPTH = 8
# One cycle of request shapes: (chain steps n, dead-end side links per node w,
# goal reachable). Every cycle holds the same shapes in a seeded order and a
# shape fixes the link structure, so runs with different seeds do the same
# work. The shapes are chosen so that the median falls inside the unreachable
# block and the 95th percentile inside the costliest shape, not between two:
# five shapes cost less than the unreachable pair and five more, so the
# median falls in the middle of that pair.
MOVE_CYCLE = [(4, 1, True), (4, 2, True), (5, 1, True), (4, 3, True), (5, 2, True),
              (6, 2, True), (8, 1, True), (7, 2, True), (7, 2, True), (8, 2, True),
              (5, 1, False), (5, 1, False)]
MOVE_TINY_CYCLE = [(3, 1, True), (2, 1, False)]
# Dead-end names start with a letter that sorts before or after the chain's
# "n", alternating, so the planner meets some dead ends before the chain link.
BEFORE_N, AFTER_N = "abcdefghijklm", "opqruvwxyz"


def move_chain_problem(rng: random.Random, n: int, w: int, reachable: bool) -> str:
    """A chain n0 -> ... -> n{n} with w dead-end side links per chain node.

    Every other dead end links back to a chain node at or before its own,
    which never shortens the chain, so move(n0,n1)...move(n{n-1},n{n}) is the unique
    shortest plan. An unreachable goal names a node t0 that only links into
    the chain.
    """
    links = [(f"n{i}", f"n{i + 1}") for i in range(n)]
    for i in range(n):
        for j in range(w):
            dead = f"{rng.choice(BEFORE_N if (i + j) % 2 == 0 else AFTER_N)}{i}x{j}"
            links.append((f"n{i}", dead))
            if (i + j) % 2:
                links.append((dead, f"n{i // 2}"))
    goal = f"n{n}"
    if not reachable:
        goal = "t0"
        links.append(("t0", "n0"))
    rng.shuffle(links)
    init = ", ".join(["at(n0)"] + [f"link({a},{b})" for a, b in links])
    return f"init: {init}.\ngoal: at({goal}).\n"


class PlanMoveChain(Workload):
    name = "plan-movechain"

    def __init__(self, seed, work_dir, tiny, count: int):
        super().__init__(seed, work_dir, tiny)
        cycle = MOVE_TINY_CYCLE if tiny else MOVE_CYCLE
        texts = []
        while len(self.requests) < count:
            shapes = list(cycle)
            self.rng.shuffle(shapes)
            for n, w, reachable in shapes:
                texts.append(move_chain_problem(self.rng, n, w, reachable))
                expected = [f"move(n{i},n{i + 1})" for i in range(n)] if reachable else None
                self.requests.append(Request("plan" if reachable else "unsat",
                                             not reachable, len(texts) - 1, expected))
        self.texts = texts
        self.keep_digests({"domain": MOVE_DOMAIN.encode(),
                           "problems": "\x00".join(texts).encode()})
        self.cfg = planner.SearchConfig(max_depth=MOVE_MAX_DEPTH)

    def setup(self):
        domain = dsl.parse_domain(MOVE_DOMAIN, "movechain.fcd")
        self.problems = [
            planner.make_problem(domain, dsl.parse_problem(text, f"chain{i}.fcp"))
            for i, text in enumerate(self.texts)
        ]

    def close(self):
        self.problems = None

    def issue(self, req):
        return planner.plan(self.problems[req.payload], self.cfg)

    def mismatch(self, req, out):
        if req.expected is None:
            return _expect_no_plan(out, MOVE_MAX_DEPTH)
        if not isinstance(out, planner.Plan):
            return f"expected a plan, got {out!r}"
        got = [str(s) for s in out.steps]
        return None if got == req.expected else f"plan {got} != {req.expected}"


# ---------------------------------------------------------------------------
# compose-services
# ---------------------------------------------------------------------------

COMPOSE_MAX_DEPTH = 6
COMPOSE_UNSAT_DEPTH = 5
# (chain length L, distractor services d, want reachable, concept held), laid
# out like MOVE_CYCLE: five shapes cost less than the unreachable pair and five
# more, so the median falls in the middle of that pair. Holding Held, a
# subconcept of C0, is a plugin match.
COMPOSE_CYCLE = [(3, 0, True, "C0"), (3, 2, True, "Held"), (4, 1, True, "C0"),
                 (4, 3, True, "C0"), (5, 0, True, "Held"), (5, 1, True, "C0"),
                 (5, 1, True, "Held"), (6, 0, True, "C0"), (5, 2, True, "Held"),
                 (6, 1, True, "Held"), (3, 1, False, "C0"), (3, 1, False, "C0")]
COMPOSE_TINY_CYCLE = [(2, 1, True, "Held"), (2, 0, False, "C0")]
BEFORE_S, AFTER_S = "abcdefghijklmopqr", "uvwxyz"


@dataclass
class ComposeInstance:
    taxonomy: str
    registry: str
    length: int
    have_concept: str
    want: str


def compose_instance(rng: random.Random, length: int, distractors: int,
                     reachable: bool, have: str) -> ComposeInstance:
    """Services s1..sL turn C{i-1} into C{i}; distractor k turns C{k mod L} into D{k}.

    The request holds C0 or Held and wants C{L}, which only the chain s1..sL
    produces, in that order. An unreachable request wants Nowhere, which no
    service produces. Distractor names sort before and after the chain's "s",
    alternating.
    """
    tax = ["root Thing"] + [f"concept C{i} subClassOf Thing" for i in range(length + 1)]
    tax.append("concept Held subClassOf C0")
    tax += [f"concept D{k} subClassOf Thing" for k in range(distractors)]
    tax.append("concept Nowhere subClassOf Thing")
    blocks = [
        f"service s{i}\n  textDescription: chain step {i}\n"
        f"  hasInput: X : C{i - 1}\n  hasOutput: Y : C{i}\n  grounding: stub-s{i}\nend\n"
        for i in range(1, length + 1)
    ]
    for k in range(distractors):
        name = f"{rng.choice(BEFORE_S if k % 2 == 0 else AFTER_S)}{k}"
        blocks.append(
            f"service {name}\n  hasInput: X : C{k % length}\n"
            f"  hasOutput: Y : D{k}\n  grounding: stub-{name}\nend\n")
    rng.shuffle(blocks)
    return ComposeInstance("\n".join(tax) + "\n", "\n".join(blocks), length, have,
                           f"C{length}" if reachable else "Nowhere")


def _chain_stub(i: int):
    def stub(inputs):
        return composer.StubResult({"Y": f"val{i}"})
    return stub


class ComposeServices(Workload):
    name = "compose-services"

    def __init__(self, seed, work_dir, tiny, count: int):
        super().__init__(seed, work_dir, tiny)
        cycle = COMPOSE_TINY_CYCLE if tiny else COMPOSE_CYCLE
        self.instances: list[ComposeInstance] = []
        while len(self.requests) < count:
            shapes = list(cycle)
            self.rng.shuffle(shapes)
            for length, d, reachable, have in shapes:
                inst = compose_instance(self.rng, length, d, reachable, have)
                self.instances.append(inst)
                self.requests.append(Request(
                    "compose" if reachable else "unsat", not reachable,
                    len(self.instances) - 1,
                    self._expected(inst) if reachable else None))
        self.keep_digests({
            "taxonomies": "\x00".join(i.taxonomy for i in self.instances).encode(),
            "registries": "\x00".join(i.registry for i in self.instances).encode(),
        })

    @staticmethod
    def _expected(inst: ComposeInstance) -> tuple[list[str], list[str]]:
        degree = "Exact" if inst.have_concept == "C0" else "Plugin"
        wf = [f"step\t0\ts1\tX=req:{inst.have_concept}:v0:{degree}"]
        wf += [f"step\t{i}\ts{i + 1}\tX=out:{i - 1}:Y" for i in range(1, inst.length)]
        ex = [f"exec\t{i}\ts{i + 1}\tX={'v0' if i == 0 else f'val{i}'}\tY=val{i + 1}\tok"
              for i in range(inst.length)]
        return wf, ex

    def setup(self):
        self.loaded = []
        for k, inst in enumerate(self.instances):
            g = ontology.load_taxonomy(inst.taxonomy, f"inst{k}.tax")
            reg = registry.load_registry(inst.registry, g, f"inst{k}.reg")
            req = composer.CompositionRequest(have=((inst.have_concept, "v0"),),
                                              want=(inst.want,))
            env = composer.GroundingEnv(stubs={
                f"stub-s{i}": _chain_stub(i) for i in range(1, inst.length + 1)})
            self.loaded.append((g, reg, req, env))
        self.cfg = planner.SearchConfig(max_depth=COMPOSE_MAX_DEPTH)
        self.unsat_cfg = planner.SearchConfig(max_depth=COMPOSE_UNSAT_DEPTH)

    def close(self):
        self.loaded = None

    def issue(self, req):
        g, reg, creq, env = self.loaded[req.payload]
        if req.negative:
            return composer.compose(creq, reg, g, self.unsat_cfg)
        wf = composer.compose(creq, reg, g, self.cfg)
        return wf, composer.execute(wf, env, reg), reg

    def mismatch(self, req, out):
        if req.negative:
            return _expect_no_plan(out, COMPOSE_UNSAT_DEPTH)
        if not isinstance(out, tuple):
            return f"expected a workflow, got {out!r}"
        wf, trace, reg = out
        got = (wf.to_lines(reg), trace.to_lines())
        return None if got == req.expected else f"workflow {got} != {req.expected}"


# ---------------------------------------------------------------------------
# dispatch-train
# ---------------------------------------------------------------------------

COACHES = [f"S{i}" for i in range(1, 25)]
SPECIALIZATIONS = ["Orthopedics", "Cardiology", "GeneralMedicine"]
MEDICAL = {"doctor", "nurse", "paramedic", "pharmacist"}
SEVERITY_RULES = """\
rule Orthopedics {fracture} -> Emergency @3
rule Orthopedics {pain,swelling} -> Major @2
rule Orthopedics {pain} -> Minor @1
rule Cardiology {chest-pain} -> Emergency @2
rule Cardiology {palpitations} -> Major @1
rule GeneralMedicine {fever,vomiting} -> Major @2
rule GeneralMedicine {fever} -> Minor @1
"""
# Reference severity table, written from the rules above: (spec, required
# symptoms, severity, priority). No matching rule means Emergency.
SEVERITY_TABLE = [
    ("Orthopedics", {"fracture"}, "Emergency", 3),
    ("Orthopedics", {"pain", "swelling"}, "Major", 2),
    ("Orthopedics", {"pain"}, "Minor", 1),
    ("Cardiology", {"chest-pain"}, "Emergency", 2),
    ("Cardiology", {"palpitations"}, "Major", 1),
    ("GeneralMedicine", {"fever", "vomiting"}, "Major", 2),
    ("GeneralMedicine", {"fever"}, "Minor", 1),
]
SYMPTOM_SETS = [("fracture",), ("pain",), ("pain", "swelling"), ("chest-pain",),
                ("palpitations",), ("fever",), ("fever", "vomiting"), ("dizziness",)]
CASES = ["fell-in-aisle", "collapsed", "short of breath", "hit by luggage",
         "unwell since boarding"]
SYLLABLES = ["ra", "vi", "me", "na", "ar", "jun", "lak", "shmi", "su", "resh",
             "an", "ita", "de", "vi", "ka", "ran", "pri", "ya", "mo", "han"]
JOURNEY = date(2011, 11, 5)
# Request kinds of one cycle of the script, in a seeded order per cycle. A
# fixed mix keeps the median inside the block of medical reports. Robbery
# callers are not registered yet, so each robbery report also registers its
# caller (a roster copy) and their median, unsat_ms, times one kind of work;
# with a seeded share of registered callers it would fall in the cheap or in
# the costly kind depending on the seed.
DISPATCH_CYCLE = ["validate"] * 2 + ["robbery"] * 2 + ["medical"] * 8
DISPATCH_PANEL = 24
SEED_SESSION_REPORTS = 40


def severity_of(spec: Optional[str], symptoms) -> str:
    best = None
    for rule_spec, required, severity, prio in SEVERITY_TABLE:
        if rule_spec == spec and required <= set(symptoms):
            if best is None or prio > best[1]:
                best = (severity, prio)
    return best[0] if best else "Emergency"


@dataclass(slots=True)
class Person:
    pnr: str
    name: str
    coach: str
    seat: int
    role: str
    profession: str
    specialization: str
    registered: bool
    origin: str
    destination: str


def make_roster(rng: random.Random, size: int, stations: list[str]) -> list[Person]:
    """A roster drawn from a finite name pool, so duplicate names occur."""
    pool = sorted({
        "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()
        for _ in range(max(20, size // 100))
    })
    people = []
    for k in range(size):
        r = rng.random()
        if r < 0.05:
            role = "DeliveryPersonnel"
            profession = rng.choices(["doctor", "nurse", "paramedic", "pharmacist", "guard"],
                                     [40, 25, 10, 10, 15])[0]
            spec = rng.choice(SPECIALIZATIONS) if profession == "doctor" else ""
            registered = rng.random() < 0.8
        elif r < 0.15:
            role, profession, spec = "Patient", "", ""
            registered = rng.random() < 0.6
        else:
            role, profession, spec = "", "", ""
            registered = rng.random() < 0.3
        o = rng.randrange(len(stations) - 1)
        people.append(Person(f"P{k:06d}", rng.choice(pool), rng.choice(COACHES),
                             rng.randint(1, 72), role, profession, spec, registered,
                             stations[o], stations[rng.randint(o + 1, len(stations) - 1)]))
    return people


def roster_text(people: list[Person]) -> str:
    lines = ["#coach-order: " + ",".join(COACHES), scenario.ROSTER_HEADER]
    for p in people:
        lines.append(",".join([
            p.pnr, p.name, p.coach, str(p.seat), p.role, p.profession, p.specialization,
            "yes" if p.registered else "no", "", "", "", p.origin, p.destination,
            JOURNEY.isoformat()]))
    return "\n".join(lines) + "\n"


def make_schedule(rng: random.Random) -> tuple[list[tuple[str, time]], str]:
    minutes = sorted(rng.sample(range(5 * 60, 24 * 60), 12))
    stops = [(f"Station{i:02d}", time(m // 60, m % 60)) for i, m in enumerate(minutes)]
    text = "".join(f"station {s} @ {t.strftime('%H:%M')}\n" for s, t in stops)
    return stops, text


def next_stop(stops, now: time) -> str:
    for name, arrival in stops:
        if arrival > now:
            return name
    return stops[-1][0]


def _report_payload(rng: random.Random, pnr: str,
                    robbery: bool) -> tuple[str, scenario.EmergencyInfo, datetime]:
    spec = None if robbery else rng.choice(SPECIALIZATIONS)
    info = scenario.EmergencyInfo(
        event_type=scenario.EventType.ROBBERY if robbery else scenario.EventType.MEDICAL,
        specialization=spec,
        symptoms=frozenset(() if robbery else rng.choice(SYMPTOM_SETS)),
        case_history=rng.choice(CASES))
    now = datetime.combine(JOURNEY, time(rng.randint(5, 23), rng.randint(0, 59)))
    return pnr, info, now


class DispatchModel:
    """Reference rule for the dispatch layer, kept apart from the program.

    Responders are registered, travel-validated delivery personnel with a
    medical profession, minus anyone whose name equals the patient's (the
    program's documented rule, a known defect); ranked by tier (specialist
    doctor, doctor, other), coach distance, coach, name. Robbery events and
    empty rankings end in a notice to the next station.
    """

    def __init__(self, people: list[Person], stops, seeded_tokens: frozenset[str],
                 first_id: int):
        self.people = {p.pnr: p for p in people}
        self.order = {p.pnr: k for k, p in enumerate(people)}
        self.registered = {p.pnr for p in people if p.registered}
        self.validated: set[str] = set()
        self.stops = stops
        self.tokens = set(seeded_tokens)
        self.next_id = first_id
        self.sent = 0
        # Digest of the message-sink lines the reports should have appended.
        self.sink = hashlib.sha256()

    def validate(self, pnr: str) -> None:
        self.validated.add(pnr)

    def report(self, pnr: str, info: scenario.EmergencyInfo, now: datetime) -> dict:
        p = self.people[pnr]
        paid = pnr not in self.registered
        self.registered.add(pnr)
        exp = {"id": self.next_id, "patient_name": p.name, "coach": p.coach,
               "seat": p.seat, "payment_collected": paid,
               "severity": severity_of(info.specialization, info.symptoms),
               "date": now.date().isoformat(), "time": now.strftime("%H:%M"),
               "defect_hits": 0}
        self.next_id += 1
        if info.event_type is scenario.EventType.ROBBERY:
            return dict(exp, kind="fallback", station=next_stop(self.stops, now.time()),
                        reason="no responder category for event type Robbery")
        here = COACHES.index(p.coach)
        eligible = []
        for q in sorted((self.people[v] for v in self.validated), key=lambda q: self.order[q.pnr]):
            if q.pnr not in self.registered or q.profession not in MEDICAL:
                continue
            if q.name == p.name:
                if q.pnr != pnr:
                    exp["defect_hits"] += 1
                continue
            tier = (0 if q.profession == "doctor" and q.specialization == info.specialization
                    else 1 if q.profession == "doctor" else 2)
            dist = abs(COACHES.index(q.coach) - here)
            eligible.append(((tier, dist, q.coach, q.name), f"{q.name}@{q.coach}"))
        if not eligible:
            return dict(exp, kind="fallback", station=next_stop(self.stops, now.time()),
                        reason="no matching resource")
        eligible.sort(key=lambda e: e[0])
        self.sent += 1
        token = f"msg-{self.sent}"
        if token in self.tokens:
            exp["defect_hits"] += 1
        self.tokens.add(token)
        _, _, top_coach, top_name = eligible[0][0]
        self.sink.update(f"{top_name}\t{top_coach}\t{exp['severity']} {info.specialization} "
                         f"emergency coach {p.coach} seat {p.seat}: {info.case_history}\n"
                         .encode())
        return dict(exp, kind="event", responders=tuple(r for _, r in eligible),
                    delivery_personnel=top_name, confirmation=token)


def _record_mismatch(out, exp: dict) -> Optional[str]:
    if not isinstance(out, scenario.ReportOutcome):
        return f"expected a report outcome, got {out!r}"
    rec = out.record
    got = {"id": out.record_id, "kind": rec.KIND, "patient_name": rec.patient_name,
           "coach": rec.coach, "seat": rec.seat, "payment_collected": rec.payment_collected,
           "severity": rec.severity, "date": rec.date, "time": rec.time}
    if rec.KIND == "event":
        got.update(responders=rec.responders, delivery_personnel=rec.delivery_personnel,
                   confirmation=rec.confirmation)
    else:
        got.update(station=rec.station, reason=rec.reason)
    want = {k: v for k, v in exp.items() if k != "defect_hits"}
    if got != want:
        diff = {k: (got.get(k), want.get(k)) for k in set(got) | set(want)
                if got.get(k) != want.get(k)}
        return f"report differs (got, expected): {diff}"
    return None


class DispatchTrain(Workload):
    name = "dispatch-train"

    def __init__(self, seed, work_dir, tiny):
        super().__init__(seed, work_dir, tiny)
        rng = self.rng
        self.stops, schedule = make_schedule(rng)
        stations = [s for s, _ in self.stops]
        self.people = make_roster(rng, 300 if tiny else 30000, stations)
        self.by_pnr = {p.pnr: p for p in self.people}
        self.texts = {"roster": roster_text(self.people), "schedule": schedule,
                      "rules": SEVERITY_RULES,
                      "taxonomy": (DATA / "domain.tax").read_text(encoding="utf-8"),
                      "registry": (DATA / "services.reg").read_text(encoding="utf-8")}
        self.seed_log = work_dir / "dispatch-seed.log"
        self._build_seed_log(200 if tiny else 20000)
        self.log_path = work_dir / "dispatch.log"
        seeded = self.seed_log.read_text(encoding="utf-8")
        sink = messages_path(self.seed_log).read_bytes()
        self.seeded_tokens = frozenset(re.findall(r"\tconfirmation=(msg-\d+)", seeded))
        self.seeded_log_lines = len(seeded.splitlines())
        self.seeded_sink_bytes = len(sink)
        inputs = {k: v.encode() for k, v in self.texts.items()}
        inputs.update(log=seeded.encode(), messages=sink)
        self.keep_digests(inputs)
        self.ctx = None

    def _context(self, roster_src: str, log: scenario.EventLog) -> scenario.DispatchContext:
        graph = ontology.load_taxonomy(self.texts["taxonomy"], "domain.tax")
        return scenario.DispatchContext(
            roster=scenario.load_roster(roster_src, "roster.csv"),
            taxonomy=graph,
            registry=registry.load_registry(self.texts["registry"], graph, "services.reg"),
            severity_rules=ontology.load_severity_rules(self.texts["rules"], "severity.rules"),
            schedule=scenario.load_schedule(self.texts["schedule"], "route.schedule"),
            log=log, message_sink=scenario.MessageSink(messages_path(log.path)))

    def _build_seed_log(self, records: int) -> None:
        """Seed the log with the program itself: one session of reports on a small
        roster, then that session's records appended again as later sessions
        would, so the msg-<seq> confirmation tokens repeat."""
        rng = random.Random(f"seed-log:{self.seed}")
        small = make_roster(rng, 120, [s for s, _ in self.stops])
        for p in small:
            if p.role == "DeliveryPersonnel":
                p.registered = True
        for path in (self.seed_log, messages_path(self.seed_log)):
            if path.exists():
                path.unlink()
        session = []
        with scenario.EventLog(self.seed_log) as log:
            ctx = self._context(roster_text(small), log)
            for p in small:
                if p.role == "DeliveryPersonnel":
                    ctx.roster, _ = scenario.validate_travel_plan(
                        ctx.roster, p.pnr, p.origin, p.destination, JOURNEY)
            for _ in range(SEED_SESSION_REPORTS):
                pnr, info, now = _report_payload(rng, rng.choice(small).pnr,
                                                 robbery=rng.random() < 0.2)
                session.append(scenario.report_emergency(ctx, pnr, info, now=now).record)
            while len(session) < records:
                for rec in session[:SEED_SESSION_REPORTS]:
                    log.append(rec)
                session.extend(session[:SEED_SESSION_REPORTS])
        sink = messages_path(self.seed_log)
        messages = sink.read_text(encoding="utf-8")
        sink.write_text(messages * (len(session) // SEED_SESSION_REPORTS), encoding="utf-8")
        self.seed_records = len(session)

    def script(self):
        """Validations of a panel of registered delivery personnel, and reports:
        Medical ones by anyone, Robbery ones by callers not yet registered.

        The first requests validate the whole panel, so reports find
        responders from the start and later validations change nothing: a
        request costs the same early and late in a run. The script is endless
        and made while it is consumed, so its memory grows only by the set of
        callers so far.
        """
        rng = random.Random(f"{self.name}-script:{self.seed}")
        registered_dp = [p.pnr for p in self.people
                         if p.role == "DeliveryPersonnel" and p.registered]
        panel = rng.sample(registered_dp, min(DISPATCH_PANEL, len(registered_dp)))
        for pnr in panel:
            yield Request("validate", False, pnr)
        unregistered = [p for p in self.people if not p.registered]
        called: set[str] = set()
        while True:
            kinds = list(DISPATCH_CYCLE)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "validate":
                    yield Request("validate", False, rng.choice(panel))
                    continue
                caller = rng.choice(unregistered if kind == "robbery" else self.people)
                while kind == "robbery" and caller.pnr in called:
                    caller = rng.choice(unregistered)
                called.add(caller.pnr)
                payload = _report_payload(rng, caller.pnr, robbery=kind == "robbery")
                yield Request("report", kind == "robbery", payload)

    def setup(self):
        _copy_fresh(self.seed_log, self.log_path)
        _copy_fresh(messages_path(self.seed_log), messages_path(self.log_path))
        log = scenario.EventLog(self.log_path)
        try:
            self.ctx = self._context(self.texts["roster"], log)
        except BaseException:
            log.close()
            raise

    def close(self):
        self.ctx.log.close()
        self.ctx = None

    def issue(self, req):
        if req.kind == "validate":
            p = self.by_pnr[req.payload]
            self.ctx.roster, got = scenario.validate_travel_plan(
                self.ctx.roster, p.pnr, p.origin, p.destination, JOURNEY)
            return got
        pnr, info, now = req.payload
        return scenario.report_emergency(self.ctx, pnr, info, now=now)

    def begin_check(self):
        super().begin_check()
        self.model = DispatchModel(self.people, self.stops, self.seeded_tokens,
                                   self.seed_records + 1)

    def mismatch(self, req, out):
        if req.kind == "validate":
            self.model.validate(req.payload)
            ok = (isinstance(out, scenario.Passenger) and out.pnr == req.payload
                  and out.travel.validated)
            return None if ok else f"validate {req.payload}: got {out!r}"
        exp = self.model.report(*req.payload)
        self.result.reports += 1
        self.result.fallbacks += exp["kind"] == "fallback"
        self.result.known_defect_hits += exp["defect_hits"]
        return _record_mismatch(out, exp)

    def end_check(self, count):
        res = self.result
        # The log on disk holds the seeded records plus one line per report.
        first = self.seed_records + 1
        with open(self.log_path, encoding="utf-8") as fh:
            ids = [int(line.split("\t", 1)[0][3:])
                   for line in itertools.islice(fh, self.seeded_log_lines, None)]
        if ids != list(range(first, first + res.reports)):
            res.failures.append(Failure(count, "event log ids do not match the reports"))
        # The message sink holds the seeded messages plus one line per notification.
        with open(messages_path(self.log_path), "rb") as fh:
            fh.seek(self.seeded_sink_bytes)
            if sha256(fh.read()) != self.model.sink.hexdigest():
                res.failures.append(Failure(count, "message sink lines do not match"))
        return res


# ---------------------------------------------------------------------------
# cli-bundled
# ---------------------------------------------------------------------------

# Times each golden variant occurs in one cycle of the request mix, chosen so
# that the median of all requests falls inside the validate block and that of
# the exit-code-1 requests inside the report-robbery block.
CLI_WEIGHTS = {"plan": 3, "plan-lines": 2, "plan-depth1": 2, "compose": 3,
               "compose-nofact": 2, "trace-validate-all": 3, "trace-fallback": 2,
               "severity-major": 2, "severity-default": 1, "validate": 4,
               "report": 2, "report-lines": 1, "report-robbery": 2,
               "simulate": 2, "simulate-lines": 1}


def token_repeats(log_text: str, seeded_lines: int) -> int:
    """Confirmation tokens in appended log lines that an earlier line already carries."""
    seen: set[str] = set()
    hits = 0
    for k, line in enumerate(log_text.splitlines()):
        m = re.search(r"\tconfirmation=(msg-\d+)", line)
        if m:
            hits += k >= seeded_lines and m.group(1) in seen
            seen.add(m.group(1))
    return hits


class CliBundled(Workload):
    name = "cli-bundled"

    def __init__(self, seed, work_dir, tiny, count: int):
        super().__init__(seed, work_dir, tiny)
        self.golden = json.loads((HERE / "golden_cli.json").read_text(encoding="utf-8"))
        self.seed_log = HERE / "cli_seed.log"
        self.log_path = work_dir / "cli.log"
        names = sorted(CLI_WEIGHTS)
        order = list(names) if tiny else []
        while not tiny and len(order) < count:
            cycle = [n for n in names for _ in range(CLI_WEIGHTS[n])]
            self.rng.shuffle(cycle)
            order += cycle
        for name in order:
            g = self.golden[name]
            self.requests.append(Request(g["argv"][0], g["exit"] != 0, name))
        inputs = {p.name: p.read_bytes() for p in sorted(DATA.iterdir())}
        inputs["cli_seed.log"] = self.seed_log.read_bytes()
        self.seeded_lines = len(inputs["cli_seed.log"].splitlines())
        self.keep_digests(inputs)
        # The CLI prefers FLUXCOMPOSE_LOG over --log; the goldens name --log.
        os.environ.pop("FLUXCOMPOSE_LOG", None)

    def _fill(self, text: str) -> str:
        return text.replace("{data}", str(DATA)).replace("{log}", str(self.log_path))

    def setup(self):
        """Load every bundled input through the public parsers and open a fresh log."""
        def read(name):
            return (DATA / name).read_text(encoding="utf-8")

        domain = dsl.parse_domain(read("emergency.fcd"), "emergency.fcd")
        planner.make_problem(domain, dsl.parse_problem(read("emergency.fcp"), "emergency.fcp"))
        g = ontology.load_taxonomy(read("domain.tax"), "domain.tax")
        registry.load_registry(read("services.reg"), g, "services.reg")
        scenario.load_roster(read("roster.csv"), "roster.csv")
        scenario.load_schedule(read("route.schedule"), "route.schedule")
        ontology.load_severity_rules(read("severity.rules"), "severity.rules")
        self._fresh_log()
        scenario.EventLog(self.log_path).close()

    def _fresh_log(self):
        _copy_fresh(self.seed_log, self.log_path)
        messages = messages_path(self.log_path)
        if messages.exists():
            messages.unlink()

    def prepare(self, req):
        if self.golden[req.payload]["log_sha256"] is not None:
            self._fresh_log()

    def issue(self, req):
        argv = [self._fill(a) for a in self.golden[req.payload]["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def mismatch(self, req, out):
        g = self.golden[req.payload]
        self.result.reports += g["reports"]
        self.result.fallbacks += g["fallbacks"]
        if not isinstance(out, tuple):
            return f"{req.payload}: raised {out!r}"
        code, stdout, stderr = out
        if code != g["exit"]:
            return f"{req.payload}: exit {code} != {g['exit']}"
        if stdout != self._fill(g["stdout"]):
            return f"{req.payload}: stdout {stdout!r} != {self._fill(g['stdout'])!r}"
        if stderr != self._fill(g["stderr"]):
            return f"{req.payload}: stderr {stderr!r} != {self._fill(g['stderr'])!r}"
        if g["log_sha256"] is None:
            return None
        log = self.log_path.read_bytes()
        messages = messages_path(self.log_path)
        sink = messages.read_bytes() if messages.exists() else b""
        self.result.known_defect_hits += token_repeats(log.decode(), self.seeded_lines)
        if (sha256(log), sha256(sink)) != (g["log_sha256"], g["messages_sha256"]):
            return f"{req.payload}: log digests differ"
        return None


WORKLOADS = {w.name: w for w in (PlanMoveChain, ComposeServices, DispatchTrain, CliBundled)}

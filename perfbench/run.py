"""Benchmark for fluxcompose: one closed-loop client, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-movechain --seed 1 --seconds 25 --trace 0

Workloads: plan-movechain, compose-services, dispatch-train, cli-bundled (see
workloads.py for what each stresses and why). A run generates its inputs from
the seed, then sends one request at a time, each when the previous one has
returned, checking each output against its reference answer. The timed
phase is a series of identical passes, each a fixed list of requests served
from a fresh set-up, for as many passes as fit in ``--seconds`` seconds;
set-up is timed several times before each pass and after the last.

Times are reported at a reference machine speed. Between requests, outside
their timed spans, the run times a fixed calibration loop (``calibrate``).
Each request's latency is scaled by CAL_REF_MS over the median of the
calibration samples taken around it, and each window of set-ups by those
taken before and after it. The program's own speed thus shows, while that of
the shared host, which drifts by a quarter within minutes, largely cancels.
Wall-clock medians are printed on the ``info`` line.
Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. A run serves passes until it
has completed MIN_REQUESTS requests, even past ``--seconds``, and reports
fewer as not correct: its 95th percentile would rest on too few samples. ``--trace 1`` instead serves a fixed number of requests three
times, twice untraced and then with spans around the package's public
functions, and reports per-layer counts and self times plus the tracing
overhead; it ignores ``--seconds``. Spans are written to ``.perfbench-out/``.

Scratch files go to ``.perfbench-tmp/`` and are removed at exit. The package
is imported from ``src/`` of the checkout; without it the run fails.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is timed in a window before each pass and after the last, so that
# its median spans the run rather than one moment of a machine whose speed
# drifts. A window runs set-up at least once and until SETUP_MIN_SECONDS have
# been spent in it, so cheap set-ups are timed often. The last set-up of a
# window serves the pass.
SETUP_MAX_REPEATS = 1000
SETUP_MIN_SECONDS = 0.6
# A timed run serves passes until it has completed this many requests, even
# past --seconds on a slow host, so that at least 10 samples lie beyond the
# 95th percentile.
MIN_REQUESTS = 200
# Requests of one pass: whole cycles of the workload's request shapes, a few
# seconds' work. Every pass serves the same requests from a fresh set-up, so
# a pass does the same work however fast it runs; on dispatch-train, where
# each report grows the roster's registrations and the log, that keeps the
# state a request meets independent of the program's speed.
PASS_REQUESTS = {"plan-movechain": 96, "compose-services": 48, "dispatch-train": 300,
                 "cli-bundled": 512}
# Workloads that cycle a generated list of distinct requests, one pass long;
# the dispatch script is stateful and endless instead.
CYCLED = ("plan-movechain", "compose-services", "cli-bundled")
# Calibration: one sample runs calibrate() with the garbage collector off. A
# sample is taken after a request once CAL_EVERY_MS have passed since the
# previous one, and CAL_SETUP_SAMPLES times before and after each window of
# set-ups. A request's latency is scaled by CAL_REF_MS over the median of the
# CAL_WINDOW samples around it. CAL_REF_MS, the reference speed's sample
# time, is close to the median sample on the 2-vCPU Intel Xeon host the
# benchmark was tuned on, so reported times read close to wall times there.
CAL_ROUNDS = 4
CAL_EVERY_MS = 25
CAL_SETUP_SAMPLES = 3
CAL_REF_MS = 1.5
CAL_WINDOW = 9
# Requests served by a traced run: fixed, so that its counts repeat exactly
# for a seed, and few enough that the three passes take seconds.
TRACE_REQUESTS = {"plan-movechain": 40, "compose-services": 40,
                  "dispatch-train": 300, "cli-bundled": 150}

END_TO_END_UNITS = {"latency_ms.p50": "ms", "latency_ms.p95": "ms",
                    "throughput_rps": "1/s", "unsat_ms.p50": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics but not gated: error_share is 0 when the
# program is correct, and report_ms exists only where requests report emergencies.
INFO_UNITS = {"error_share": "ratio", "report_ms.p50": "ms", "report_ms.p95": "ms"}

# Per-layer metrics of a traced run: call counts, self times (span minus child
# spans) and total times of the traced functions (names as in tracer.TARGETS).
COUNTED = ("terms.unify", "terms.holds", "terms.knows_val", "terms.with_update",
           "planner.check_poss", "planner.satisfies_goal", "planner.apply_update",
           "ontology.ancestors", "ontology.match_degree",
           "registry.compile_service_to_action", "scenario.eventlog_append")
SELF_TIMED = ("terms.holds", "terms.knows_val", "terms.unify", "planner.plan",
              "planner.check_poss", "ontology.with_individual",
              "registry.compile_service_to_action", "composer.build_problem",
              "composer.compose", "composer.execute", "scenario.validate_travel_plan",
              "scenario.trace_resources", "scenario.report_emergency",
              "scenario.eventlog_append") + tuple(
    f"cli.run.{c}" for c in ("validate", "plan", "compose", "trace", "severity",
                             "report", "simulate"))
TOTAL_TIMED = ("dsl.parse_domain", "dsl.parse_problem", "ontology.load_taxonomy",
               "registry.load_registry", "scenario.load_roster", "scenario.eventlog_open")
PER_LAYER_NAMES = ([f"{n}.calls" for n in COUNTED] + [f"{n}.self_ms" for n in SELF_TIMED]
                   + [f"{n}.ms" for n in TOTAL_TIMED]
                   + ["planner.useful_ratio", "scenario.fallback_share",
                      "scenario.known_defect_hits", "trace.overhead_pct", "cli.import_ms"])
PER_LAYER_UNITS = {"calls": "count", "self_ms": "ms", "ms": "ms", "useful_ratio": "ratio",
                   "fallback_share": "ratio", "known_defect_hits": "count",
                   "overhead_pct": "%", "import_ms": "ms"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric in INFO_UNITS:
        return INFO_UNITS[metric]
    return PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]


def use_checkout_source() -> None:
    """Import fluxcompose from this checkout's src/, never from elsewhere."""
    if not (SRC / "fluxcompose" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}/fluxcompose")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fluxcompose
    if Path(fluxcompose.__file__).resolve().parent != SRC / "fluxcompose":
        raise SystemExit(f"perfbench: fluxcompose imported from {fluxcompose.__file__}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"  # not a git checkout, or no git
    try:
        top, head = git("rev-parse", "--show-toplevel", "HEAD").split()
        if Path(top).resolve() == ROOT:
            commit = head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no")
                             else "")
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "cpu_model": model,
            "cli.import_ms": cli_import_ms()}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=30).stdout.strip()


def cli_import_ms(pairs: int = 3) -> float:
    """Median time to import fluxcompose.cli in a fresh interpreter, minus a bare start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def timed(code: str) -> float:
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return (time.perf_counter_ns() - t0) / 1e6

    return statistics.median(timed("import fluxcompose.cli") - timed("pass")
                             for _ in range(pairs))


def rss_mb() -> float:
    """Current resident memory of this process."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _CalItem:
    __slots__ = ("n", "tag")

    def __init__(self, n: int, tag: str):
        self.n, self.tag = n, tag


_CAL_KEYS = [(f"k{(i * 7919) % 1000:03d}", i % 97, (i, i % 13)) for i in range(300)]
_CAL_POOL = tuple(_CalItem(i % 97, "y" if i % 5 == 0 else "x") for i in range(30000))


def calibrate() -> int:
    """Fixed interpreter work, alike in kind to the package's.

    CAL_ROUNDS times: build a dict, sort tuples, look keys up; then read two
    attributes of each of 30k objects, a working set beyond the nearest
    caches, as the dispatch roster's scans have.
    """
    total = 0
    for _ in range(CAL_ROUNDS):
        table = {}
        for key, n, pair in _CAL_KEYS:
            table[key] = (n, pair)
        total += len(sorted(_CAL_KEYS)[0][0])
        for key in table:
            n, pair = table[key]
            if n in (1, 2, 3) or pair[1] == 4:
                total += 1
            total += len(key)
    for item in _CAL_POOL:
        if item.n == 3 or item.tag == "y":
            total += 1
    return total


def cal_sample() -> float:
    """Milliseconds of one calibration sample, with the garbage collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        calibrate()
        return (time.perf_counter_ns() - t0) / 1e6
    finally:
        gc.enable()


def timed_setups(w) -> tuple[list[float], list[float]]:
    """One window of set-ups; the last one stays open.

    Returns each set-up's seconds at the reference speed, and as measured.
    The window is scaled by the calibration samples taken before and after it.
    """
    cal = [cal_sample() for _ in range(CAL_SETUP_SAMPLES)]
    raw = []
    while not raw or (sum(raw) < SETUP_MIN_SECONDS and len(raw) < SETUP_MAX_REPEATS):
        if raw:
            w.close()
        gc.collect()
        t0 = time.perf_counter_ns()
        w.setup()
        raw.append((time.perf_counter_ns() - t0) / 1e9)
    cal += [cal_sample() for _ in range(CAL_SETUP_SAMPLES)]
    scale = CAL_REF_MS / statistics.median(cal)
    return [t * scale for t in raw], raw


NEGATIVE, REPORT = 1, 2


def serve(w, requests, tracer=None, calibrated=False):
    """Closed loop: send each request when the previous one has returned.

    Each output is checked right after its request, outside the timed span,
    and dropped; only failures are kept (in ``w.result``). Returns the
    latencies in ms, a flag byte per request (NEGATIVE, REPORT) and, if
    ``calibrated``, the latencies at the reference speed (else None): a
    calibration sample is taken between requests every CAL_EVERY_MS.
    """
    latencies, flags, cal, cal_at = array("d"), bytearray(), [], array("L")
    w.begin_check()
    gc.collect()
    last_cal = time.perf_counter_ns()
    for index, req in enumerate(requests):
        w.prepare(req)
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = w.issue(req)
            else:
                out = tracer.span(f"request.{req.kind}", w.issue, req)
        except Exception as exc:  # a wrong answer, scored by check
            out = exc
        t1 = time.perf_counter_ns()
        latencies.append((t1 - t0) / 1e6)
        cal_at.append(len(cal))
        flags.append(NEGATIVE * req.negative | REPORT * (req.kind == "report"))
        w.check(index, req, out)
        del out
        if calibrated and time.perf_counter_ns() - last_cal >= CAL_EVERY_MS * 1_000_000:
            cal.append(cal_sample())
            last_cal = time.perf_counter_ns()
    if not calibrated:
        return latencies, flags, None
    cal.append(cal_sample())
    return latencies, flags, array("d", (t * CAL_REF_MS / local_median(cal, k)
                                         for t, k in zip(latencies, cal_at)))


def local_median(cal, k: int) -> float:
    """Median of the CAL_WINDOW calibration samples centred on sample k."""
    lo = max(0, min(k - CAL_WINDOW // 2, len(cal) - CAL_WINDOW))
    return statistics.median(cal[lo:lo + CAL_WINDOW])


def print_failures(name: str, failures) -> None:
    for f in failures[:10]:
        print(f"FAIL {name} request {f.index}: {f.message}", file=sys.stderr)


def run_timed(w, seconds: float) -> tuple[dict, int, int, dict]:
    """End-to-end metrics of an untraced run; returns (metrics, attempted, failed, info)."""
    before_setup_mb = rss_mb()
    setups, raw_setups, failures = [], [], []
    latencies, raw, flags = array("d"), array("d"), bytearray()
    start, pass_s = time.perf_counter(), 0.0
    while len(raw) < MIN_REQUESTS or time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        setup_scaled, setup_raw = timed_setups(w)
        setups += setup_scaled
        raw_setups += setup_raw
        served, served_flags, served_scaled = serve(
            w, itertools.islice(w.script(), PASS_REQUESTS[w.name]), calibrated=True)
        peak_mb = peak_rss_mb()
        w.close()
        failures += w.end_check(len(served)).failures
        latencies += served_scaled
        raw += served
        flags += served_flags
        pass_s = time.perf_counter() - t0
    setup_scaled, setup_raw = timed_setups(w)
    setups += setup_scaled
    raw_setups += setup_raw
    w.close()
    print_failures(w.name, failures)
    negative = [t for t, f in zip(latencies, flags) if f & NEGATIVE]
    metrics = {
        "latency_ms.p50": statistics.median(latencies),
        "latency_ms.p95": percentile(latencies, 95),
        "throughput_rps": len(latencies) / (sum(latencies) / 1e3),
        "unsat_ms.p50": statistics.median(negative) if negative else float("nan"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
    }
    info = {"requests": len(latencies), "passes": len(latencies) // PASS_REQUESTS[w.name],
            "setups": len(setups), "unsat_requests": len(negative),
            "error_share": len(failures) / len(latencies),
            "wall_latency_ms.p50": statistics.median(raw),
            "wall_setup_s": statistics.median(raw_setups),
            "rss_before_setup_mb": before_setup_mb}
    reports = [t for t, f in zip(latencies, flags) if f & REPORT]
    if reports:
        info.update({"report_requests": len(reports), "report_ms.p50": statistics.median(reports),
                     "report_ms.p95": percentile(reports, 95)})
    return metrics, len(latencies), len(failures), info


def run_traced(w, out_dir: Path) -> tuple[dict, int, int, dict]:
    """Per-layer metrics of a traced run; returns (metrics, attempted, failed, info)."""
    from tracer import Tracer

    count = TRACE_REQUESTS[w.name]
    plain_ms, failed = [], 0
    for _ in range(2):
        w.setup()
        plain, _, _ = serve(w, itertools.islice(w.script(), count))
        w.close()
        plain_ms.append(sum(plain))
        failed += len(w.end_check(count).failures)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.span("setup", w.setup)
        traced, _, _ = serve(w, itertools.islice(w.script(), count), tracer=tracer)
    finally:
        tracer.uninstall()
    w.close()
    res = w.end_check(count)
    print_failures(w.name, res.failures)
    failed += len(res.failures)

    s = tracer.summary()
    metrics = {f"{name}.calls": tracer.calls[name] for name in COUNTED}
    for name in SELF_TIMED:
        metrics[f"{name}.self_ms"] = s[name]["self_ms"] if name in s else 0.0
    for name in TOTAL_TIMED:
        metrics[f"{name}.ms"] = s[name]["ms"] if name in s else 0.0
    applied = tracer.calls["planner.apply_update"]
    metrics["planner.useful_ratio"] = tracer.plan_steps / applied if applied else 0.0
    metrics["scenario.fallback_share"] = res.fallbacks / res.reports if res.reports else 0.0
    metrics["scenario.known_defect_hits"] = res.known_defect_hits
    # The untraced passes run first, so warm-up is not counted as overhead.
    metrics["trace.overhead_pct"] = (sum(traced) / min(plain_ms) - 1) * 100

    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{w.name}-seed{w.seed}.tsv"
    tracer.write(spans_file)
    info = {"traced_requests": count, "spans": len(tracer.start_col),
            "spans_file": str(spans_file.relative_to(ROOT)),
            "untraced_ms": min(plain_ms), "traced_ms": sum(traced)}
    return metrics, 3 * count, failed, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_REQUESTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    use_checkout_source()
    import workloads

    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        sized = ()
        if args.workload in CYCLED:
            sized = ((TRACE_REQUESTS if args.trace else PASS_REQUESTS)[args.workload],)
        w = workloads.WORKLOADS[args.workload](args.seed, work_dir, False, *sized)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print("inputs " + json.dumps({"seed": args.seed, "sha256": w.digests}))
        if args.trace:
            metrics, attempted, failed, info = run_traced(w, ROOT / ".perfbench-out")
        else:
            metrics, attempted, failed, info = run_timed(w, args.seconds)
            if attempted < MIN_REQUESTS:
                print(f"FAIL {args.workload}: {attempted} requests completed, fewer than "
                      f"{MIN_REQUESTS}", file=sys.stderr)
                failed += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    env = environment()
    if args.trace:
        metrics["cli.import_ms"] = env["cli.import_ms"]
    print("env " + json.dumps(env))
    print("info " + json.dumps(info))
    for name, value in list(metrics.items()) + [(k, v) for k, v in info.items() if k in INFO_UNITS]:
        print(f"metric {name} {value:.6g} {unit_of(name)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

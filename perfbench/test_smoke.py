"""Smoke check: every workload once at a tiny size, timed and traced, all checks on.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_checkout_source()
import workloads  # noqa: E402


@pytest.fixture
def work_dir():
    root = run.ROOT / ".perfbench-tmp"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=root))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_tiny(name, work_dir):
    sized = (30,) if name in run.CYCLED else ()
    w = workloads.WORKLOADS[name](1, work_dir, True, *sized)
    assert any(r.negative for r in itertools.islice(w.script(), 60))

    metrics, attempted, failed, extra = run.run_timed(w, 0.5)
    assert failed == 0 and extra["error_share"] == 0
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in metrics.values())

    metrics, attempted, failed, extra = run.run_traced(w, work_dir)
    assert failed == 0
    assert extra["spans"] > 0 and (work_dir / Path(extra["spans_file"]).name).is_file()
    assert set(metrics) == set(run.PER_LAYER_NAMES) - {"cli.import_ms"}
    assert metrics["planner.useful_ratio"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER_NAMES
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])

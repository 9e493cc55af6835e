"""Plans of the seeded random families, pinned row by row.

Each row is one family and seed: the plan's text, or the ``unreachable``
symbols of the NoPlanFound it raised. The rows pin both the
planner and the generators in ``randgen``, which must keep drawing the same
problem from each seed. The expected values live in ``plan_golden.json``; to
rewrite them after a deliberate change, run
``PYTHONPATH=src python tests/test_plan_golden.py`` from the repository root.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import randgen
from fluxcompose.planner import NoPlanFound, SearchConfig, plan

GOLDEN = Path(__file__).with_name("plan_golden.json")

# family -> search depth
FAMILIES = {
    "random_problem": 3,
    "random_multistep_problem": 4,
    "random_registry_problem": 3,
    "random_service_chain": 4,
    "random_token_walk": 4,
}
SEEDS = range(100)


def sweep() -> dict:
    rows = {}
    for family, depth in FAMILIES.items():
        for seed in SEEDS:
            problem = getattr(randgen, family)(random.Random(seed))
            try:
                row = {"plan": str(plan(problem, SearchConfig(depth)))}
            except NoPlanFound as exc:
                row = {"NoPlanFound": list(exc.unreachable)}
            rows[f"{family}/{seed}"] = row
    return rows


def test_plans_match_the_golden_rows():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = sweep()
    assert len(got) == len(FAMILIES) * len(SEEDS)
    assert [k for k in got if got[k] != expected.get(k)] == []
    assert got == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(sweep(), indent=1) + "\n",
                      encoding="utf-8")

"""Sweep the planner over the seeded random families and check it against the oracle.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/oracle_sweep.py

For seeds 0-299 of each family of ``test_plan_golden.py``, at that file's
depths, one row holds the plan's text or the depth and ``unreachable``
symbols of the NoPlanFound raised. The script prints, per family and in
total, the rows' SHA-256 and the states the search expanded (states passed to
``planner._children``). Seeds 0-99 are also planned by the unpruned
``enumerate_plans`` oracle, whose first plan ``plan`` must return. Exits 1 on
any disagreement, when the total SHA differs from PINNED_DIGEST, or when the
states expanded exceed EXPANDED_CEILING. A pruning change leaves the digest as
it is and may lower the ceiling to its new count; a change that alters a row
on purpose names it and pins the new digest.
"""

from __future__ import annotations

import hashlib
import random
import sys

import randgen
from fluxcompose import planner
from fluxcompose.planner import NoPlanFound, SearchConfig, plan
from oracles import enumerate_plans, validate_plan
from test_plan_golden import FAMILIES

SEEDS = range(300)
ORACLE_SEEDS = range(100)
PINNED_DIGEST = "a733cf61050be17e4d5db5acf5045084c79e37e3c2b4827c419c6b2ddd207b4a"
EXPANDED_CEILING = 2952


def main() -> int:
    expanded = 0
    children = planner._children

    def counting_children(actions, states):
        nonlocal expanded
        states = list(states)
        expanded += len(states)
        return children(actions, states)

    # the oracles never call _children, so every count is the search's
    planner._children = counting_children

    total = hashlib.sha256()
    disagreements = 0
    for family, depth in FAMILIES.items():
        rows = hashlib.sha256()
        before = expanded
        for seed in SEEDS:
            problem = getattr(randgen, family)(random.Random(seed))
            try:
                got = plan(problem, SearchConfig(depth))
                row = str(got)
            except NoPlanFound as exc:
                got = exc
                row = f"NoPlanFound({exc.depth}, {list(exc.unreachable)})"
            line = f"{family}/{seed}\t{row}\n".encode()
            rows.update(line)
            total.update(line)
            if seed in ORACLE_SEEDS:
                plans = enumerate_plans(problem, depth)
                agrees = (got == plans[0] and bool(validate_plan(problem, got)) if plans
                          else isinstance(got, NoPlanFound) and got.depth == depth)
                if not agrees:
                    disagreements += 1
                    print(f"DISAGREE {family}/{seed}: plan gave {row}, oracle "
                          f"{str(plans[0]) if plans else 'no plan'}", file=sys.stderr)
        print(f"{family}\t{len(SEEDS)} rows\t{rows.hexdigest()[:16]}\t"
              f"{expanded - before} expanded")
    digest = total.hexdigest()
    print(f"total\t{len(SEEDS) * len(FAMILIES)} rows\t{digest}\t"
          f"{expanded} expanded\t{disagreements} disagreements")
    failed = bool(disagreements)
    if digest != PINNED_DIGEST:
        print(f"DIGEST {digest} differs from the pinned {PINNED_DIGEST}", file=sys.stderr)
        failed = True
    if expanded > EXPANDED_CEILING:
        print(f"EXPANDED {expanded} states, over the ceiling of {EXPANDED_CEILING}",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

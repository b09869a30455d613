"""Suite digests: every ATM suite task and fluid twin, bit for bit.

``tests/golden`` pins two perf workloads and ``tests/fluid`` six fluid
configurations; this gate covers the rest of the named scenarios.  For
every ATM task of ``suite_specs(scale=0.2, seed=0)`` and every fluid
scenario entry at its defaults, the worker's result payload must carry
the committed executed-event count, final clock, domain counters and
probe digests.  A scenario builder refactor that shifts one heap
tie-break changes some digest here.

Regenerate after an intentional dynamics change with::

    PYTHONPATH=src python tests/golden/test_suite_digests.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.exec.registry import get_scenario
from repro.exec.spec import TaskSpec
from repro.exec.suite import suite_specs
from repro.exec.worker import execute_task

FIXTURE = Path(__file__).resolve().parent / "fixtures" / \
    "suite_digests.json"

#: Payload fields the gate compares.
FIELDS = ("executed_events", "now", "counters", "probe_digests")

FLUID_TWINS = ("fluid.staggered", "fluid.onoff", "fluid.parking",
               "fluid.transient")


def _specs() -> dict[str, TaskSpec]:
    specs = {spec.task_id: spec for spec in suite_specs(scale=0.2, seed=0)
             if get_scenario(spec.scenario).kind == "atm"}
    for name in FLUID_TWINS:
        specs[name] = TaskSpec(task_id=name, scenario=name)
    return specs


def _capture(spec: TaskSpec) -> dict:
    payload = execute_task({"spec": spec.to_dict()})
    assert payload["status"] == "ok", payload.get("error")
    return {field: payload[field] for field in FIELDS}


def _fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


SPECS = _specs()


def test_fixture_covers_every_task():
    assert sorted(_fixture()) == sorted(SPECS)
    assert len(SPECS) == 26 + len(FLUID_TWINS)


@pytest.mark.parametrize("task_id", sorted(SPECS))
def test_task_reproduces_committed_digests(task_id):
    assert _capture(SPECS[task_id]) == _fixture()[task_id]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if "--regen" not in sys.argv[1:]:
        raise SystemExit(__doc__)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump({task_id: _capture(spec)
                   for task_id, spec in sorted(SPECS.items())},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE} ({len(SPECS)} tasks)")

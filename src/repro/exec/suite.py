"""The experiment suite (E01–E26) and sweep grids as task specs.

``suite_specs`` turns DESIGN.md's experiment index into a flat list of
:class:`~repro.exec.spec.TaskSpec` — several experiments expand to more
than one task (comparison pairs, ablation sweeps).  ``scale`` shortens
every simulated horizon proportionally **at spec-build time**, so the
scale is part of the spec and therefore of the cache fingerprint: runs
at different scales never collide in the cache.

``sweep_specs`` expands a declarative parameter grid (dotted keys reach
into nested param dicts, e.g. ``algorithm_params.utilization_factor``)
into the cartesian product of specs for one scenario.
"""

from __future__ import annotations

from copy import deepcopy
from itertools import product
from typing import Any, Iterable, Mapping, Sequence

from repro.exec.registry import get_scenario
from repro.exec.spec import TaskSpec, derive_seed, set_dotted

#: Spec keys that carry simulated-time values and shrink with ``scale``
#: (event times must stay inside the shortened horizon).
_TIME_KEYS = ("duration", "stagger", "join_at", "leave_at",
              "cbr_start", "cbr_stop")

#: Below this the shortest scenarios no longer reach steady state at
#: all; mirrors repro.perf.workloads.MIN_SCALE.
MIN_SCALE = 0.05

#: Experiment table: (task_id, scenario, params).  Time-like params are
#: the full-scale values; ``suite_specs`` applies ``scale``.
SUITE: tuple[tuple[str, str, dict[str, Any]], ...] = (
    # -- paper's ATM figures --------------------------------------------
    ("E01", "atm.staggered", {"duration": 0.25}),
    ("E02", "atm.onoff", {"duration": 0.4}),
    ("E03", "atm.rtt", {"duration": 0.3}),
    ("E04", "atm.parking", {"duration": 0.3}),
    ("E05", "atm.staggered", {"algorithm": "phantom-binary",
                              "duration": 0.25}),
    ("E06", "atm.staggered", {"algorithm": "phantom-binary",
                              "algorithm_params": {"use_ni": True},
                              "duration": 0.25}),
    ("E07-dev", "atm.staggered", {"duration": 0.25}),
    ("E07-nodev", "atm.staggered",
     {"algorithm_params": {"use_deviation": False}, "duration": 0.25}),
    ("E08", "atm.transient", {"duration": 0.4, "join_at": 0.1,
                              "leave_at": 0.25}),
    # -- paper's TCP figures --------------------------------------------
    ("E09-rtt", "tcp.rtt", {"policy": "drop-tail", "duration": 30.0}),
    ("E09-parking", "tcp.parking", {"policy": "drop-tail",
                                    "duration": 30.0}),
    ("E10-rtt", "tcp.rtt", {"duration": 30.0}),
    ("E10-parking", "tcp.parking", {"duration": 30.0}),
    ("E11-droptail", "tcp.many", {"policy": "drop-tail",
                                  "duration": 30.0}),
    ("E11-sd", "tcp.many", {"duration": 30.0}),
    ("E12-quench", "tcp.rtt", {"policy": "quench", "duration": 30.0}),
    ("E12-efci", "tcp.rtt", {"policy": "efci", "duration": 30.0}),
    ("E13", "tcp.rtt", {"policy": "selective-red", "duration": 30.0}),
    # -- Section-5 baselines --------------------------------------------
    ("E14", "atm.staggered", {"algorithm": "eprca", "duration": 0.25}),
    ("E15-staggered", "atm.staggered", {"algorithm": "aprc",
                                        "duration": 0.25}),
    ("E15-onoff", "atm.onoff", {"algorithm": "aprc", "duration": 0.4}),
    ("E16", "atm.onoff", {"algorithm": "capc", "duration": 0.4}),
    ("E17-binary", "atm.parking", {"algorithm": "phantom-binary",
                                   "duration": 0.3}),
    ("E17-eprca", "atm.parking", {"algorithm": "eprca",
                                  "duration": 0.3}),
    ("E18", "atm.staggered", {"n_sessions": 3, "duration": 0.3}),
    # -- ablations (ours) -----------------------------------------------
    ("E19-f2", "atm.staggered",
     {"algorithm_params": {"utilization_factor": 2.0}, "duration": 0.25}),
    ("E19-f5", "atm.staggered",
     {"algorithm_params": {"utilization_factor": 5.0}, "duration": 0.25}),
    ("E19-f10", "atm.staggered",
     {"algorithm_params": {"utilization_factor": 10.0},
      "duration": 0.25}),
    ("E19-f20", "atm.staggered",
     {"algorithm_params": {"utilization_factor": 20.0},
      "duration": 0.25}),
    ("E20-dt0.5ms", "atm.staggered",
     {"algorithm_params": {"interval": 0.0005}, "duration": 0.25}),
    ("E20-dt1ms", "atm.staggered",
     {"algorithm_params": {"interval": 0.001}, "duration": 0.25}),
    ("E20-dt2ms", "atm.staggered",
     {"algorithm_params": {"interval": 0.002}, "duration": 0.25}),
    # -- Section-4 discussion and extensions ----------------------------
    ("E21-droptail", "tcp.vegas", {"policy": "drop-tail",
                                   "duration": 30.0}),
    ("E21-sd", "tcp.vegas", {"duration": 30.0}),
    ("E22-droptail", "tcp.mixed", {"policy": "drop-tail",
                                   "duration": 30.0}),
    ("E22-sd", "tcp.mixed", {"duration": 30.0}),
    ("E23", "atm.background", {"duration": 0.45, "cbr_start": 0.15,
                               "cbr_stop": 0.30}),
    ("E24", "atm.staggered", {"algorithm": "erica", "duration": 0.25}),
    ("E25", "atm.weighted", {"duration": 0.3}),
    ("E26-droptail", "tcp.twoway", {"policy": "drop-tail",
                                    "duration": 30.0}),
    ("E26-sd", "tcp.twoway", {"duration": 30.0}),
)


def experiment_ids() -> list[str]:
    """Distinct experiment prefixes ("E01" .. "E26"), suite order."""
    seen: list[str] = []
    for task_id, _, _ in SUITE:
        prefix = task_id.split("-", 1)[0]
        if prefix not in seen:
            seen.append(prefix)
    return seen


def _scaled(params: Mapping[str, Any], scale: float) -> dict[str, Any]:
    scaled = dict(params)
    for key in _TIME_KEYS:
        if key in scaled:
            scaled[key] = scaled[key] * scale
    return scaled


def suite_specs(scale: float = 1.0, seed: int = 0,
                experiments: Iterable[str] | None = None
                ) -> list[TaskSpec]:
    """Task specs for the (filtered) suite at ``scale``."""
    if scale < MIN_SCALE:
        raise ValueError(
            f"scale must be >= {MIN_SCALE} (shorter horizons never reach "
            f"steady state), got {scale!r}")
    wanted = None
    if experiments is not None:
        wanted = {e.upper() for e in experiments}
        known = set(experiment_ids())
        unknown = sorted(wanted - known)
        if unknown:
            raise ValueError(
                f"unknown experiment(s): {', '.join(unknown)}; known: "
                f"{', '.join(experiment_ids())}")
    specs: list[TaskSpec] = []
    for task_id, scenario, params in SUITE:
        if wanted is not None \
                and task_id.split("-", 1)[0] not in wanted:
            continue
        entry = get_scenario(scenario)
        specs.append(TaskSpec(
            task_id=task_id, scenario=scenario,
            params=_scaled(params, scale),
            seed=derive_seed(seed, task_id) if entry.takes_seed else None))
    return specs


# ----------------------------------------------------------------------
# parameter sweeps
# ----------------------------------------------------------------------
def _axis_label(key: str, value: Any) -> str:
    short = key.rsplit(".", 1)[-1]
    return f"{short}={value}"


def sweep_specs(scenario: str, grid: Mapping[str, Sequence[Any]],
                base: Mapping[str, Any] | None = None, seed: int = 0,
                probes: Sequence[str] = ()) -> list[TaskSpec]:
    """Cartesian-product specs over ``grid`` for one scenario.

    Grid keys may be dotted to reach nested param dicts
    (``algorithm_params.utilization_factor``); axis order follows the
    mapping's insertion order, values run rightmost-fastest.
    """
    entry = get_scenario(scenario)
    axes = list(grid.items())
    if not axes:
        raise ValueError("sweep grid must have at least one axis")
    for key, values in axes:
        if not values:
            raise ValueError(f"sweep axis {key!r} has no values")
    specs: list[TaskSpec] = []
    for combo in product(*(values for _, values in axes)):
        params: dict[str, Any] = deepcopy(dict(base or {}))
        labels = []
        for (key, _), value in zip(axes, combo):
            set_dotted(params, key, value)
            labels.append(_axis_label(key, value))
        task_id = f"{scenario}[{','.join(labels)}]"
        specs.append(TaskSpec(
            task_id=task_id, scenario=scenario, params=params,
            seed=derive_seed(seed, task_id) if entry.takes_seed else None,
            probes=tuple(probes)))
    return specs

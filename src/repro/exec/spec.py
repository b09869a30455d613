"""Task specs: one simulation run described as plain data.

A :class:`TaskSpec` is the unit of work the executor ships to worker
processes.  It is deliberately *declarative*: the scenario is named (and
resolved against :mod:`repro.exec.registry` inside the worker), the
parameters are JSON-able values, the seed is an explicit integer derived
from a root seed and the task id.  Nothing in a spec is a closure, a
lambda, or a live object — work travels as data, so the same spec
executes identically in-process (``-j1``), in a forked pool (``-jN``),
or out of the on-disk result cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding used for seeds and fingerprints."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def check_jsonable(value: Any, what: str) -> None:
    """Reject values that would not survive the spec's data-only trip."""
    try:
        canonical_json(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{what} is not JSON-serialisable: {exc}") from exc


def derive_seed(root_seed: int, task_id: str) -> int:
    """Deterministic per-task seed from a root seed and the task id.

    Mirrors :class:`repro.sim.rng.RngStreams` (sha256 over
    ``"{seed}:{name}"``): stable across processes and Python versions,
    independent of submission order, and collision-resistant between
    tasks.
    """
    digest = hashlib.sha256(f"{root_seed}:{task_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def parse_value(text: str) -> Any:
    """A flag value as JSON (numbers, booleans, lists), falling back to
    the raw string (``algorithm=erica``)."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def set_dotted(params: dict[str, Any], key: str, value: Any) -> None:
    """``params[a][b] = value`` for ``key == "a.b"``, creating dicts."""
    parts = key.split(".")
    node = params
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise TypeError(f"key {key!r} descends into a non-dict value")
    node[parts[-1]] = value


def parse_assignments(pairs: Sequence[str], flag: str, *,
                      convert: Callable[[str], Any] = parse_value,
                      nest: bool = True) -> dict[str, Any]:
    """``KEY=VALUE`` command-line pairs into a params dict.

    Each value goes through ``convert``.  With ``nest``, dotted keys
    descend into nested dicts (``algorithm_params.interval=2e-3``);
    without it keys stay as given.  A pair with no key, no ``=`` or an
    empty value, or one that ``convert`` or the nesting rejects, raises
    ``SystemExit`` naming ``flag``.
    """
    params: dict[str, Any] = {}
    for pair in pairs:
        key, _, text = pair.partition("=")
        try:
            if not key or not text:
                raise ValueError("expected KEY=VALUE")
            value = convert(text)
            if nest:
                set_dotted(params, key, value)
            else:
                params[key] = value
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"bad {flag} {pair!r}: {exc}") from exc
    return params


@dataclass(frozen=True)
class TaskSpec:
    """A declarative, picklable description of one simulation run."""

    #: Display/derivation label, unique within a batch (e.g. ``"E01"``).
    task_id: str
    #: Scenario name resolved from :mod:`repro.exec.registry`.
    scenario: str
    #: Scenario keyword arguments (JSON-able values only).
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Explicit per-task seed (``None`` for closed scenarios).
    seed: int | None = None
    #: Probe names whose full (times, values) series the worker returns
    #: in addition to the digests of every probe.
    probes: tuple[str, ...] = ()
    #: Optional inline scenario configuration (a JSON-able mapping).
    #: Generated specs (``repro.fuzz``) describe their whole scenario
    #: here instead of relying on a hand-written builder's defaults; the
    #: registry entry named by ``scenario`` must accept a ``config``
    #: keyword (e.g. ``fuzz.generic`` → the generic ATM builder).
    config: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if not self.scenario:
            raise ValueError("scenario must be non-empty")
        check_jsonable(dict(self.params), f"params of task {self.task_id!r}")
        object.__setattr__(self, "probes", tuple(self.probes))
        if self.config is not None:
            if not isinstance(self.config, Mapping):
                raise TypeError(
                    f"config of task {self.task_id!r} must be a mapping, "
                    f"got {type(self.config).__name__}")
            check_jsonable(dict(self.config),
                           f"config of task {self.task_id!r}")

    # ------------------------------------------------------------------
    # canonical / wire forms
    # ------------------------------------------------------------------
    def canonical(self) -> str:
        """Canonical JSON of everything that determines the outcome.

        ``task_id`` is excluded on purpose: it is a label, and two tasks
        with identical scenario/params/seed/probes must share a cache
        entry whatever they are called.  The ``config`` key appears only
        when an inline config is present, so registry-name specs keep
        their historical identity and a config-carrying spec can never
        collide with one (the JSON texts always differ).
        """
        material: dict[str, Any] = {
            "scenario": self.scenario,
            "params": dict(self.params),
            "seed": self.seed,
            "probes": list(self.probes),
        }
        if self.config is not None:
            material["config"] = dict(self.config)
        return canonical_json(material)

    def effective_params(self) -> dict[str, Any]:
        """Params as the worker calls the entry: inline config included.

        This is the mapping handed to ``param_deps`` hooks, so a
        params-derived fingerprint root (the chosen algorithm's module)
        can be read out of an inline config too.
        """
        merged = dict(self.params)
        if self.config is not None:
            merged["config"] = dict(self.config)
        return merged

    def to_dict(self) -> dict[str, Any]:
        data = {
            "task_id": self.task_id,
            "scenario": self.scenario,
            "params": dict(self.params),
            "seed": self.seed,
            "probes": list(self.probes),
        }
        if self.config is not None:
            data["config"] = dict(self.config)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskSpec":
        config = data.get("config")
        return cls(task_id=data["task_id"], scenario=data["scenario"],
                   params=dict(data.get("params", {})),
                   seed=data.get("seed"),
                   probes=tuple(data.get("probes", ())),
                   config=dict(config) if config is not None else None)

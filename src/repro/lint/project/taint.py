"""Determinism taint pass (DTT*).

The per-file DET rules catch a global ``random.*`` draw or a
``time.time()`` read *where it happens*.  What they cannot see is the
call chain: a scenario builder calling a helper two modules away that
quietly constructs an unseeded ``random.Random()`` or reads the wall
clock.  This pass walks the project call graph from every sim-domain
function and reports reachable nondeterminism sources with the chain
that reaches them:

* **DTT001** — unseeded randomness reachable from simulation code:
  ``random.Random()`` with no seed, ``random.SystemRandom``,
  ``os.urandom``, ``uuid.uuid4``, ``secrets.*``, or (across a call
  boundary, where DET001 cannot see it) a global ``random.*`` draw.
  Every random value reaching sim state must derive from
  :class:`repro.sim.rng.RngStreams` or an explicitly seeded
  ``random.Random``.
* **DTT002** — a wall-clock / environment read reachable from
  simulation code across a call boundary (the same-file case is
  DET002's).  Simulation time comes from ``Simulator.now``.

A source site that carries a ``lint: disable`` pragma for the local
rule (DET001/DET002) or for the taint rule is a reviewed measurement
boundary and does not taint its callers.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.project.domains import is_sim_module
from repro.lint.project.graph import FunctionInfo, ProjectGraph
from repro.lint.project.passes import ProjectPass, register
from repro.lint.rules.determinism import (GLOBAL_RANDOM_FUNCS,
                                          WALL_CLOCK_CALLS)

#: Randomness constructors/reads that are nondeterministic regardless
#: of call distance (no local DET rule covers them).
UNSEEDED_SOURCES = frozenset({
    "random.SystemRandom", "os.urandom", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice",
})


def _source_kind(target: str | None, call: ast.Call) -> str | None:
    """``"random"`` / ``"random-local"`` / ``"clock"`` for a source call.

    ``random-local``/``clock`` sources are already covered by DET001/
    DET002 in the file they live in; the taint pass only reports them
    across a call boundary.  Plain unseeded constructions
    (``random.Random()``, ``os.urandom``…) have no local rule and are
    reported at any distance.
    """
    if target is None:
        return None
    if target == "random.Random" and not call.args and not call.keywords:
        return "random"
    if target in UNSEEDED_SOURCES:
        return "random"
    if target.startswith("random.") \
            and target.split(".", 1)[1] in GLOBAL_RANDOM_FUNCS:
        return "random-local"
    if target in WALL_CLOCK_CALLS or target in ("os.environ", "os.getenv"):
        return "clock"
    return None


def _suppressed(graph: ProjectGraph, fn: FunctionInfo, line: int,
                ids: tuple[str, ...]) -> bool:
    supp = graph.modules[fn.module].suppressions
    lowered = {i.lower() for i in supp.line_ids.get(line, set())}
    lowered |= {i.lower() for i in supp.file_ids}
    return bool(lowered & {i.lower() for i in ids})


def direct_sources(graph: ProjectGraph, fn: FunctionInfo
                   ) -> list[tuple[str, str, ast.Call]]:
    """(kind, name, call node) for nondeterminism sources in ``fn``."""
    out: list[tuple[str, str, ast.Call]] = []
    for cs in fn.call_sites:
        kind = _source_kind(cs.target, cs.node)
        if kind is None:
            continue
        rule_ids = ("det001", "dtt001") if kind.startswith("random") \
            else ("det002", "dtt002")
        if _suppressed(graph, fn, cs.node.lineno, rule_ids):
            continue
        out.append((kind, cs.target or "", cs.node))
    return out


def _sim_roots(graph: ProjectGraph) -> list[str]:
    return sorted(q for q, f in graph.functions.items()
                  if is_sim_module(graph.index.package, f.module))


def _reachable_sources(graph: ProjectGraph, root: str):
    """BFS over call edges; yields (chain, fn, sources) per function."""
    parents: dict[str, str | None] = {root: None}
    queue = deque([root])
    while queue:
        qualname = queue.popleft()
        fn = graph.functions[qualname]
        sources = direct_sources(graph, fn)
        if sources:
            chain = [qualname]
            while parents[chain[-1]] is not None:
                chain.append(parents[chain[-1]])
            yield list(reversed(chain)), fn, sources
        for callee in graph.callees(qualname):
            if callee not in parents:
                parents[callee] = qualname
                queue.append(callee)


class _TaintPass(ProjectPass):
    """Shared traversal; subclasses pick the source family."""

    kinds: frozenset[str] = frozenset()
    #: Minimum chain length (in calls) per kind — sources a local DET
    #: rule already covers only count across a boundary.
    min_hops: dict[str, int] = {}

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        reported: set[tuple[str, int]] = set()
        for root in _sim_roots(graph):
            for chain, fn, sources in _reachable_sources(graph, root):
                hops = len(chain) - 1
                for kind, name, call in sources:
                    if kind not in self.kinds:
                        continue
                    if hops < self.min_hops.get(kind, 0):
                        continue
                    key = (fn.qualname, call.lineno)
                    if key in reported:
                        continue
                    reported.add(key)
                    yield self._make(graph, chain, fn, name, call)

    def _make(self, graph: ProjectGraph, chain: list[str],
              fn: FunctionInfo, name: str,
              call: ast.Call) -> Finding:
        raise NotImplementedError


@register
class RandomTaintRule(_TaintPass):
    """DTT001: unseeded randomness reachable from simulation code."""

    id = "DTT001"
    severity = Severity.ERROR
    summary = ("unseeded randomness (random.Random(), global random.*, "
               "urandom/uuid4/secrets) reachable from sim-domain code; "
               "derive from RngStreams")

    kinds = frozenset({"random", "random-local"})
    min_hops = {"random-local": 1}

    def _make(self, graph, chain, fn, name, call):
        via = " -> ".join(chain)
        what = ("random.Random() with no seed" if name == "random.Random"
                else f"{name}()")
        return self.finding(
            graph, fn.module, call,
            f"{what} is reachable from simulation code via {via}; every "
            "random value reaching sim state must derive from a named "
            "RngStreams stream or an explicitly seeded random.Random",
            symbol=fn.qualname)


@register
class ClockTaintRule(_TaintPass):
    """DTT002: wall-clock reads reachable from simulation code."""

    id = "DTT002"
    severity = Severity.ERROR
    summary = ("wall-clock/environment read reachable from sim-domain "
               "code across a call boundary; use Simulator.now / "
               "explicit parameters")

    kinds = frozenset({"clock"})
    min_hops = {"clock": 1}

    def _make(self, graph, chain, fn, name, call):
        via = " -> ".join(chain)
        return self.finding(
            graph, fn.module, call,
            f"{name}() is reachable from simulation code via {via}; "
            "simulated behaviour must take time from Simulator.now and "
            "configuration from explicit parameters",
            symbol=fn.qualname)

"""Concurrency-domain classification and race detection (CONC*).

The repository's code runs in four distinct concurrency domains:

* **sim** — the single-threaded discrete-event engine and everything
  the scenario builders call (``repro.sim``/``atm``/``tcp``/``core``/
  ``baselines``/``scenarios``);
* **asyncio** — the serve gateway's event loop (every ``async def``);
* **thread** — functions handed to a ``ThreadPoolExecutor`` /
  ``loop.run_in_executor`` / ``threading.Thread`` (the serve bridge);
* **fork** — functions shipped to a fork-based
  ``ProcessPoolExecutor`` / ``multiprocessing.Process`` (the exec
  pool's workers).

Seeds come from the executor hand-off sites themselves and propagate
along the call graph: a helper called from a coroutine runs on the
event loop, a helper called from a bridge function runs on the bridge
thread.  The hand-offs (``submit``/``run_in_executor`` arguments) are
*not* call edges — crossing them is exactly what moves work between
domains, which is the legitimate channel.

On top of the classification, three detectors:

* **CONC001** — module-global mutable state written in one domain and
  read/written in a disjoint domain with no lock in either party;
* **CONC002** — fork-after-thread: a thread-domain entry point that can
  reach creation of a fork-based pool (forking a multi-threaded
  process inherits locked locks in the child);
* **CONC003** — shared instance state: an attribute of one class
  written by a method running in one domain and accessed by a method
  running in a disjoint domain, with no lock in either.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.project.graph import FunctionInfo, ProjectGraph
from repro.lint.project.passes import ProjectPass, register

DOMAIN_SIM = "sim"
DOMAIN_ASYNC = "asyncio"
DOMAIN_THREAD = "thread"
DOMAIN_FORK = "fork"

#: ``repro.<subpackage>`` trees whose functions run inside the
#: single-threaded simulation engine.
SIM_SUBPACKAGES = frozenset({
    "sim", "atm", "tcp", "core", "baselines", "scenarios",
})

_THREAD_CTORS = ("ThreadPoolExecutor", "threading.Thread", "Thread")
_FORK_CTORS = ("ProcessPoolExecutor", "multiprocessing.Process",)


def _executor_domain(ctor: str | None) -> str | None:
    if ctor is None:
        return None
    if ctor.endswith(_THREAD_CTORS):
        return DOMAIN_THREAD
    if ctor.endswith(_FORK_CTORS):
        return DOMAIN_FORK
    return None


def is_sim_module(package: str, module: str) -> bool:
    """True when ``module`` lies in a simulation subpackage of
    ``package`` (:data:`SIM_SUBPACKAGES`)."""
    parts = module.split(".")
    return (parts[0] == package and len(parts) > 1
            and parts[1] in SIM_SUBPACKAGES)


def collect_domain_seeds(graph: ProjectGraph
                         ) -> dict[str, set[str]]:
    """Seed domains: ``qualname -> {domain, ...}`` before propagation.

    Returns only the seeded functions; :func:`classify_domains`
    propagates along call edges.
    """
    seeds: dict[str, set[str]] = {}

    def seed(qualname: str | None, domain: str) -> None:
        if qualname is not None and qualname in graph.functions:
            seeds.setdefault(qualname, set()).add(domain)

    for fn in graph.functions.values():
        if fn.is_async:
            seed(fn.qualname, DOMAIN_ASYNC)
        if is_sim_module(graph.index.package, fn.module):
            seed(fn.qualname, DOMAIN_SIM)
        for cs in fn.call_sites:
            call = cs.node
            func = call.func
            attr = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if attr in ("submit", "map") and isinstance(
                    func, ast.Attribute) and call.args:
                domain = _executor_domain(
                    graph.constructed_kind(fn, func.value))
                if domain is not None:
                    seed(graph.resolve_ref(fn, call.args[0]), domain)
            elif attr == "run_in_executor" and len(call.args) >= 2:
                domain = _executor_domain(
                    graph.constructed_kind(fn, call.args[0]))
                if domain is None:
                    # run_in_executor(None, fn) uses the loop's default
                    # ThreadPoolExecutor
                    domain = DOMAIN_THREAD
                seed(graph.resolve_ref(fn, call.args[1]), domain)
            else:
                domain = _executor_domain(cs.target)
                if domain is not None:
                    for kw in call.keywords:
                        if kw.arg == "target":
                            seed(graph.resolve_ref(fn, kw.value), domain)
    return seeds


def classify_domains(graph: ProjectGraph) -> dict[str, frozenset[str]]:
    """Propagated domain sets for every project function.

    A function carries every domain of every (transitive) caller:
    that is the set of execution contexts its body can actually run
    in.  Hand-off references (executor submissions) do not propagate —
    they are the sanctioned domain crossings.
    """
    seeds = collect_domain_seeds(graph)
    domains: dict[str, set[str]] = {q: set(d) for q, d in seeds.items()}
    queue = deque(seeds)
    while queue:
        qualname = queue.popleft()
        current = domains.get(qualname, set())
        for callee in graph.callees(qualname):
            have = domains.setdefault(callee, set())
            if not current <= have:
                have |= current
                queue.append(callee)
    return {q: frozenset(d) for q, d in domains.items()}


def _domains_of(domains: dict[str, frozenset[str]],
                fn: FunctionInfo) -> frozenset[str]:
    return domains.get(fn.qualname, frozenset())


def _fmt(domains: frozenset[str]) -> str:
    return "/".join(sorted(domains))


@register
class CrossDomainGlobalRule(ProjectPass):
    """CONC001: module-global mutable state crossing domains unlocked."""

    id = "CONC001"
    severity = Severity.ERROR
    summary = ("module-global mutable state written in one concurrency "
               "domain and accessed from a disjoint one without a "
               "lock/queue handoff")

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        domains = classify_domains(graph)
        for key, var in sorted(graph.globals.items()):
            writers = [f for f in graph.functions.values()
                       if key in f.global_writes]
            if not var.mutable and not writers:
                continue
            accessors = [f for f in graph.functions.values()
                         if key in f.global_reads
                         or key in f.global_writes]
            hit = self._cross_domain_pair(domains, writers, accessors)
            if hit is None:
                continue
            writer, accessor = hit
            yield self.finding(
                graph, var.module, var.lineno,
                f"{var.name} is written by {writer.name}() "
                f"[{_fmt(_domains_of(domains, writer))}] and accessed "
                f"by {accessor.name}() "
                f"[{_fmt(_domains_of(domains, accessor))}] — disjoint "
                "concurrency domains sharing mutable module state; "
                "hand the data across through a queue/executor result, "
                "or guard both sides with one lock",
                symbol=var.qualname)

    @staticmethod
    def _cross_domain_pair(domains, writers, accessors):
        for writer in writers:
            wd = _domains_of(domains, writer)
            if not wd or writer.uses_lock:
                continue
            for accessor in accessors:
                if accessor.qualname == writer.qualname:
                    continue
                ad = _domains_of(domains, accessor)
                if not ad or accessor.uses_lock:
                    continue
                if wd.isdisjoint(ad):
                    return writer, accessor
        return None


@register
class ForkAfterThreadRule(ProjectPass):
    """CONC002: a thread-domain entry that can create a fork pool."""

    id = "CONC002"
    severity = Severity.ERROR
    summary = ("thread-pool entry point can reach fork-based pool "
               "creation; forking a threaded process inherits locked "
               "locks in the child")

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        seeds = collect_domain_seeds(graph)
        thread_entries = sorted(
            q for q, d in seeds.items() if DOMAIN_THREAD in d)
        for entry in thread_entries:
            chain = self._find_fork_site(graph, entry)
            if chain is None:
                continue
            fn = graph.functions[entry]
            pretty = " -> ".join(chain)
            yield self.finding(
                graph, fn.module, fn.node,
                f"{fn.name}() runs on a thread-pool worker and can "
                f"reach fork-based pool creation via {pretty}; a fork "
                "taken while sibling threads hold locks deadlocks the "
                "child — keep pool creation on the main thread, or pin "
                "the in-thread path to jobs=1",
                symbol=entry)

    def _find_fork_site(self, graph: ProjectGraph,
                        entry: str) -> list[str] | None:
        parents: dict[str, str | None] = {entry: None}
        queue = deque([entry])
        while queue:
            qualname = queue.popleft()
            fn = graph.functions[qualname]
            if self._creates_fork_pool(fn):
                chain = [qualname]
                while parents[chain[-1]] is not None:
                    chain.append(parents[chain[-1]])
                return list(reversed(chain))
            for callee in graph.callees(qualname, include_refs=True):
                if callee not in parents:
                    parents[callee] = qualname
                    queue.append(callee)
        return None

    @staticmethod
    def _creates_fork_pool(fn: FunctionInfo) -> bool:
        for cs in fn.call_sites:
            if cs.target is None:
                continue
            if cs.target.endswith(_FORK_CTORS) or cs.target == "os.fork":
                return True
        return False


@register
class CrossDomainAttributeRule(ProjectPass):
    """CONC003: instance state shared across domains unlocked."""

    id = "CONC003"
    severity = Severity.ERROR
    summary = ("instance attribute written by a method in one "
               "concurrency domain and accessed by a method in a "
               "disjoint one without a lock")

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        domains = classify_domains(graph)
        for cls_qualname, cls in sorted(graph.classes.items()):
            methods = list(cls.methods.values())
            attrs = sorted({a for m in methods for a in m.attr_writes})
            for attr in attrs:
                writers = [m for m in methods if attr in m.attr_writes]
                accessors = [m for m in methods
                             if attr in m.attr_reads
                             or attr in m.attr_writes]
                hit = CrossDomainGlobalRule._cross_domain_pair(
                    domains, writers, accessors)
                if hit is None:
                    continue
                writer, accessor = hit
                yield self.finding(
                    graph, cls.module, cls.node,
                    f"self.{attr} is written by {writer.name}() "
                    f"[{_fmt(_domains_of(domains, writer))}] and "
                    f"accessed by {accessor.name}() "
                    f"[{_fmt(_domains_of(domains, accessor))}] — "
                    "disjoint concurrency domains sharing instance "
                    "state; route the update through the owning "
                    "domain's queue, or guard both methods with one "
                    "lock",
                    symbol=f"{cls_qualname}.{attr}")

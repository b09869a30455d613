"""Content-addressed task fingerprints.

A cached result may be reused only while *nothing that produced it*
changed: the spec itself (scenario, params, seed, probe set) and the
source of every module the task's code can reach.  The fingerprint
hashes both.

Source reachability is computed statically: starting from the scenario
entry's declared root modules (plus any params-derived roots, e.g. the
chosen algorithm's module), the walker parses each module's ``import``
statements and follows the ``repro``-internal ones.  Editing
``repro/scenarios/tcp.py`` therefore invalidates exactly the tasks whose
closure contains it — the TCP tasks — while the ATM tasks keep their
cache entries; editing ``repro/sim/engine.py`` (reachable from
everything) invalidates the world, as it must.

The executor/worker harness itself is *not* part of the closure; its
result-format compatibility is versioned explicitly through
``RESULT_VERSION`` (bump it when the payload layout or digesting
changes, and every cache entry ages out at once).  Code whose *output*
is cached with the result is not harness: the ATM and fluid entries
declare ``repro.obs.health`` as a root, so the equilibrium judge's
verdicts are recomputed after an edit to it.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
from pathlib import Path
from typing import Iterable, TYPE_CHECKING

from repro.exec.spec import TaskSpec, canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.registry import ScenarioEntry

#: Version of the worker result payload; part of every fingerprint so a
#: harness change that alters result layout/digesting retires stale
#: cache entries wholesale.
# v2: payloads carry the repro.obs.health report; v3: that report
# carries the equilibrium judge's verdicts, which fuzz campaigns read
RESULT_VERSION = 3


class SourceIndex:
    """Digests and import closures over one on-disk package tree.

    The default instance indexes the installed ``repro`` package; tests
    point it at copies or synthetic trees.  All lookups are memoised for
    the life of the index (one CLI invocation / one test), so a batch of
    specs pays for each module parse once.
    """

    def __init__(self, root: str | Path | None = None,
                 package: str = "repro"):
        if root is None:
            import repro

            root = Path(repro.__file__).parent
        self.root = Path(root)
        self.package = package
        self._digests: dict[str, str] = {}
        self._imports: dict[str, tuple[str, ...]] = {}
        self._closures: dict[tuple[str, ...], dict[str, str]] = {}

    # ------------------------------------------------------------------
    # module resolution
    # ------------------------------------------------------------------
    def module_path(self, modname: str) -> Path | None:
        """File backing ``modname``, or None when it is not ours."""
        parts = modname.split(".")
        if parts[0] != self.package:
            return None
        base = self.root.joinpath(*parts[1:]) if parts[1:] else self.root
        init = base / "__init__.py"
        if init.is_file():
            return init
        as_file = base.with_suffix(".py")
        if as_file.is_file():
            return as_file
        return None

    def is_package(self, modname: str) -> bool:
        path = self.module_path(modname)
        return path is not None and path.name == "__init__.py"

    def all_modules(self) -> tuple[str, ...]:
        """Every module under the indexed tree, sorted by dotted name.

        This is the enumeration side of the import-closure walker: the
        project-analysis tier (:mod:`repro.lint.project`) seeds its
        whole-program graph from it, and :meth:`dependents_closure`
        inverts :meth:`imports_of` over exactly this module set.
        """
        found: list[str] = []
        for path in sorted(self.root.rglob("*.py")):
            rel = path.relative_to(self.root)
            if "__pycache__" in rel.parts:
                continue
            parts = list(rel.parts[:-1])
            if rel.name != "__init__.py":
                parts.append(rel.name[:-3])
            found.append(".".join([self.package] + parts)
                         if parts else self.package)
        return tuple(sorted(found))

    def module_name_of(self, path: str | Path) -> str | None:
        """Dotted module name of a file under the root, or None."""
        try:
            rel = Path(path).resolve().relative_to(self.root.resolve())
        except ValueError:
            return None
        if rel.suffix != ".py":
            return None
        parts = list(rel.parts[:-1])
        if rel.name != "__init__.py":
            parts.append(rel.name[:-3])
        return ".".join([self.package] + parts) if parts else self.package

    def dependents_closure(self, roots: Iterable[str]) -> tuple[str, ...]:
        """Modules whose import closure contains any of ``roots``.

        The reverse of :meth:`closure`: editing module *m* can only
        change analysis results for modules that (transitively) import
        it, so an incremental run (``repro lint --changed``) re-examines
        exactly this set.  Roots themselves are included.
        """
        reverse: dict[str, set[str]] = {}
        for mod in self.all_modules():
            for imported in self.imports_of(mod):
                reverse.setdefault(imported, set()).add(mod)
        seen: set[str] = set()
        frontier = [r for r in set(roots)
                    if self.module_path(r) is not None]
        while frontier:
            mod = frontier.pop()
            if mod in seen:
                continue
            seen.add(mod)
            frontier.extend(m for m in reverse.get(mod, ())
                            if m not in seen)
        return tuple(sorted(seen))

    # ------------------------------------------------------------------
    # digests
    # ------------------------------------------------------------------
    def digest(self, modname: str) -> str:
        """sha256 of the module's source bytes."""
        if modname not in self._digests:
            path = self.module_path(modname)
            if path is None:
                raise KeyError(f"module {modname!r} not found under "
                               f"{self.root}")
            self._digests[modname] = hashlib.sha256(
                path.read_bytes()).hexdigest()
        return self._digests[modname]

    # ------------------------------------------------------------------
    # import graph
    # ------------------------------------------------------------------
    def imports_of(self, modname: str) -> tuple[str, ...]:
        """Package-internal modules ``modname`` imports (resolved)."""
        if modname not in self._imports:
            path = self.module_path(modname)
            if path is None:
                raise KeyError(f"module {modname!r} not found under "
                               f"{self.root}")
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            found: set[str] = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        self._add_internal(alias.name, found)
                elif isinstance(node, ast.ImportFrom):
                    base = self._from_base(modname, node)
                    if base is None:
                        continue
                    self._add_internal(base, found)
                    for alias in node.names:
                        sub = f"{base}.{alias.name}"
                        if self.module_path(sub) is not None:
                            found.add(sub)
            found.discard(modname)
            self._imports[modname] = tuple(sorted(found))
        return self._imports[modname]

    def _add_internal(self, modname: str, found: set[str]) -> None:
        if self.module_path(modname) is not None:
            found.add(modname)

    def resolve_import_from(self, modname: str,
                            node: ast.ImportFrom) -> str | None:
        """Public name resolution for a ``from ... import`` statement.

        Returns the absolute module the statement pulls from (relative
        levels anchored at ``modname``'s package), or None when the
        anchor escapes the tree.  Exposed for the project-analysis
        tier's alias maps, which must agree with the fingerprint
        walker's resolution exactly.
        """
        return self._from_base(modname, node)

    def _from_base(self, modname: str, node: ast.ImportFrom) -> str | None:
        """Absolute module a ``from ... import`` pulls from, or None."""
        if node.level == 0:
            return node.module
        # relative import: anchor at the containing package
        anchor = modname.split(".")
        if not self.is_package(modname):
            anchor = anchor[:-1]
        if node.level - 1 > 0:
            anchor = anchor[:len(anchor) - (node.level - 1)]
        if not anchor:
            return None
        return ".".join(anchor + node.module.split(".")) \
            if node.module else ".".join(anchor)

    def closure(self, roots: Iterable[str]) -> dict[str, str]:
        """``module -> source digest`` for the transitive closure."""
        key = tuple(sorted(set(roots)))
        if key not in self._closures:
            seen: set[str] = set()
            frontier = [r for r in key if self.module_path(r) is not None]
            missing = sorted(set(key) - set(frontier))
            if missing:
                raise KeyError(
                    f"fingerprint root module(s) not found: "
                    f"{', '.join(missing)}")
            while frontier:
                mod = frontier.pop()
                if mod in seen:
                    continue
                seen.add(mod)
                frontier.extend(m for m in self.imports_of(mod)
                                if m not in seen)
            self._closures[key] = {mod: self.digest(mod)
                                   for mod in sorted(seen)}
        return self._closures[key]


_DEFAULT_INDEX: SourceIndex | None = None


def default_index() -> SourceIndex:
    """Process-wide index over the installed ``repro`` package."""
    global _DEFAULT_INDEX
    if _DEFAULT_INDEX is None:
        _DEFAULT_INDEX = SourceIndex()
    return _DEFAULT_INDEX


def task_fingerprint(spec: TaskSpec, entry: "ScenarioEntry | None" = None,
                     index: SourceIndex | None = None) -> str:
    """Content address of one task: spec + entry source + dep sources."""
    from repro.exec.registry import get_scenario

    if entry is None:
        entry = get_scenario(spec.scenario)
    if index is None:
        index = default_index()
    roots = list(entry.deps)
    if entry.param_deps is not None:
        roots.extend(entry.param_deps(spec.effective_params()))
    material = {
        "result_version": RESULT_VERSION,
        "spec": spec.canonical(),
        "entry": inspect.getsource(entry.fn),
        "deps": index.closure(roots),
    }
    return hashlib.sha256(canonical_json(material).encode()).hexdigest()

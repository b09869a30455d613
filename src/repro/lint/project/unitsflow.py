"""Interprocedural unit/dimension inference (UNI*).

The syntactic UNT rules see one expression: ``delay_ms + interval_s``.
This pass propagates the repository's suffix-declared units
(:data:`repro.lint.rules.units.SUFFIX_UNITS`) through assignments,
returns, and call sites:

* a parameter named ``delay_s`` *declares* seconds; passing an
  argument whose inferred unit is milliseconds is **UNI001**;
* a function named ``*_ms`` declares its return unit; returning a
  value inferred as seconds — or assigning a known-unit call result to
  a variable suffixed with a different unit — is **UNI002**.

Inference is deliberately conservative: a value with no suffix, no
annotated API entry, and no propagated unit is *unknown* and never
mismatches.  Multiplication/division clear the unit (``rate * time``
is how conversions are legitimately written); only same-unit
addition/subtraction preserves it.

``API_UNITS`` carries the lightweight annotations for the core
conversion APIs whose parameter/return units the suffix convention
already documents (``repro.sim.units``, the MACR/params surfaces in
``repro.core`` and ``repro.atm``); everything else is inferred.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.project.graph import FunctionInfo, ProjectGraph
from repro.lint.project.passes import ProjectPass, register
from repro.lint.rules.units import ORDERED_SUFFIXES, SUFFIX_UNITS

#: Annotated units for project APIs: qualname -> (param units, return
#: unit); a None entry means "no declared unit".  Parameter names carry
#: most units already — this table covers the ones that do not.
API_UNITS: dict[str, tuple[dict[str, str], str | None]] = {
    "repro.sim.units.mbps_to_cells_per_sec": ({"rate_mbps": "Mb/s"},
                                              "cells/s"),
    "repro.sim.units.cells_per_sec_to_mbps": ({"rate_cps": "cells/s"},
                                              "Mb/s"),
    "repro.sim.units.cell_time": ({"rate_mbps": "Mb/s"}, "s"),
    "repro.sim.units.packet_time": ({"size_bytes": "bytes",
                                     "rate_mbps": "Mb/s"}, "s"),
    "repro.sim.units.packets_per_sec": ({"rate_mbps": "Mb/s",
                                         "size_bytes": "bytes"},
                                        "packets/s"),
    # the fluid tier's per-Δt rate<->mass conversions
    "repro.fluid.stepper.rate_cells_per_interval": (
        {"rate_mbps": "Mb/s", "interval_s": "s"}, "cells"),
    "repro.fluid.stepper.cells_to_mbps": (
        {"cells": "cells", "interval_s": "s"}, "Mb/s"),
}


def unit_of_identifier(name: str) -> str | None:
    """Unit declared by an identifier's suffix, if any."""
    for suffix in ORDERED_SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return SUFFIX_UNITS[suffix]
    return None


class _Inference:
    """Unit environments and return-unit memoisation over one graph."""

    def __init__(self, graph: ProjectGraph):
        self.graph = graph
        self._returns: dict[str, str | None] = {}
        self._in_progress: set[str] = set()

    # ------------------------------------------------------------------
    def return_unit(self, qualname: str) -> str | None:
        """Declared or inferred return unit of a project function."""
        if qualname in self._returns:
            return self._returns[qualname]
        if qualname in self._in_progress:      # recursion: give up
            return None
        unit: str | None = None
        if qualname in API_UNITS:
            unit = API_UNITS[qualname][1]
        else:
            fn = self.graph.functions.get(qualname)
            if fn is not None:
                unit = unit_of_identifier(fn.name)
                if unit is None:
                    self._in_progress.add(qualname)
                    try:
                        unit = self._infer_return(fn)
                    finally:
                        self._in_progress.discard(qualname)
        self._returns[qualname] = unit
        return unit

    def _infer_return(self, fn: FunctionInfo) -> str | None:
        env = self._param_env(fn)
        units: set[str] = set()
        saw_return = False
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                saw_return = True
                unit = self.expr_unit(fn, node.value, env)
                if unit is None:
                    return None
                units.add(unit)
        return units.pop() if saw_return and len(units) == 1 else None

    def param_units(self, qualname: str) -> dict[str, str]:
        """Declared units of a project function's parameters."""
        declared: dict[str, str] = {}
        fn = self.graph.functions.get(qualname)
        if fn is not None:
            for name in fn.params() + fn.keyword_params():
                unit = unit_of_identifier(name)
                if unit is not None:
                    declared[name] = unit
        if qualname in API_UNITS:
            declared.update(API_UNITS[qualname][0])
        return declared

    def _param_env(self, fn: FunctionInfo) -> dict[str, str]:
        return {name: unit for name in fn.params() + fn.keyword_params()
                if (unit := unit_of_identifier(name)) is not None}

    # ------------------------------------------------------------------
    def expr_unit(self, fn: FunctionInfo, node: ast.AST,
                  env: dict[str, str]) -> str | None:
        """Inferred unit of one expression, or None when unknown."""
        if isinstance(node, ast.Name):
            return env.get(node.id, unit_of_identifier(node.id))
        if isinstance(node, ast.Attribute):
            return unit_of_identifier(node.attr)
        if isinstance(node, ast.Call):
            target = self.graph.resolve_call_target(fn, node)
            if target is None:
                return None
            if target in API_UNITS:
                return API_UNITS[target][1]
            if target in self.graph.functions:
                return self.return_unit(target)
            return None
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)):
            left = self.expr_unit(fn, node.left, env)
            right = self.expr_unit(fn, node.right, env)
            return left if left is not None and left == right else None
        if isinstance(node, ast.IfExp):
            body = self.expr_unit(fn, node.body, env)
            orelse = self.expr_unit(fn, node.orelse, env)
            return body if body is not None and body == orelse else None
        if isinstance(node, ast.UnaryOp):
            return self.expr_unit(fn, node.operand, env)
        return None

    # ------------------------------------------------------------------
    def local_env(self, fn: FunctionInfo) -> dict[str, str]:
        """Units of locals after propagating through assignments.

        A single forward pass in source order: later rebindings win,
        which matches how straight-line conversion code reads.
        """
        env = self._param_env(fn)
        for stmt in self._statements(fn.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                unit = self.expr_unit(fn, stmt.value, env)
                declared = unit_of_identifier(name)
                env[name] = unit if unit is not None else declared
                if env[name] is None:
                    env.pop(name)
        return env

    @staticmethod
    def _statements(node: ast.AST):
        """Statements in source order, skipping nested functions."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue
            yield child
            yield from _Inference._statements(child)


@register
class CallUnitMismatchRule(ProjectPass):
    """UNI001: argument unit contradicts the parameter's declared unit."""

    id = "UNI001"
    severity = Severity.ERROR
    summary = ("call argument's inferred unit contradicts the "
               "parameter's declared unit suffix/annotation")

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        infer = _Inference(graph)
        for fn in sorted(graph.functions.values(),
                         key=lambda f: f.qualname):
            env = infer.local_env(fn)
            for cs in fn.call_sites:
                if cs.target not in graph.functions \
                        and cs.target not in API_UNITS:
                    continue
                declared = infer.param_units(cs.target)
                if not declared:
                    continue
                target_fn = graph.functions.get(cs.target)
                for param, arg in _map_args(cs.node, target_fn):
                    want = declared.get(param)
                    if want is None:
                        continue
                    got = infer.expr_unit(fn, arg, env)
                    if got is not None and got != want:
                        yield self.finding(
                            graph, fn.module, arg,
                            f"argument for {param!r} of "
                            f"{cs.target}() carries {got} but the "
                            f"parameter declares {want}; convert via a "
                            "sim.units helper at the call site",
                            symbol=fn.qualname)


@register
class ReturnUnitMismatchRule(ProjectPass):
    """UNI002: returned/assigned value contradicts a declared unit."""

    id = "UNI002"
    severity = Severity.ERROR
    summary = ("return value or assignment target unit contradicts the "
               "declared suffix (function name or variable name)")

    def run(self, graph: ProjectGraph) -> Iterator[Finding]:
        infer = _Inference(graph)
        for fn in sorted(graph.functions.values(),
                         key=lambda f: f.qualname):
            declared_return = unit_of_identifier(fn.name)
            env = infer.local_env(fn)
            for stmt in _Inference._statements(fn.node):
                if isinstance(stmt, ast.Return) and stmt.value is not None \
                        and declared_return is not None:
                    got = infer.expr_unit(fn, stmt.value, env)
                    if got is not None and got != declared_return:
                        yield self.finding(
                            graph, fn.module, stmt,
                            f"{fn.name}() declares {declared_return} by "
                            f"its suffix but returns a value in {got}",
                            symbol=fn.qualname)
                elif isinstance(stmt, ast.Assign) \
                        and len(stmt.targets) == 1 \
                        and isinstance(stmt.targets[0], ast.Name):
                    name = stmt.targets[0].id
                    want = unit_of_identifier(name)
                    if want is None:
                        continue
                    got = infer.expr_unit(fn, stmt.value, env)
                    if got is not None and got != want:
                        yield self.finding(
                            graph, fn.module, stmt,
                            f"{name} declares {want} by its suffix but "
                            f"is assigned a value in {got}",
                            symbol=fn.qualname)


def _map_args(call: ast.Call, fn: FunctionInfo | None
              ) -> list[tuple[str, ast.AST]]:
    """(parameter name, argument node) pairs for one call site."""
    pairs: list[tuple[str, ast.AST]] = []
    params = fn.params() if fn is not None else []
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i < len(params):
            pairs.append((params[i], arg))
    for kw in call.keywords:
        if kw.arg is not None:
            pairs.append((kw.arg, kw.value))
    return pairs

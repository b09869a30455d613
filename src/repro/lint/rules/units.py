"""Unit-safety rules (UNT*).

The repository's unit conventions (seconds, Mb/s, cells — see
:mod:`repro.sim.units`) are carried by identifier suffixes like
``_mbps``/``_s``/``_cells``.  Mixing suffixes in one sum, or handing the
scheduler a number that can only be milliseconds, is exactly the
factor-of-1000 class of bug the OSU/ERICA comparison literature warns
makes results incomparable.  These rules catch both at the AST level.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext, last_attr
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: Identifier suffix → unit it declares.  Longest suffix wins, so
#: ``_mbps`` is Mb/s, not "ends with s".
SUFFIX_UNITS = {
    "_mbps": "Mb/s",
    "_kbps": "kb/s",
    "_bps": "b/s",
    "_cps": "cells/s",
    "_pps": "packets/s",
    "_ns": "ns",
    "_us": "us",
    "_ms": "ms",
    "_s": "s",
    "_cells": "cells",
    "_bytes": "bytes",
    "_bits": "bits",
    "_packets": "packets",
    "_pkts": "packets",
}

#: Units that may never meet in an addition/subtraction/comparison.
#: (Same-unit arithmetic is fine; conversions go through sim.units.)
ORDERED_SUFFIXES = sorted(SUFFIX_UNITS, key=len, reverse=True)

#: Threshold above which a literal delay/time argument cannot plausibly
#: be seconds of simulation time in this repository (runs are < 100 s);
#: it is almost certainly a millisecond value that skipped conversion.
MS_SUSPECT_THRESHOLD = 1e3


def unit_of(node: ast.AST) -> str | None:
    """Unit declared by a Name/Attribute identifier suffix, if any."""
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    else:
        return None
    for suffix in ORDERED_SUFFIXES:
        if ident.endswith(suffix) and len(ident) > len(suffix):
            return SUFFIX_UNITS[suffix]
    return None


@register
class MixedUnitArithmeticRule(Rule):
    """UNT001: adding/subtracting/comparing values of different units.

    ``delay_ms + interval_s`` type-checks and silently produces garbage;
    every cross-unit combination must go through a :mod:`repro.sim.units`
    helper so the conversion factor is written (and audited) once.
    """

    id = "UNT001"
    severity = Severity.ERROR
    summary = ("arithmetic/comparison mixes different unit suffixes; "
               "convert via sim.units first")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_repro

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.BinOp)
                    and isinstance(node.op, (ast.Add, ast.Sub))):
                pairs = [(node.left, node.right)]
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                pairs = list(zip(operands, operands[1:]))
            else:
                continue
            for left, right in pairs:
                lu, ru = unit_of(left), unit_of(right)
                if lu is not None and ru is not None and lu != ru:
                    yield self.finding(
                        ctx, node,
                        f"combines a value in {lu} with a value in {ru} "
                        "without converting; use a sim.units helper")
                    break


@register
class MillisecondLiteralRule(Rule):
    """UNT002: a schedule() delay literal that looks like milliseconds.

    Engine times are seconds; this repository's simulations run for
    fractions of a second to a few tens of seconds.  A literal delay of
    5000 is a millisecond value that missed its ``/1e3``.
    """

    id = "UNT002"
    severity = Severity.WARNING
    summary = ("numeric literal > 1e3 passed to schedule()/schedule_at(); "
               "engine times are seconds, not milliseconds")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.schedules_events

    @staticmethod
    def _literal_value(node: ast.AST) -> float | None:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)):
            return float(node.value)
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            method = last_attr(node)
            if method not in ("schedule", "schedule_at"):
                continue
            candidates: list[tuple[str, ast.AST]] = []
            if node.args:
                slot = "delay" if method == "schedule" else "time"
                candidates.append((slot, node.args[0]))
            for kw in node.keywords:
                if kw.arg in ("delay", "time", "at", "until"):
                    candidates.append((kw.arg, kw.value))
            for slot, arg in candidates:
                value = self._literal_value(arg)
                if value is not None and abs(value) > MS_SUSPECT_THRESHOLD:
                    yield self.finding(
                        ctx, arg,
                        f"{slot}={value:g} is implausible as seconds of "
                        "simulation time — it looks like milliseconds; "
                        "engine times are seconds (sim.units)")

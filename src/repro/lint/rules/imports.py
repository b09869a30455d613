"""Import-policy rules: "modules of package X may not import Y", as data.

Some of the program's guarantees are import facts.  The fluid tier's
cost model holds only while its core never reaches the event kernel or a
packet stack; the fuzzer's replay holds only while its core never
reaches global randomness or a clock.  Each such boundary is one
:class:`ImportPolicy` row, and one rule class checks every row:

* ``banned`` — modules the package may not import; each entry also bans
  its submodules;
* ``allowed`` — exact modules carved out of the banned ones;
* ``allowed_names`` — names a ``from M import ...`` may take from a
  banned module M (any other name, and ``import M`` itself, stay
  banned);
* ``exempt_stems`` — file stems (module basenames) of the package that
  the policy does not govern.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Iterator, Mapping

from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register


@dataclass(frozen=True)
class ImportPolicy:
    """One "package X may not import Y" boundary."""

    #: Subpackage of ``repro`` whose modules the policy governs.
    package: str
    #: Banned modules; each also bans its submodules.
    banned: tuple[str, ...]
    #: Why the boundary exists; completes every finding's message.
    why: str
    allowed: frozenset[str] = frozenset()
    allowed_names: Mapping[str, frozenset[str]] = field(default_factory=dict)
    exempt_stems: frozenset[str] = frozenset()

    def bans(self, module: str) -> bool:
        if module in self.allowed:
            return False
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in self.banned)


class ImportPolicyRule(Rule):
    """Flags every import its :attr:`policy` bans."""

    severity = Severity.ERROR
    policy: ImportPolicy

    def applies_to(self, ctx: FileContext) -> bool:
        return (ctx.in_subpackage(self.policy.package)
                and PurePath(ctx.path).stem not in self.policy.exempt_stems)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        policy = self.policy
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if policy.bans(alias.name):
                        yield self._flag(ctx, node,
                                         f"import of {alias.name!r}")
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and policy.bans(node.module)):
                names = policy.allowed_names.get(node.module)
                if names is None:
                    yield self._flag(ctx, node, f"import of {node.module!r}")
                    continue
                bad = sorted(alias.name for alias in node.names
                             if alias.name not in names)
                if bad:
                    yield self._flag(
                        ctx, node,
                        f"from {node.module} import {', '.join(bad)}")

    def _flag(self, ctx: FileContext, node: ast.AST, what: str) -> Finding:
        return self.finding(ctx, node, f"{what} {self.policy.why}")


@register
class FluidLayeringRule(ImportPolicyRule):
    """FLD001: core fluid module imports the event kernel or packet stack.

    The fluid tier's value is its cost model: rate vectors stepped per
    Δt, no event kernel, no per-cell work (docs/FLUID.md).  Its core
    (``repro/fluid`` minus the ``hybrid``/``cli``/``validate``/``bench``
    bridges) may reach parameter records and the scalar ``repro.sim``
    submodules only.
    """

    id = "FLD001"
    summary = ("core fluid module imports the event kernel or a packet "
               "stack; the fluid tier must stay rate-only")
    policy = ImportPolicy(
        package="fluid",
        banned=("repro.sim", "repro.atm", "repro.tcp"),
        allowed=frozenset({"repro.atm.params", "repro.sim.probe",
                           "repro.sim.rng", "repro.sim.units"}),
        exempt_stems=frozenset({"hybrid", "cli", "validate", "bench"}),
        why=("pulls event-kernel or packet-stack machinery onto the fluid "
             "tier's fixed-cost path; keep core fluid modules on rate "
             "vectors (repro.atm.params and the scalar repro.sim "
             "submodules are the allowed exceptions)"))


@register
class FuzzDeterminismRule(ImportPolicyRule):
    """FZZ001: core fuzz module imports global randomness or a clock.

    One integer seed must pin a fuzz batch forever (docs/FUZZING.md), so
    ``repro/fuzz`` minus its ``cli`` driver draws only from injected
    ``Random``/``RngStreams`` handles: ``from random import Random``
    names the type, and every other route to randomness, the clock or
    OS entropy is banned.
    """

    id = "FZZ001"
    summary = ("core fuzz module imports global randomness or a clock; "
               "draws must come from injected Random/RngStreams handles")
    policy = ImportPolicy(
        package="fuzz",
        banned=("random", "time", "datetime", "uuid", "secrets"),
        allowed_names={"random": frozenset({"Random"})},
        exempt_stems=frozenset({"cli"}),
        why=("reaches state no seed pins (global randomness, the wall "
             "clock, or OS entropy); corpus replay and shrink stability "
             "require every draw to flow from an injected "
             "Random/RngStreams handle"))

"""REP005 — fidelity gate hygiene.

``repro.sim.fidelity``'s mode selects between storage-layout twins (the
columnar and radix page-table stores) that must be *semantics-
preserving*: docs/COSTMODEL.md requires each gated branch to have a
detailed twin producing identical virtual end times, counters, and
traces, and the differential tests flip the mode to compare them. Two
structural properties make that auditable:

* a gated ``if`` must have an ``else`` (the twin), or its body must
  leave the function (``return``/``raise``/``continue``/``break``)
  so the fall-through code *is* the twin;
* gates must not nest: a gate inside another gate cannot be isolated
  by a single mode flip.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Severity
from repro.lint.visitor import Rule

#: The switchboard object a gate reads: the construction-time mode.
GATE_QUALNAME = "repro.sim.fidelity.FIDELITY"

_TERMINAL = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def mentions_fidelity(node: ast.AST, ctx) -> bool:
    """True when ``node``'s subtree reads the FIDELITY mode."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            resolved = ctx.resolve(sub)
            if resolved is not None and resolved.startswith(GATE_QUALNAME):
                return True
    return False


class FidelityGateRule(Rule):
    """FIDELITY-gated if without a detailed twin, or nested under a gate."""

    code = "REP005"
    name = "fidelity-gate"
    severity = Severity.ERROR

    def visit_If(self, node: ast.If, ctx) -> None:
        if not mentions_fidelity(node.test, ctx):
            return
        for ancestor in ctx.ancestors:
            if isinstance(ancestor, ast.If) \
                    and mentions_fidelity(ancestor.test, ctx):
                ctx.report(
                    self, node,
                    "fidelity gate nested under another fidelity gate — "
                    "a single mode flip cannot isolate it",
                )
                return
        if node.orelse:
            return
        if isinstance(node.body[-1], _TERMINAL):
            return  # fall-through code is the detailed twin
        ctx.report(
            self, node,
            "fidelity gate has no detailed twin — add an else branch, or "
            "end the gated body with return/raise so the fall-through is "
            "the twin",
        )

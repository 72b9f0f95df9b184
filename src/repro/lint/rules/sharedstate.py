"""REP110-REP113: the parallelism-safety audit.

ROADMAP item 1 executes node engines in parallel host processes with a
deterministic merge. Any state that is *process-wide* rather than
*per-Engine* — module globals, class attributes, singletons, caches —
is a cross-engine alias waiting to become a race (or, worse, a silent
divergence the merge cannot reconcile). These rules inventory exactly
that state and every function-code write to it, so the sharding
refactor starts from a machine-verified clean slate.

The construction-time fidelity switchboard
(:data:`repro.lint.sources.STATE_BOUNDARY`) is the sanctioned
exception: it is read-only after configuration and is re-applied per
worker process by design.
"""

from __future__ import annotations

from repro.lint.findings import Severity
from repro.lint.sources import STATE_BOUNDARY
from repro.lint.visitor import ProjectRule


def _iter_writes(project):
    """Every recorded state write outside the sanctioned switchboard,
    classified against the project: yields ``(file index, write, kind,
    key, class name)`` with ``kind`` ``None`` for unresolved targets."""
    for path in sorted(project.files):
        if project.in_boundary(path, STATE_BOUNDARY):
            continue
        idx = project.files[path]
        for w in idx.writes:
            target = w.target
            if w.kind == "attr-store":
                target = target.rpartition(".")[0]
            owner = project.state_owner(target, idx)
            if owner is None:
                yield idx, w, None, "", ""
            else:
                yield idx, w, owner[0], owner[1], owner[2]


class ModuleStateRule(ProjectRule):
    """Module-level mutable state written from function code."""

    code = "REP110"
    name = "module-state"
    severity = Severity.WARNING

    def check(self, project, reporter) -> None:
        for idx, w, kind, key, _cls in _iter_writes(project):
            if w.kind == "global-rebind":
                reporter.report(
                    self, idx.path, w.line, w.col,
                    f"{w.scope} rebinds module global '{w.target}' — "
                    "process-wide state aliases across node engines; "
                    "key it per-Engine",
                )
            elif kind == "mutable" and w.kind in ("mutate", "subscript"):
                reporter.report(
                    self, idx.path, w.line, w.col,
                    f"{w.scope} writes module-level mutable '{key}' "
                    f"({w.display}) — shared across every engine in "
                    "this process; move it onto the Engine",
                )


class ClassAttrRule(ProjectRule):
    """Class-attribute mutation shared by every instance."""

    code = "REP111"
    name = "class-attr"
    severity = Severity.WARNING

    def check(self, project, reporter) -> None:
        for idx, w, _kind, _key, _cls in _iter_writes(project):
            if w.kind != "class-attr":
                continue
            reporter.report(
                self, idx.path, w.line, w.col,
                f"{w.scope} assigns class attribute {w.display} — "
                "writes through the class alias across every instance "
                "(and every engine); use an instance attribute",
            )
        for qual in sorted(project.classes):
            info = project.classes[qual]
            if project.in_boundary(info.path, STATE_BOUNDARY):
                continue
            for attr, line, col, display in info.self_mutations:
                if not project.mro_attr(qual, attr, "class_mutables"):
                    continue
                if project.mro_attr(qual, attr, "instance_assigned"):
                    continue  # shadowed per-instance somewhere in the MRO
                reporter.report(
                    self, info.path, line, col,
                    f"{display} mutates class-level mutable "
                    f"'{attr}' of {qual} — every instance shares one "
                    "container; initialize it per-instance in __init__",
                )


class SingletonRule(ProjectRule):
    """Process-wide singletons and caches not keyed per-Engine."""

    code = "REP112"
    name = "singleton-state"
    severity = Severity.WARNING

    def check(self, project, reporter) -> None:
        for qual in sorted(project.functions):
            fn = project.functions[qual]
            if not fn.cached:
                continue
            if project.in_boundary(fn.path, STATE_BOUNDARY):
                continue
            reporter.report(
                self, fn.path, fn.cached, 0,
                f"functools cache on {qual} is a process-wide memo "
                "table — entries computed by one engine leak into "
                "another; key the cache per-Engine or drop it",
            )
        for idx, w, kind, key, cls in _iter_writes(project):
            if kind != "singleton":
                continue
            if w.kind in ("attr-store", "mutate", "subscript"):
                reporter.report(
                    self, idx.path, w.line, w.col,
                    f"{w.scope} mutates module singleton '{key}' "
                    f"({cls}) via {w.display} — singleton state is "
                    "process-wide; key it per-Engine or configure it "
                    "once at construction",
                )


class LoopCaptureRule(ProjectRule):
    """Closure captures a loop variable by reference (late binding)."""

    code = "REP113"
    name = "loop-capture"
    severity = Severity.WARNING

    def check(self, project, reporter) -> None:
        for path in sorted(project.files):
            idx = project.files[path]
            for line, col, var, display in idx.captures:
                reporter.report(
                    self, path, line, col,
                    f"{display} captures loop variable '{var}' by "
                    "reference — all iterations share the final value; "
                    f"bind it as a default ({var}={var}) so each "
                    "closure owns its engine's copy",
                )

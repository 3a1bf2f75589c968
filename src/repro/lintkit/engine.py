"""Lint engine: walk a source tree, run checkers, apply inline waivers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from repro.lintkit.checkers import ALL_CHECKERS, checker_index
from repro.lintkit.checkers.base import Checker
from repro.lintkit.findings import (
    WAIVER_ID,
    Finding,
    Waiver,
    parse_waivers,
    source_line,
)
from repro.lintkit.model import ModuleSource, Project

__all__ = [
    "FlowStats",
    "LintReport",
    "ModuleSource",
    "Project",
    "default_package_root",
    "load_project",
    "run_lint",
]


@dataclass
class FlowStats:
    """Call-graph summary of a lint run that built the graph."""

    functions: int = 0
    edges: int = 0

    def to_dict(self) -> dict:
        return {"functions": self.functions, "edges": self.edges}


def default_package_root() -> Path:
    """The installed ``repro`` package directory (the default lint root)."""
    import repro

    return Path(repro.__file__).parent


@dataclass
class LintReport:
    """Outcome of one lint run.

    Attributes:
        root: the linted tree.
        findings: live findings that fail the gate (sorted).
        suppressed: findings waived inline via ``# lint-ok:`` comments.
        files_checked: number of parsed source files.
        flow: call-graph stats when a flow checker ran, else ``None``.
    """

    root: Path
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    flow: Optional[FlowStats] = None

    @property
    def ok(self) -> bool:
        """Whether the gate passes (no live findings)."""
        return not self.findings

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) "
            f"({len(self.suppressed)} waived inline, "
            f"{self.files_checked} files)"
        )
        if self.flow is not None:
            lines.append(
                f"flow: {self.flow.functions} functions, "
                f"{self.flow.edges} call edges"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "version": 2,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "counts": {
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
            },
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "flow": self.flow.to_dict() if self.flow is not None else None,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def load_project(root: Path) -> Project:
    """Parse every ``.py`` file under ``root`` (sorted, deterministic)."""
    root = Path(root)
    modules = [
        ModuleSource.parse(path, root)
        for path in sorted(root.rglob("*.py"))
    ]
    return Project(root=root, modules=modules)


def run_lint(
    root: Optional[Path] = None,
    checkers: Sequence[Checker] = ALL_CHECKERS,
) -> LintReport:
    """Lint the tree under ``root`` and return a :class:`LintReport`.

    Args:
        root: directory to lint; defaults to the installed ``repro``
            package so ``repro lint`` checks itself wherever it runs.
        checkers: checker instances to run (defaults to all).

    A finding on a line whose ``# lint-ok:`` comment names its checker is
    waived.  The waivers are judged too, as ``waiver`` findings: one
    that names no registered checker, gives no reason, or (when all its
    checkers ran) waives no finding.  The project call graph is built
    only if a flow checker runs.
    """
    if root is None:
        root = default_package_root()
    project = load_project(root)
    known = checker_index()
    waivers = {m.relpath: parse_waivers(m.text, known)
               for m in project.modules}

    raw: List[Finding] = []
    for checker in checkers:
        raw.extend(checker.run(project))
    flow_stats: Optional[FlowStats] = None
    if project.flow is not None:
        flow_stats = FlowStats(functions=len(project.flow.graph.functions),
                               edges=len(project.flow.graph.edges))

    findings: List[Finding] = []
    suppressed: List[Finding] = []
    used: Set[Tuple[str, int]] = set()
    for finding in raw:
        waiver = waivers[finding.path].get(finding.line)
        if waiver is not None and finding.checker in waiver.ids:
            suppressed.append(finding)
            used.add((finding.path, finding.line))
        else:
            findings.append(finding)

    ran = {checker.id for checker in checkers}
    for module in project.modules:
        for waiver in waivers[module.relpath].values():
            problem = _waiver_problem(waiver, ran,
                                      (module.relpath, waiver.line) in used)
            if problem is not None:
                findings.append(Finding(
                    checker=WAIVER_ID, path=module.relpath, line=waiver.line,
                    col=waiver.col, message=problem,
                    snippet=source_line(module.lines, waiver.line)))
    return LintReport(
        root=Path(root),
        findings=sorted(findings, key=Finding.sort_key),
        suppressed=sorted(suppressed, key=Finding.sort_key),
        files_checked=len(project.modules),
        flow=flow_stats,
    )


def _waiver_problem(waiver: Waiver, ran: Set[str],
                    used: bool) -> Optional[str]:
    """Why ``waiver`` is itself a finding, or ``None`` if it is sound."""
    if not waiver.ids:
        named = waiver.reason.split()[0] if waiver.reason else ""
        return f"waiver names no registered checker (got {named!r})"
    if not waiver.reason:
        return f"waiver for {', '.join(waiver.ids)} gives no reason"
    if not used and ran.issuperset(waiver.ids):
        return (f"waiver for {', '.join(waiver.ids)} waives no finding "
                f"on its line")
    return None

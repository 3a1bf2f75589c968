"""Lint engine: walk a source tree, run checkers, apply the baseline."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.lintkit.baseline import Baseline
from repro.lintkit.checkers import ALL_CHECKERS
from repro.lintkit.checkers.base import Checker
from repro.lintkit.findings import (
    Finding,
    fingerprint_findings,
    source_line,
    suppression_ids,
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
        findings: live findings that fail the gate (fingerprinted, sorted).
        baselined: findings suppressed by the baseline file.
        suppressed: findings waived inline via ``# lint-ok:`` comments.
        stale_baseline: baseline fingerprints matching nothing anymore.
        files_checked: number of parsed source files.
        flow: call-graph stats when a flow checker ran, else ``None``.
    """

    root: Path
    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    stale_baseline: List[str] = field(default_factory=list)
    files_checked: int = 0
    flow: Optional[FlowStats] = None

    @property
    def ok(self) -> bool:
        """Whether the gate passes (no non-baselined findings)."""
        return not self.findings

    def render_text(self) -> str:
        lines = []
        for finding in self.findings:
            lines.append(finding.render())
        lines.append(
            f"{len(self.findings)} finding(s) "
            f"({len(self.baselined)} baselined, "
            f"{len(self.suppressed)} waived inline, "
            f"{self.files_checked} files)"
        )
        if self.flow is not None:
            lines.append(
                f"flow: {self.flow.functions} functions, "
                f"{self.flow.edges} call edges"
            )
        if self.stale_baseline:
            lines.append(
                f"note: {len(self.stale_baseline)} stale baseline "
                f"entr{'y' if len(self.stale_baseline) == 1 else 'ies'} "
                f"can be pruned"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "counts": {
                "findings": len(self.findings),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
                "stale_baseline": len(self.stale_baseline),
            },
            "findings": [f.to_dict() for f in self.findings],
            "baselined": [f.to_dict() for f in self.baselined],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "stale_baseline": list(self.stale_baseline),
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
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Lint the tree under ``root`` and return a :class:`LintReport`.

    Args:
        root: directory to lint; defaults to the installed ``repro``
            package so ``repro lint`` checks itself wherever it runs.
        checkers: checker instances to run (defaults to all).
        baseline: grandfathered findings; ``None`` means empty.

    The project call graph is built only if a flow checker runs.
    """
    if root is None:
        root = default_package_root()
    project = load_project(root)
    module_lines = {m.relpath: m.lines for m in project.modules}

    raw: List[Finding] = []
    for checker in checkers:
        raw.extend(checker.run(project))
    all_findings = fingerprint_findings(raw)
    flow_stats: Optional[FlowStats] = None
    if project.flow is not None:
        flow_stats = FlowStats(functions=len(project.flow.graph.functions),
                               edges=len(project.flow.graph.edges))

    findings: List[Finding] = []
    baselined: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in all_findings:
        waived = suppression_ids(
            source_line(module_lines.get(finding.path, []), finding.line))
        if waived is not None and finding.checker in waived:
            suppressed.append(finding)
        elif baseline is not None and finding.fingerprint in baseline:
            baselined.append(finding)
        else:
            findings.append(finding)

    stale: List[str] = []
    if baseline is not None:
        stale = baseline.stale(all_findings)
    return LintReport(
        root=Path(root),
        findings=findings,
        baselined=baselined,
        suppressed=suppressed,
        stale_baseline=stale,
        files_checked=len(project.modules),
        flow=flow_stats,
    )


def checker_summary() -> List[Tuple[str, str]]:
    """(id, description) for every shipped checker (docs, ``--help``)."""
    return [(c.id, c.description) for c in ALL_CHECKERS]

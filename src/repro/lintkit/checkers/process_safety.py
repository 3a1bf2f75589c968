"""Process-safety checker: trial results must not capture world objects.

Trial results cross a process boundary: the pickle hop back from worker
processes (``--jobs N`` and every campaign unit).  A result that captures
a ``Simulator``, ``Medium`` or ``Trace`` reference drags the whole world
graph through pickle — slow at best, unpicklable (lambdas, event
handlers) at worst.

The checker finds every *result class* — dataclasses matching
``.*(Result|Trial)$`` under ``experiments/`` — and walks the annotation
graph transitively (``TrialResult -> InjectionReport -> AttemptRecord``),
flagging any reachable field whose annotation references a live-world type
or a ``Callable`` (closures do not pickle).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set, Tuple

from repro.lintkit.checkers.base import Checker
from repro.lintkit.findings import Finding
from repro.lintkit.model import ModuleSource, Project

#: Type names that must never be reachable from a trial result.
BANNED_TYPES = (
    "Simulator",
    "Medium",
    "Trace",
    "EventQueue",
    "Transceiver",
    "RngStreams",
    "MetricsRegistry",
    "Attacker",
    "FakeMaster",
    "FakeSlave",
    "Callable",
)

#: (relpath prefix, class-name regex) pairs designating result roots.
RESULT_ROOT_RULES: Tuple[Tuple[str, str], ...] = (
    ("experiments/", r".*(Result|Trial)$"),
)


def _annotation_identifiers(annotation: ast.AST) -> List[str]:
    """Every plain/terminal identifier mentioned in an annotation."""
    names: List[str] = []
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # String annotation fragments: "Optional[Simulator]".
            names.extend(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", sub.value))
    return names


class _ClassInfo:
    __slots__ = ("module", "node", "fields")

    def __init__(self, module: ModuleSource, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        #: (AnnAssign node, field name, identifiers in its annotation)
        self.fields: List[Tuple[ast.AnnAssign, str, List[str]]] = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                self.fields.append((
                    stmt,
                    stmt.target.id,
                    _annotation_identifiers(stmt.annotation),
                ))


class ResultCaptureChecker(Checker):
    """Trial results must stay picklable plain data."""

    id = "result-capture"
    name = "no live-world references in trial results"
    description = (
        "objects returned from trial functions are pickled back from "
        "worker processes and must not reference "
        "Simulator/Medium/Trace/callbacks"
    )
    scope = ("",)

    def run(self, project: Project) -> Iterator[Finding]:
        classes: Dict[str, _ClassInfo] = {}
        for module in project.in_scope(self.scope, self.exempt):
            for node in module.nodes:
                if isinstance(node, ast.ClassDef):
                    # First definition wins; class names are unique enough
                    # within the package for this analysis.
                    classes.setdefault(node.name, _ClassInfo(module, node))

        roots = [
            name
            for name, info in classes.items()
            if any(
                (info.module.relpath.startswith(path)
                 or info.module.relpath == path)
                and re.search(pattern, name)
                for path, pattern in RESULT_ROOT_RULES
            )
        ]

        seen: Set[str] = set()
        queue = sorted(roots)
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = classes[name]
            for stmt, field_name, identifiers in info.fields:
                for ident in identifiers:
                    if ident in BANNED_TYPES:
                        yield self.finding(
                            info.module, stmt,
                            f"result field {name}.{field_name} is annotated "
                            f"with {ident} — trial results must not "
                            f"capture live-world references "
                            f"(store plain data instead)",
                        )
                        break
                for ident in identifiers:
                    if ident in classes and ident not in seen:
                        queue.append(ident)

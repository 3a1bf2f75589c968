"""Parsed-source model shared by the engine and the checkers."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.lintkit.flow import FlowAnalysis


@dataclass
class ModuleSource:
    """One parsed source file.

    Attributes:
        path: absolute path on disk.
        relpath: path relative to the linted root, POSIX separators.
        text: raw source text.
        lines: source split into lines (1-based access via index+1).
        tree: parsed AST.

    Checkers read :attr:`nodes`, :attr:`parents` and :attr:`imports`
    rather than walking :attr:`tree` themselves: one lazy breadth-first
    pass builds the first two, and the import table is read off
    :attr:`nodes`, so a lint run walks each module once however many
    checkers look at it.
    """

    path: Path
    relpath: str
    text: str
    lines: List[str]
    tree: ast.Module
    _walk: Optional[Tuple[List[ast.AST], Dict[ast.AST, ast.AST]]] = field(
        default=None, repr=False, compare=False)
    _imports: Optional[Dict[str, str]] = field(
        default=None, repr=False, compare=False)

    @classmethod
    def parse(cls, path: Path, root: Path) -> "ModuleSource":
        text = path.read_text()
        return cls(
            path=path,
            relpath=path.relative_to(root).as_posix(),
            text=text,
            lines=text.splitlines(),
            tree=ast.parse(text, filename=str(path)),
        )

    def _walked(self) -> Tuple[List[ast.AST], Dict[ast.AST, ast.AST]]:
        """The module's one walk: (:attr:`nodes`, :attr:`parents`)."""
        if self._walk is None:
            nodes: List[ast.AST] = [self.tree]
            parents: Dict[ast.AST, ast.AST] = {}
            for node in nodes:  # grows while iterated: breadth-first
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
                    nodes.append(child)
            self._walk = (nodes, parents)
        return self._walk

    @property
    def nodes(self) -> List[ast.AST]:
        """Every node of the module AST, in ``ast.walk`` order."""
        return self._walked()[0]

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent map over the module AST."""
        return self._walked()[1]

    @property
    def imports(self) -> Dict[str, str]:
        """Local alias -> fully qualified module/object name (built once).

        ``import numpy as np`` maps ``np -> numpy``; ``from datetime import
        datetime as dt`` maps ``dt -> datetime.datetime``.  Top-level and
        function-local imports both count; a relative import keeps only
        its module suffix.
        """
        if self._imports is None:
            table: Dict[str, str] = {}
            for node in self.nodes:
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        head = alias.name.split(".")[0]
                        table[alias.asname or head] = \
                            alias.name if alias.asname else head
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    for alias in node.names:
                        table[alias.asname or alias.name] = \
                            f"{base}.{alias.name}" if base else alias.name
            self._imports = table
        return self._imports

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Ancestors of ``node``, innermost first."""
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)


@dataclass
class Project:
    """All modules under the linted root.

    ``flow`` holds the call graph + effect fixpoint once a flow checker
    has asked for it (:func:`repro.lintkit.flow.ensure_analysis`).
    """

    root: Path
    modules: List[ModuleSource]
    flow: Optional["FlowAnalysis"] = None

    def in_scope(self, scope: Tuple[str, ...],
                 exempt: Tuple[str, ...] = ()) -> Iterator[ModuleSource]:
        """Modules whose relpath matches ``scope`` and none of ``exempt``.

        A scope entry is a relpath prefix (``"sim/"``), an exact file
        (``"cli.py"``) or ``""`` for everything.
        """
        for module in self.modules:
            if not _matches(module.relpath, scope):
                continue
            if exempt and _matches(module.relpath, exempt):
                continue
            yield module


def _matches(relpath: str, patterns: Tuple[str, ...]) -> bool:
    for pattern in patterns:
        if pattern == "" or relpath == pattern or relpath.startswith(pattern):
            return True
    return False


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, or ``None`` for anything else."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def resolve_call_target(node: ast.Call, imports: Dict[str, str]
                        ) -> Optional[str]:
    """Fully qualified dotted target of a call, through import aliases.

    ``np.random.rand()`` with ``np -> numpy`` resolves to
    ``numpy.random.rand``; calls on non-Name roots (``self.foo()``)
    resolve to ``None``.
    """
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    target = imports.get(head, head)
    return f"{target}.{rest}" if rest else target

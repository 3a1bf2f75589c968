"""Dead-import checker.

``unused-import`` — a module must use every name it imports.  A dead
import costs start-up time on every ``repro`` command (the package's
imports are eager down to numpy and the simulator) and misleads the next
reader about what a module depends on.

A name counts as used when it is read anywhere in the module, when it
appears inside a quoted annotation (``node: "MasterLinkLayer"``, the
usual shape of a ``TYPE_CHECKING`` import) or when ``__all__`` lists it.
Package ``__init__.py`` files are exempt (their imports are the
re-export surface), as are ``__future__`` imports.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro.lintkit.checkers.base import Checker
from repro.lintkit.findings import Finding
from repro.lintkit.model import ModuleSource


def _names_in_quoted(annotation: ast.AST) -> Iterator[str]:
    """Names read by the string literals inside an annotation."""
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(parsed):
                if isinstance(name, ast.Name):
                    yield name.id


def _exported(node: ast.AST) -> List[str]:
    """The string entries of an ``__all__ = [...]`` assignment, if any."""
    if not (isinstance(node, (ast.Assign, ast.AugAssign))
            and isinstance(node.value, (ast.List, ast.Tuple))):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    if not any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
        return []
    return [el.value for el in node.value.elts
            if isinstance(el, ast.Constant) and isinstance(el.value, str)]


class UnusedImportChecker(Checker):
    """Every imported name must be used, quoted or re-exported."""

    id = "unused-import"
    name = "no dead imports"
    description = (
        "every imported name must be read, named in a quoted annotation "
        "or listed in __all__ (package __init__.py files are exempt)"
    )
    scope = ("",)

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        if module.relpath.rsplit("/", 1)[-1] == "__init__.py":
            return
        used: Set[str] = set()
        bound_at: Dict[str, ast.AST] = {}
        for node in module.nodes:
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound_at.setdefault(name, node)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                used.update(_names_in_quoted(node.annotation))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.returns is not None:
                used.update(_names_in_quoted(node.returns))
            elif isinstance(node, ast.AnnAssign):
                used.update(_names_in_quoted(node.annotation))
            else:
                used.update(_exported(node))
        for name, target in module.imports.items():
            if name in used or name == "*" \
                    or target.startswith("__future__."):
                continue
            yield self.finding(module, bound_at[name],
                               f"{name!r} is imported but never used")

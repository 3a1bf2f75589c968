"""Documentation-contract checker.

``missing-docstring`` — every *public* module-level function and class in
``src/repro/`` must carry a docstring.  The package is the reference
implementation of the paper's attack model; an undocumented public name
forces the next reader back to the paper (or worse, to guessing).  The
check deliberately stops at module level: methods inherit context from
their class docstring, and private helpers (``_name``) document
themselves by proximity.

A name that must stay undocumented carries an inline
``# lint-ok: missing-docstring <reason>`` waiver on its ``def``/``class``
line.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.lintkit.checkers.base import Checker
from repro.lintkit.findings import Finding
from repro.lintkit.model import ModuleSource

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


class MissingDocstringChecker(Checker):
    """Public module-level functions and classes must have docstrings."""

    id = "missing-docstring"
    name = "docstrings on public module-level API"
    description = (
        "public module-level functions and classes must carry a docstring"
    )
    scope = ("",)

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        for node in module.tree.body:
            if not isinstance(node, _DEF_NODES):
                continue
            yield from self._check_def(module, node)

    def _check_def(
        self, module: ModuleSource,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef],
    ) -> Iterator[Finding]:
        if not _is_public(node.name):
            return
        if ast.get_docstring(node) is None:
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            yield self.finding(
                module, node,
                f"public {kind} {node.name!r} lacks a docstring",
            )

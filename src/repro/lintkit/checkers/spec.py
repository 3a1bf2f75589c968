"""Spec-conformance checker: BLE magic numbers come from one place.

The paper's timing attack arithmetic (T_IFS, the 1.25 ms slot, window
widening) and the codec polynomials are defined once, in canonical
constants modules.  Re-typing ``150.0`` at a call site compiles fine and
simulates *almost* right — until someone fixes the constant in one place
and not the other.  This checker flags banned numeric literals anywhere
outside their canonical module.

Literal tables (tuples/lists of three or more numbers, e.g. histogram
buckets or the SCA field-value table) are exempt: the check targets scalar
timing arithmetic, not data tables that merely contain a coincident value.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lintkit.checkers.base import Checker
from repro.lintkit.findings import Finding
from repro.lintkit.model import ModuleSource

#: (value, type, canonical constant, modules it may literally appear in).
#: Matching is type-exact (150 and 150.0 are separate policies — int/float
#: dict keys would collide, so this is a tuple, not a dict).
MAGIC_NUMBERS: Tuple[Tuple[object, type, str, Tuple[str, ...]], ...] = (
    (150, int, "repro.utils.units.T_IFS_US", ("utils/units.py",)),
    (150.0, float, "repro.utils.units.T_IFS_US", ("utils/units.py",)),
    (1250, int, "repro.utils.units.SLOT_US", ("utils/units.py",)),
    (1250.0, float, "repro.utils.units.SLOT_US", ("utils/units.py",)),
    (32.0, float, "repro.ll.timing.WINDOW_WIDENING_CONSTANT_US",
     ("ll/timing.py", "utils/units.py")),
    (0x00065B, int, "repro.kernels.tables.CRC24_POLY_MASK",
     ("kernels/tables.py", "phy/crc.py")),
    (0x555555, int, "repro.phy.crc.ADVERTISING_CRC_INIT",
     ("phy/crc.py", "kernels/tables.py")),
    (20_000.0, float, "repro.sim.medium.RECENT_HORIZON_US",
     ("sim/medium.py",)),
)

#: Tuples/lists with at least this many numeric elements count as tables.
TABLE_MIN_ELEMENTS = 3


def _in_literal_table(module: ModuleSource, node: ast.AST) -> bool:
    parent = module.parents.get(node)
    while isinstance(parent, (ast.UnaryOp,)):
        parent = module.parents.get(parent)
    if not isinstance(parent, (ast.Tuple, ast.List, ast.Set)):
        return False
    numeric = sum(
        1 for el in parent.elts
        if isinstance(el, ast.Constant) and isinstance(el.value, (int, float))
    )
    return numeric >= TABLE_MIN_ELEMENTS


class MagicNumberChecker(Checker):
    """Ban re-literalised BLE spec constants outside canonical modules."""

    id = "magic-number"
    name = "spec constants come from canonical modules"
    description = (
        "T_IFS/slot/widening constants and codec polynomials must be "
        "imported from utils.units / ll.timing / phy.crc / kernels.tables"
    )
    scope = ("",)
    # The checker's own ban table is the one legitimate home for these
    # literals outside the canonical modules.
    exempt = ("lintkit/",)

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            entry = None
            for magic, magic_type, constant_name, modules in MAGIC_NUMBERS:
                if type(value) is magic_type and magic == value:
                    entry = (constant_name, modules)
                    break
            if entry is None:
                continue
            constant, canonical = entry
            if any(module.relpath == path or module.relpath.startswith(path)
                   for path in canonical):
                continue
            if _in_literal_table(module, node):
                continue
            yield self.finding(
                module, node,
                f"magic number {value!r} — use {constant} instead of "
                f"re-literalising the spec constant",
            )

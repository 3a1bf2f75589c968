"""Fixture: an import nothing reads (unused-import)."""

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections import OrderedDict


def table_size(rows: "OrderedDict") -> int:
    """Row count; ``OrderedDict`` is read only in a quoted annotation."""
    return len(rows)

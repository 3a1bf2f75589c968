"""Fixture twin: every import is read, quoted or listed in ``__all__``."""

from __future__ import annotations

import math
from math import pi
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections import OrderedDict

__all__ = ["pi", "table_size"]


def table_size(rows: "OrderedDict") -> int:
    """Row count rounded up to a power of two."""
    return 1 << math.ceil(math.log2(max(len(rows), 1)))

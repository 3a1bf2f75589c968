"""Checker registry.

Each checker encodes one project invariant (see the package docstring of
:mod:`repro.lintkit`).  The registry order is the report order for equal
source locations.
"""

from typing import Dict

from repro.lintkit.checkers.base import Checker
from repro.lintkit.checkers.determinism import (
    FloatTimeEqualityChecker,
    NondeterministicCallChecker,
    SetIterationChecker,
)
from repro.lintkit.checkers.docs import MissingDocstringChecker
from repro.lintkit.checkers.flow import (
    BlockingInAsyncChecker,
    ErrorTaxonomyChecker,
    ProtocolConformanceChecker,
    RngFlowChecker,
)
from repro.lintkit.checkers.perf import MissingSlotsChecker, TelemetryGuardChecker
from repro.lintkit.checkers.process_safety import ResultCaptureChecker
from repro.lintkit.checkers.spec import MagicNumberChecker

#: Every shipped checker, in canonical order.  The flow-aware quartet
#: (call graph + effect fixpoint) comes last; the first of them to run
#: builds the graph.
ALL_CHECKERS = (
    NondeterministicCallChecker(),
    SetIterationChecker(),
    FloatTimeEqualityChecker(),
    MagicNumberChecker(),
    MissingSlotsChecker(),
    TelemetryGuardChecker(),
    ResultCaptureChecker(),
    MissingDocstringChecker(),
    BlockingInAsyncChecker(),
    RngFlowChecker(),
    ErrorTaxonomyChecker(),
    ProtocolConformanceChecker(),
)


def checker_index() -> Dict[str, Checker]:
    """Checker id -> instance, for docs and the CLI ``--select`` option."""
    return {checker.id: checker for checker in ALL_CHECKERS}


__all__ = [
    "ALL_CHECKERS",
    "BlockingInAsyncChecker",
    "Checker",
    "ErrorTaxonomyChecker",
    "FloatTimeEqualityChecker",
    "MagicNumberChecker",
    "MissingDocstringChecker",
    "MissingSlotsChecker",
    "NondeterministicCallChecker",
    "ProtocolConformanceChecker",
    "ResultCaptureChecker",
    "RngFlowChecker",
    "SetIterationChecker",
    "TelemetryGuardChecker",
    "checker_index",
]

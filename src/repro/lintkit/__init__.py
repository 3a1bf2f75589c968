"""Project-specific static analysis (``repro lint``).

The reproduction's headline guarantee — trial results bit-identical at any
``--jobs`` count — rests on a handful of conventions that generic linters
cannot express:

* all randomness flows through :mod:`repro.utils.rand` (no ``random``, no
  wall clocks, no ``os.urandom`` in simulation code);
* iteration order in hot paths never depends on ``set`` ordering;
* BLE spec constants (T_IFS, the 1.25 ms slot, CRC/whitening polynomials)
  come from the canonical constants modules instead of being re-typed;
* per-event/per-frame classes declare ``__slots__`` and telemetry calls sit
  behind a single ``enabled`` attribute check;
* trial results never capture a ``Simulator``, ``Medium`` or ``Trace``
  reference (they must survive the pickle hop from worker processes).

``repro.lintkit`` encodes each invariant as an AST checker over the
package's own source (plus ``unused-import``, which keeps dead imports
out).  The one way to silence a finding is an inline waiver on its line,
``# lint-ok: <checker-id> <reason>``; a waiver that names no registered
checker, gives no reason or waives nothing is itself a ``waiver``
finding.

Programmatic use::

    from repro.lintkit import run_lint
    report = run_lint()             # lints the installed repro package
    assert not report.findings
"""

from repro.lintkit.checkers import ALL_CHECKERS, checker_index
from repro.lintkit.engine import (
    FlowStats,
    LintReport,
    ModuleSource,
    Project,
    default_package_root,
    run_lint,
)
from repro.lintkit.findings import Finding

__all__ = [
    "ALL_CHECKERS",
    "Finding",
    "FlowStats",
    "LintReport",
    "ModuleSource",
    "Project",
    "checker_index",
    "default_package_root",
    "run_lint",
]

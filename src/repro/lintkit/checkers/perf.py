"""Performance-contract checkers.

Two contracts from the perf PRs are load-bearing enough to enforce:

* ``missing-slots`` — classes instantiated per event or per frame (the
  event queue, radio frames, trace records, the medium's per-transmission
  bookkeeping, metric instruments) must declare ``__slots__``: at millions
  of instances per sweep, the per-instance ``__dict__`` costs both
  allocation time and cache locality.
* ``telemetry-guard`` — telemetry must be free when disabled: metric
  instruments are bound once in ``__init__`` and updated behind a single
  ``.enabled`` attribute check, and ``trace.record(...)`` call sites in hot
  packages are guarded by ``trace.enabled`` so a disabled trace costs no
  kwargs-dict allocation (the benchmark suite asserts the disabled path
  stays within 2% of an un-instrumented run).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Tuple

from repro.lintkit.checkers.base import (
    Checker,
    enclosing_function,
    is_enabled_guarded,
)
from repro.lintkit.findings import Finding
from repro.lintkit.model import ModuleSource, dotted_name

#: (relpath prefix, class-name regex) pairs that must declare __slots__.
HOT_CLASS_RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/events.py", r".*"),
    ("phy/signal.py", r".*"),
    ("sim/trace.py", r".*Record$"),
    ("sim/medium.py", r"^_"),
    ("telemetry/metrics.py", r"^(Counter|Gauge|Histogram|MetricsRegistry)$"),
)

#: Instrument update methods (Counter.inc, Gauge.set, Histogram.observe).
INSTRUMENT_UPDATES = ("inc", "set", "observe")

#: Registry factory methods that bind instruments.
INSTRUMENT_FACTORIES = ("counter", "gauge", "histogram")


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and \
                    stmt.target.id == "__slots__":
                return True
    for deco in node.decorator_list:
        # @dataclass(slots=True) counts (Python >= 3.10 trees).
        if isinstance(deco, ast.Call):
            for kw in deco.keywords:
                if kw.arg == "slots" and isinstance(kw.value, ast.Constant) \
                        and kw.value.value is True:
                    return True
    return False


class MissingSlotsChecker(Checker):
    """Per-event/per-frame classes must declare ``__slots__``."""

    id = "missing-slots"
    name = "__slots__ on hot-path classes"
    description = (
        "classes instantiated per event/frame must avoid per-instance "
        "__dict__ allocation"
    )
    scope = ("",)

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        rules = [re.compile(pattern)
                 for path, pattern in HOT_CLASS_RULES
                 if module.relpath == path or module.relpath.startswith(path)]
        if not rules:
            return
        for node in module.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(rule.search(node.name) for rule in rules):
                continue
            if _declares_slots(node):
                continue
            # Enum/Protocol/exception classes have no per-instance dict cost
            # worth chasing — skip anything with a non-object base.
            if any(isinstance(base, (ast.Name, ast.Attribute))
                   for base in node.bases):
                continue
            yield self.finding(
                module, node,
                f"hot-path class {node.name!r} lacks __slots__ — "
                f"per-instance __dict__ costs allocation and locality at "
                f"millions of instances per sweep",
            )


def _receiver_is_instrument(node: ast.Attribute) -> bool:
    value = node.value
    if isinstance(value, ast.Attribute):
        return value.attr.startswith("_m_")
    if isinstance(value, ast.Name):
        return value.id.startswith("_m_")
    return False


def _receiver_is_trace(node: ast.Attribute) -> bool:
    dotted = dotted_name(node.value)
    if dotted is None:
        return False
    return dotted == "trace" or dotted.endswith(".trace")


class TelemetryGuardChecker(Checker):
    """Telemetry must cost one attribute check when disabled."""

    id = "telemetry-guard"
    name = "telemetry behind a single enabled check"
    description = (
        "bind instruments in __init__, update them and call "
        "trace.record(...) only inside an `if ....enabled:` block"
    )
    scope = ("sim/", "ll/", "core/", "defense/", "devices/", "experiments/")
    exempt = ("sim/trace.py",)

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        for node in module.nodes:
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr in INSTRUMENT_UPDATES and \
                    _receiver_is_instrument(node.func):
                if not is_enabled_guarded(module, node):
                    yield self.finding(
                        module, node,
                        f"instrument update .{attr}() outside an "
                        f"`if ....enabled:` guard — the disabled path must "
                        f"cost one attribute check",
                    )
            elif attr in INSTRUMENT_FACTORIES and \
                    _receiver_is_metrics(node.func):
                func = enclosing_function(module, node)
                in_init = func is not None and func.name == "__init__"
                if not in_init and not is_enabled_guarded(module, node):
                    yield self.finding(
                        module, node,
                        f"instrument bound via .{attr}() outside __init__ — "
                        f"pre-bind instruments once and reuse them on the "
                        f"hot path",
                    )
            elif attr == "record" and _receiver_is_trace(node.func):
                if not is_enabled_guarded(module, node):
                    yield self.finding(
                        module, node,
                        "trace.record(...) outside an `if trace.enabled:` "
                        "guard — a disabled trace must not pay the "
                        "kwargs-dict allocation",
                    )


def _receiver_is_metrics(node: ast.Attribute) -> bool:
    dotted = dotted_name(node.value)
    if dotted is None:
        return False
    terminal = dotted.split(".")[-1]
    return "metrics" in terminal or terminal == "registry"

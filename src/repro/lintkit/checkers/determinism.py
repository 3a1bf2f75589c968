"""Determinism checkers.

Trial results must be a pure function of the trial config: same seed, same
bytes, at any ``--jobs`` count, on any machine.  Three checkers enforce the
conventions that guarantee it:

* ``nondeterministic-call`` — no ambient entropy or wall clocks in
  simulation code; randomness flows through :mod:`repro.utils.rand` only.
* ``set-iteration`` — no iteration over ``set`` values in hot packages:
  set order depends on insertion/hash history and (for str keys) on
  ``PYTHONHASHSEED``, which differs per worker process.
* ``float-time-eq`` — no exact ``==``/``!=`` on microsecond timestamps;
  drifting clocks make float timestamps meet only approximately
  (compare with a tolerance, as :meth:`Window.contains` does).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintkit.checkers.base import Checker
from repro.lintkit.findings import Finding
from repro.lintkit.model import ModuleSource, resolve_call_target

#: Modules that may never be imported by deterministic simulation code.
BANNED_MODULES = ("random", "secrets")

#: Fully qualified callables that read ambient entropy or wall clocks.
BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "ambient entropy",
    "uuid.uuid1": "ambient entropy",
    "uuid.uuid4": "ambient entropy",
    # Legacy numpy global-state RNG: unseeded and shared across the process.
    "numpy.random.seed": "global numpy RNG",
    "numpy.random.rand": "global numpy RNG",
    "numpy.random.randn": "global numpy RNG",
    "numpy.random.randint": "global numpy RNG",
    "numpy.random.random": "global numpy RNG",
    "numpy.random.choice": "global numpy RNG",
    "numpy.random.shuffle": "global numpy RNG",
    "numpy.random.permutation": "global numpy RNG",
    "numpy.random.normal": "global numpy RNG",
    "numpy.random.uniform": "global numpy RNG",
}


class NondeterministicCallChecker(Checker):
    """Ban ambient entropy and wall-clock reads outside the RNG facade."""

    id = "nondeterministic-call"
    name = "no ambient entropy or wall clocks"
    description = (
        "simulation code must draw randomness from repro.utils.rand "
        "streams and read time from the simulator clock only"
    )
    scope = ("",)
    # The RNG facade derives streams; the CLI is interactive by nature.
    # The runner/campaign orchestration layer reads wall clocks for
    # watchdog deadlines and retry backoff only — scheduling, never trial
    # bytes — and doccheck drives the CLI.
    exempt = ("utils/rand.py", "cli.py", "runner/executor.py",
              "campaign/", "doccheck.py")

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        imports = module.imports
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_MODULES:
                        yield self.finding(
                            module, node,
                            f"import of nondeterministic module "
                            f"{alias.name!r} (use repro.utils.rand streams)",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in BANNED_MODULES and not node.level:
                    yield self.finding(
                        module, node,
                        f"import from nondeterministic module "
                        f"{node.module!r} (use repro.utils.rand streams)",
                    )
            elif isinstance(node, ast.Call):
                target = resolve_call_target(node, imports)
                if target is None:
                    continue
                root = target.split(".")[0]
                if root in BANNED_MODULES:
                    yield self.finding(
                        module, node,
                        f"call to {target}() — nondeterministic module "
                        f"(use repro.utils.rand streams)",
                    )
                elif target in BANNED_CALLS:
                    yield self.finding(
                        module, node,
                        f"call to {target}() — {BANNED_CALLS[target]} "
                        f"(simulation time comes from sim.now; randomness "
                        f"from seeded streams)",
                    )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
        # set algebra: a & b, a | b, a - b, a ^ b of set operands
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class SetIterationChecker(Checker):
    """Ban iteration over sets in order-sensitive hot packages."""

    id = "set-iteration"
    name = "no set-ordered iteration in hot paths"
    description = (
        "iterating a set yields hash order, which varies with "
        "PYTHONHASHSEED and insertion history; sort first or use "
        "dict/list, whose order is deterministic"
    )
    scope = ("sim/", "ll/", "core/")

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        for node in module.nodes:
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    yield self.finding(
                        module, it,
                        "iteration over a set — order depends on hashes; "
                        "wrap in sorted() or keep a list/dict",
                    )


def _is_timestamp_expr(node: ast.AST) -> bool:
    """Names/attributes that look like microsecond timestamps."""
    terminal = None
    if isinstance(node, ast.Attribute):
        terminal = node.attr
    elif isinstance(node, ast.Name):
        terminal = node.id
    if terminal is None:
        return False
    return terminal.endswith("_us") or terminal == "now"


#: Largest float literal treated as an ad-hoc tolerance when added to or
#: subtracted from a timestamp inside a comparison.  Genuine offsets
#: (T_IFS, window margins, ...) are all >= 0.5 µs; tolerances are <= 1e-3.
_EPSILON_LITERAL_MAX = 1e-3


def _inline_epsilon_operand(node: ast.AST) -> bool:
    """``ts ± tiny-float-literal``: an ad-hoc epsilon baked into a compare."""
    if not isinstance(node, ast.BinOp) or \
            not isinstance(node.op, (ast.Add, ast.Sub)):
        return False
    for ts_side, lit_side in ((node.left, node.right),
                              (node.right, node.left)):
        if not _is_timestamp_expr(ts_side):
            continue
        if isinstance(lit_side, ast.Constant) \
                and isinstance(lit_side.value, float) \
                and 0.0 < lit_side.value <= _EPSILON_LITERAL_MAX:
            return True
    return False


class FloatTimeEqualityChecker(Checker):
    """Ban exact equality on float microsecond timestamps, and ad-hoc
    inline epsilon literals in timestamp comparisons."""

    id = "float-time-eq"
    name = "no exact equality on µs timestamps"
    description = (
        "timestamps accumulate float error and clock drift; compare "
        "with an explicit tolerance instead of ==/!=, and spell the "
        "tolerance TIME_EPS_US instead of an inline literal"
    )
    scope = ("",)
    # The canonical constant itself lives in sim/events.py.
    exempt = ("sim/events.py",)

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    left_ts = _is_timestamp_expr(left)
                    right_ts = _is_timestamp_expr(right)
                    float_literal = any(
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, float)
                        for side in (left, right)
                    )
                    if (left_ts and right_ts) or \
                            ((left_ts or right_ts) and float_literal):
                        yield self.finding(
                            module, node,
                            "exact ==/!= on a µs timestamp — use an explicit "
                            "tolerance (abs(a - b) <= eps)",
                        )
                        break
                elif _inline_epsilon_operand(left) or \
                        _inline_epsilon_operand(right):
                    yield self.finding(
                        module, node,
                        "inline epsilon literal in a time comparison — "
                        "use the canonical sim.events.TIME_EPS_US",
                    )
                    break

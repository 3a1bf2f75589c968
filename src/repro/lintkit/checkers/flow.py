"""Flow-aware checkers: async-safety, RNG purity, error taxonomy,
protocol conformance.

All four consume the project call graph + effect fixpoint from
:mod:`repro.lintkit.flow`, built when the first of them runs and shared
by the rest.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.lintkit.checkers.base import Checker, enclosing_function
from repro.lintkit.findings import Finding, source_line
from repro.lintkit.flow import FlowAnalysis, ensure_analysis
from repro.lintkit.flow.effects import CONTROL_FLOW_EXCEPTIONS
from repro.lintkit.model import ModuleSource, Project, dotted_name

#: Terminal class name rooting the project error taxonomy.
TAXONOMY_ROOT = "ReproError"

#: Functions whose escaping exceptions must stay inside the taxonomy:
#: the retry/quarantine classifier and every service entry point.
#: Matched by (relpath suffix, qualname) so fixture trees mirroring the
#: live layout exercise the same rules.
TAXONOMY_ENTRYPOINTS: Tuple[Tuple[str, str], ...] = (
    ("runner/executor.py", "run_units_robust"),
    ("campaign/service/worker.py", "run_worker"),
    ("campaign/service/worker.py", "worker_entry"),
    ("campaign/service/coordinator.py", "Coordinator.handle_message"),
    ("campaign/service/server.py", "ServiceServer._handle_connection"),
)

#: Peer sides of the worker protocol: (sender-side suffixes,
#: handler-side suffixes, direction label).
_WORKER_FILES = ("campaign/service/worker.py",)
_COORDINATOR_FILES = ("campaign/service/coordinator.py",
                      "campaign/service/server.py")

#: Relpath prefixes considered telemetry/trace/reporting code for the
#: RNG-purity rule.
RNG_PURE_PREFIXES = ("telemetry/", "analysis/")


def _module_map(project: Project) -> Dict[str, ModuleSource]:
    return {module.relpath: module for module in project.modules}


class FlowChecker(Checker):
    """Base for checkers that need the call graph + effect fixpoint."""

    def run(self, project: Project) -> Iterator[Finding]:
        analysis = ensure_analysis(project)
        yield from self.check_flow(project, analysis)

    def check_flow(self, project: Project,
                   analysis: FlowAnalysis) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def finding_at(self, module: ModuleSource, line: int, col: int,
                   message: str) -> Finding:
        """A :class:`Finding` at an explicit location in ``module``."""
        return Finding(
            checker=self.id,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
            snippet=source_line(module.lines, line),
        )


def _render_chain(parts: List[str]) -> str:
    return " -> ".join(parts)


class BlockingInAsyncChecker(FlowChecker):
    """Blocking effect reachable from an ``async def`` without an
    executor hop.

    The PR 8 freeze — a coroutine's ``process.join`` stalling the event
    loop and starving every connected worker — is exactly this shape.
    Both direct blocking primitives inside a coroutine and calls from a
    coroutine into a *sync* function whose transitive effects include
    blocking are flagged at the call site (so ``# lint-ok:`` waivers
    attach where the decision is made).  Awaited expressions and
    references hopped through ``run_in_executor`` are exempt by
    construction; calls into *async* callees are skipped here because
    the callee coroutine gets its own finding at the precise site.
    """

    id = "blocking-in-async"
    name = "Blocking call on the event loop"
    description = (
        "A blocking primitive (sleep, file/socket I/O, subprocess, "
        "process join, sync queue.get) is reachable from an async def "
        "without a run_in_executor hop; the event loop stalls."
    )

    def check_flow(self, project: Project,
                   analysis: FlowAnalysis) -> Iterator[Finding]:
        modules = _module_map(project)
        effects = analysis.effects
        edges_from = analysis.graph.edges_from()
        for fid in sorted(analysis.graph.functions):
            info = analysis.graph.functions[fid]
            if not info.is_async:
                continue
            module = modules.get(info.relpath)
            if module is None or not self._in_scope(info.relpath):
                continue
            seen_sites: Set[Tuple[int, int]] = set()
            for intrinsic in info.intrinsics:
                if intrinsic.effect != "blocking":
                    continue
                site = (intrinsic.line, intrinsic.col)
                if site in seen_sites:
                    continue
                seen_sites.add(site)
                yield self.finding_at(
                    module, intrinsic.line, intrinsic.col,
                    f"blocking call {intrinsic.detail} inside async "
                    f"'{info.qualname}' stalls the event loop; await an "
                    "async equivalent or hop through run_in_executor")
            for edge in edges_from.get(fid, []):
                if edge.kind not in ("call", "ref"):
                    continue
                callee = analysis.graph.functions.get(edge.callee)
                if callee is None or callee.is_async:
                    continue
                if edge.callee not in effects.blocking:
                    continue
                site = (edge.line, edge.col)
                if site in seen_sites:
                    continue
                seen_sites.add(site)
                chain = [callee.qualname] + \
                    effects.blocking_chain(edge.callee)
                yield self.finding_at(
                    module, edge.line, edge.col,
                    f"async '{info.qualname}' calls blocking "
                    f"'{callee.qualname}' ({_render_chain(chain)}); the "
                    "event loop stalls — hop through run_in_executor")

    def _in_scope(self, relpath: str) -> bool:
        if any(relpath.startswith(p) for p in self.exempt):
            return False
        return any(relpath.startswith(p) or p == ""
                   for p in self.scope)


class RngFlowChecker(FlowChecker):
    """RNG draws reachable from telemetry/reporting code, or gated on
    telemetry state.

    Both shapes break the fast-vs-reference engine equivalence: a draw
    issued only when metrics/tracing are enabled (or issued by the
    reporting layer at all) makes substream consumption differ between
    instrumented and bare runs, so trial bytes stop being comparable.
    """

    id = "rng-flow"
    name = "RNG draw on a telemetry-dependent path"
    description = (
        "An RNG substream draw is reachable from telemetry/trace/"
        "reporting code or sits behind a metrics/trace-enabled "
        "conditional; draw counts diverge between instrumented and "
        "bare runs."
    )

    def check_flow(self, project: Project,
                   analysis: FlowAnalysis) -> Iterator[Finding]:
        modules = _module_map(project)
        effects = analysis.effects
        edges_from = analysis.graph.edges_from()
        seen: Set[Tuple[str, int, int]] = set()
        for fid in sorted(analysis.graph.functions):
            info = analysis.graph.functions[fid]
            module = modules.get(info.relpath)
            if module is None:
                continue
            in_pure_zone = info.relpath.startswith(RNG_PURE_PREFIXES)
            for intrinsic in info.intrinsics:
                if intrinsic.effect != "draws-rng":
                    continue
                site = (info.relpath, intrinsic.line, intrinsic.col)
                if site in seen:
                    continue
                if in_pure_zone:
                    seen.add(site)
                    yield self.finding_at(
                        module, intrinsic.line, intrinsic.col,
                        f"telemetry/reporting code '{info.qualname}' "
                        f"draws from an RNG substream "
                        f"({intrinsic.detail}); reporting must not "
                        "consume simulation stream state")
                elif intrinsic.guarded:
                    seen.add(site)
                    yield self.finding_at(
                        module, intrinsic.line, intrinsic.col,
                        f"RNG draw {intrinsic.detail} in "
                        f"'{info.qualname}' is conditional on telemetry "
                        "state; draw counts diverge between "
                        "instrumented and bare runs")
            for edge in edges_from.get(fid, []):
                if edge.kind == "spawn":
                    continue
                if edge.callee not in effects.draws_rng:
                    continue
                site = (info.relpath, edge.line, edge.col)
                if site in seen:
                    continue
                callee = analysis.graph.functions.get(edge.callee)
                callee_name = callee.qualname if callee is not None \
                    else edge.callee
                chain = [callee_name] + effects.rng_chain(edge.callee)
                if in_pure_zone:
                    seen.add(site)
                    yield self.finding_at(
                        module, edge.line, edge.col,
                        f"telemetry/reporting code '{info.qualname}' "
                        f"reaches an RNG draw via "
                        f"{_render_chain(chain)}; reporting must not "
                        "consume simulation stream state")
                elif edge.guarded:
                    seen.add(site)
                    yield self.finding_at(
                        module, edge.line, edge.col,
                        f"call under a telemetry-enabled conditional in "
                        f"'{info.qualname}' reaches an RNG draw via "
                        f"{_render_chain(chain)}; draw counts diverge "
                        "between instrumented and bare runs")


class ErrorTaxonomyChecker(FlowChecker):
    """Escaping exceptions on classifier paths must be ``ReproError``s,
    and broad handlers must not swallow them.

    The retry/quarantine classifier (``run_units_robust``) and the
    service entry points translate failures into journal verdicts; a
    raw ``ValueError`` escaping them bypasses the taxonomy (the unit is
    neither retried nor quarantined coherently).  Conversely an
    ``except Exception: pass`` around code whose effects include a
    ``ReproError`` raise silently destroys a verdict.
    """

    id = "error-taxonomy"
    name = "Error-taxonomy soundness"
    description = (
        "A non-ReproError exception can escape a retry/quarantine or "
        "service entry point, or a broad except handler swallows "
        "ReproError subclasses raised in its try body."
    )
    #: Broad-handler scan is restricted to orchestration code.
    swallow_scope: Tuple[str, ...] = ("runner/", "campaign/")

    def check_flow(self, project: Project,
                   analysis: FlowAnalysis) -> Iterator[Finding]:
        modules = _module_map(project)
        yield from self._check_entrypoints(modules, analysis)
        yield from self._check_swallows(project, modules, analysis)

    def _check_entrypoints(self, modules: Dict[str, ModuleSource],
                           analysis: FlowAnalysis) -> Iterator[Finding]:
        effects = analysis.effects
        for fid in sorted(analysis.graph.functions):
            info = analysis.graph.functions[fid]
            if not self._is_entrypoint(info.relpath, info.qualname):
                continue
            module = modules.get(info.relpath)
            if module is None:
                continue
            escaping = effects.raises.get(fid, {})
            for exc in sorted(escaping):
                if exc in CONTROL_FLOW_EXCEPTIONS:
                    continue
                if effects.hierarchy.is_taxonomy_member(exc, TAXONOMY_ROOT):
                    continue
                witness = escaping[exc]
                chain = effects.raise_chain(fid, exc)
                detail = _render_chain(chain) if chain else exc
                yield self.finding_at(
                    module, witness.line, 0,
                    f"'{exc}' can escape entry point '{info.qualname}' "
                    f"({detail}); non-{TAXONOMY_ROOT} failures bypass "
                    "the timeout/retry/quarantine classification")

    @staticmethod
    def _is_entrypoint(relpath: str, qualname: str) -> bool:
        return any(
            relpath.endswith(suffix) and qualname == qual
            for suffix, qual in TAXONOMY_ENTRYPOINTS
        )

    def _check_swallows(self, project: Project,
                        modules: Dict[str, ModuleSource],
                        analysis: FlowAnalysis) -> Iterator[Finding]:
        effects = analysis.effects
        for module in project.in_scope(self.swallow_scope, ()):
            for node in module.nodes:
                if not isinstance(node, ast.Try):
                    continue
                for handler in node.handlers:
                    if not self._is_broad(handler):
                        continue
                    if self._reraises(handler):
                        continue
                    culprit = self._taxonomy_raise_in_body(
                        module, node, analysis)
                    if culprit is None:
                        continue
                    exc, via = culprit
                    yield self.finding_at(
                        module, handler.lineno, handler.col_offset,
                        f"broad except handler swallows '{exc}' "
                        f"raised in its try body ({via}); catch "
                        f"{TAXONOMY_ROOT} separately or re-raise so "
                        "the verdict survives")

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        return isinstance(handler.type, ast.Name) and \
            handler.type.id in ("Exception", "BaseException")

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(sub, ast.Raise)
                   for stmt in handler.body for sub in ast.walk(stmt))

    @staticmethod
    def _handler_types(handler: ast.ExceptHandler) -> List[str]:
        """Terminal class names a handler catches (builder scheme)."""
        if handler.type is None:
            return ["BaseException"]
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
            else [handler.type]
        names: List[str] = []
        for t in types:
            name = dotted_name(t)
            if name is not None:
                names.append(name.rsplit(".", 1)[-1])
        return names

    def _taxonomy_raise_in_body(
        self, module: ModuleSource, try_node: ast.Try,
        analysis: FlowAnalysis,
    ) -> Optional[Tuple[str, str]]:
        """First ReproError-subclass raise the try body can produce."""
        effects = analysis.effects
        if not try_node.body:
            return None
        first = try_node.body[0].lineno
        last = max(
            getattr(stmt, "end_lineno", stmt.lineno)
            for stmt in try_node.body
        )
        func = enclosing_function(module, try_node)
        fid = self._fid_for(module, func)
        if fid is None or fid not in analysis.graph.functions:
            return None
        info = analysis.graph.functions[fid]
        for site in info.raises:
            if first <= site.line <= last and \
                    effects.hierarchy.is_taxonomy_member(
                        site.exc, TAXONOMY_ROOT):
                return (site.exc, f"raise at line {site.line}")
        # Handlers of the try under inspection must NOT mask the escape
        # set — the broad handler catching the exception is the finding.
        own_names = frozenset(
            name
            for handler in try_node.handlers
            for name in self._handler_types(handler)
        )
        for edge in analysis.graph.edges_from().get(fid, []):
            if not (first <= edge.line <= last):
                continue
            if edge.kind == "spawn":
                continue
            inner_caught = tuple(
                name for name in edge.caught if name not in own_names
            )
            for exc in sorted(effects.raises.get(edge.callee, {})):
                if effects.hierarchy.caught_by(exc, inner_caught):
                    continue
                if effects.hierarchy.is_taxonomy_member(
                        exc, TAXONOMY_ROOT):
                    callee = analysis.graph.functions.get(edge.callee)
                    via = callee.qualname if callee is not None \
                        else edge.callee
                    return (exc, f"via {via}")
        return None

    @staticmethod
    def _fid_for(
        module: ModuleSource,
        func: Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]],
    ) -> Optional[str]:
        """Graph function id of ``func``, mirroring the builder's
        qualname scheme (``Class.method``, ``outer.<locals>.inner``)."""
        if func is None:
            return None
        parts: List[str] = [func.name]
        current: ast.AST = func
        for ancestor in module.ancestors(func):
            if isinstance(ancestor, ast.ClassDef):
                parts.append(f"{ancestor.name}.")
            elif isinstance(ancestor, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                parts.append(f"{ancestor.name}.<locals>.")
            current = ancestor
        qualname = "".join(reversed(parts))
        return f"{module.relpath}:{qualname}"


class ProtocolConformanceChecker(FlowChecker):
    """Every protocol op literal sent on one side of the worker channel
    has a handler on the peer side, and vice versa.

    The worker protocol is a set of JSON messages tagged by an ``"op"``
    field; a reply the worker does not recognise (PR 8's coordinator can
    answer ``idle``) either trips a defensive error path or silently
    stalls the fleet.  The check is structural: dict literals with a
    constant ``"op"`` key are "sent", comparisons against an ``op``
    expression are "handled"; worker-side sends must be coordinator-side
    handled and coordinator-side sends worker-side handled.
    """

    id = "protocol-conformance"
    name = "Worker-protocol op conformance"
    description = (
        "A message op literal sent by the worker/coordinator has no "
        "matching handler on the peer side, or a handler matches an op "
        "the peer never sends."
    )

    def check_flow(self, project: Project,
                   analysis: FlowAnalysis) -> Iterator[Finding]:
        worker_mods = self._side_modules(project, _WORKER_FILES)
        coord_mods = self._side_modules(project, _COORDINATOR_FILES)
        if not worker_mods or not coord_mods:
            return
        worker_sent = self._sent_ops(worker_mods)
        worker_handled = self._handled_ops(worker_mods)
        coord_sent = self._sent_ops(coord_mods)
        coord_handled = self._handled_ops(coord_mods)
        yield from self._diff(worker_sent, set(coord_handled), "worker",
                              "coordinator", sent=True)
        yield from self._diff(coord_sent, set(worker_handled),
                              "coordinator", "worker", sent=True)
        yield from self._diff(worker_handled, set(coord_sent), "worker",
                              "coordinator", sent=False)
        yield from self._diff(coord_handled, set(worker_sent),
                              "coordinator", "worker", sent=False)

    @staticmethod
    def _side_modules(project: Project,
                      suffixes: Tuple[str, ...]) -> List[ModuleSource]:
        return [
            module for module in project.modules
            if any(module.relpath.endswith(s) for s in suffixes)
        ]

    def _diff(self, ops: Dict[str, List[Tuple[ModuleSource, int, int]]],
              peer_ops: Set[str], side: str, peer: str,
              sent: bool) -> Iterator[Finding]:
        for op in sorted(ops):
            if op in peer_ops:
                continue
            module, line, col = ops[op][0]
            if sent:
                message = (
                    f"op '{op}' sent by the {side} side has no handler "
                    f"on the {peer} side; the peer cannot process it")
            else:
                message = (
                    f"{side}-side handler matches op '{op}' but the "
                    f"{peer} never sends it; dead branch or a missing "
                    "send")
            yield self.finding_at(module, line, col, message)

    @staticmethod
    def _sent_ops(modules: List[ModuleSource]
                  ) -> Dict[str, List[Tuple[ModuleSource, int, int]]]:
        out: Dict[str, List[Tuple[ModuleSource, int, int]]] = {}
        for module in modules:
            for node in module.nodes:
                if not isinstance(node, ast.Dict):
                    continue
                for key, value in zip(node.keys, node.values):
                    if (
                        isinstance(key, ast.Constant) and key.value == "op"
                        and isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                    ):
                        sites = out.setdefault(value.value, [])
                        sites.append((module, node.lineno,
                                      node.col_offset))
        return out

    @classmethod
    def _handled_ops(cls, modules: List[ModuleSource]
                     ) -> Dict[str, List[Tuple[ModuleSource, int, int]]]:
        out: Dict[str, List[Tuple[ModuleSource, int, int]]] = {}
        for module in modules:
            for node in module.nodes:
                if not isinstance(node, ast.Compare) or \
                        len(node.ops) != 1:
                    continue
                if not isinstance(node.ops[0], (ast.Eq, ast.NotEq,
                                                ast.In, ast.NotIn)):
                    continue
                sides = [node.left] + list(node.comparators)
                if not any(cls._is_op_expr(s) for s in sides):
                    continue
                for side in sides:
                    for op in cls._constant_strings(side):
                        sites = out.setdefault(op, [])
                        sites.append((module, node.lineno,
                                      node.col_offset))
        return out

    @staticmethod
    def _is_op_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id == "op":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "op":
            return True
        if isinstance(node, ast.Subscript):
            slc: ast.AST = node.slice
            return isinstance(slc, ast.Constant) and slc.value == "op"
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "get" and node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and \
                first.value == "op"
        return False

    @staticmethod
    def _constant_strings(node: ast.expr) -> List[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return [
                elt.value for elt in node.elts
                if isinstance(elt, ast.Constant)
                and isinstance(elt.value, str)
            ]
        return []

"""Project call-graph construction for flow-aware lint checkers.

The builder walks every parsed module of a :class:`~repro.lintkit.model.
Project` twice:

* **pass 1** collects a symbol table — module-level functions, classes
  (methods, annotated attribute types, base classes) — indexed under
  every dotted name the module is importable as (``campaign.engine`` and
  ``repro.campaign.engine`` for a root that is itself a package);
* **pass 2** resolves every call site to zero or more callee functions:
  imported names (through aliases and re-exporting ``__init__`` files),
  ``self``/``cls`` method dispatch through the class hierarchy
  (including subclass overrides), receivers typed by parameter/variable/
  attribute annotations, and closures/lambdas conservatively (a nested
  function or a function reference passed as an argument is treated as
  called).

Resolution is deliberately *partial*: a receiver whose type cannot be
derived from annotations produces no edge (documented limit), while
known-blocking and RNG-drawing primitives are recognised at the call
site itself (see :mod:`repro.lintkit.flow.effects`), so the analysis
stays useful even where types are opaque.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.lintkit.model import ModuleSource, Project, dotted_name

#: Call-edge kinds.  ``call`` — a direct invocation; ``ref`` — a function
#: reference passed as an argument or a nested def/lambda (conservatively
#: assumed to run in the caller's context); ``executor`` — a reference
#: handed to ``run_in_executor`` (runs off-loop: exceptions and RNG draws
#: still surface at the await, blocking does not stall the loop);
#: ``spawn`` — a reference handed to a ``Process``/``Thread`` target
#: (separate execution context: no effects propagate).
EDGE_KINDS = ("call", "ref", "executor", "spawn")

#: Receiver names that make an unresolved ``.join()`` call look like a
#: process/thread join rather than ``str.join``.
_JOIN_RECEIVER = re.compile(r"(proc|process|thread|worker|child|fleet)")

#: Receiver names that make an unresolved ``.get()`` call look like a
#: synchronous ``queue.Queue.get``.
_QUEUE_RECEIVER = re.compile(r"queue")

#: Receiver names that make a draw-method call look like an RNG stream.
_RNG_RECEIVER = re.compile(r"(rng|rand|stream|shadow|noise|drift|jitter)")

#: ``numpy.random.Generator`` draw methods (consume substream state).
_DRAW_METHODS = frozenset({
    "normal", "uniform", "integers", "random", "choice", "shuffle",
    "permutation", "standard_normal", "exponential", "poisson",
    "lognormal", "binomial", "geometric", "gamma", "beta", "rayleigh",
})

#: Fully qualified callables that block the calling thread.
_BLOCKING_TARGETS = {
    "time.sleep": "time.sleep()",
    "os.fsync": "os.fsync()",
    "os.fdatasync": "os.fdatasync()",
    "select.select": "select.select()",
    "socket.create_connection": "socket.create_connection()",
}

#: Module prefixes whose every call blocks (child process round-trips).
_BLOCKING_PREFIXES = ("subprocess.",)

#: ``pathlib.Path`` convenience I/O methods (block on disk).
_PATH_IO_ATTRS = frozenset({
    "read_text", "read_bytes", "write_text", "write_bytes",
})

#: Call targets that defer a function reference to a thread pool.
_EXECUTOR_ATTRS = frozenset({"run_in_executor"})

#: Call targets that hand a reference to a separate process/thread.
_SPAWN_NAMES = frozenset({"Process", "Thread"})

#: ``if`` tests mentioning any of these tokens gate telemetry, so an RNG
#: draw under them diverges between instrumented and bare runs.
_TELEMETRY_GUARD_TOKENS = ("enabled", "metrics_enabled", "collect_metrics",
                           "trace_enabled")


@dataclass
class Intrinsic:
    """One effect recognised directly at a call/raise site.

    Attributes:
        effect: ``"blocking"`` or ``"draws-rng"``.
        line, col: source location of the site.
        detail: human-readable primitive, e.g. ``"time.sleep()"``.
        guarded: the site sits under a telemetry-``enabled`` conditional.
    """

    effect: str
    line: int
    col: int
    detail: str
    guarded: bool = False


@dataclass
class RaiseSite:
    """One explicit ``raise`` statement inside a function body.

    Attributes:
        exc: terminal exception class name (``"ServiceError"``).
        line: source line of the ``raise``.
        caught: handler type names of enclosing ``try`` bodies at the
            site — exceptions those handlers catch never escape.
    """

    exc: str
    line: int
    caught: Tuple[str, ...] = ()


@dataclass
class FunctionInfo:
    """One function (or method, nested def, lambda) in the project."""

    fid: str
    relpath: str
    qualname: str
    line: int
    col: int
    is_async: bool
    intrinsics: List[Intrinsic] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)


@dataclass
class CallEdge:
    """One resolved call site: ``caller`` may invoke ``callee``.

    Attributes:
        caller, callee: function ids (``relpath:qualname``).
        line, col: location of the call site in the caller's module.
        kind: one of :data:`EDGE_KINDS`.
        awaited: the call expression is directly awaited.
        caught: handler type names of ``try`` bodies enclosing the site.
        guarded: the site sits under a telemetry-``enabled`` conditional.
    """

    caller: str
    callee: str
    line: int
    col: int
    kind: str = "call"
    awaited: bool = False
    caught: Tuple[str, ...] = ()
    guarded: bool = False


@dataclass
class ClassInfo:
    """One class: methods, annotated attribute types, base names."""

    cid: str
    relpath: str
    qualname: str
    bases: Tuple[str, ...] = ()
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class FlowGraph:
    """The project call graph plus the class/exception hierarchy."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    edges: List[CallEdge] = field(default_factory=list)
    #: exception/class name -> base class terminal names (project-wide,
    #: merged across modules; used for ``except`` subtype filtering).
    class_bases: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def edges_from(self) -> Dict[str, List[CallEdge]]:
        """Caller fid -> outgoing edges (computed on demand)."""
        out: Dict[str, List[CallEdge]] = {}
        for edge in self.edges:
            out.setdefault(edge.caller, []).append(edge)
        return out

    def edges_to(self) -> Dict[str, List[CallEdge]]:
        """Callee fid -> incoming edges (computed on demand)."""
        out: Dict[str, List[CallEdge]] = {}
        for edge in self.edges:
            out.setdefault(edge.callee, []).append(edge)
        return out


_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _terminal_name(node: ast.AST) -> Optional[str]:
    """Innermost identifier of a receiver expression (``a.b.c`` -> "c")."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    return None


def _ann_class_name(node: Optional[ast.AST]) -> Optional[str]:
    """Dotted class name named by an annotation, unwrapping quotes,
    ``Optional[...]`` and ``Union[...]``; ``None`` when no single project
    class is named."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return dotted_name(node)
    if isinstance(node, ast.Subscript):
        head = dotted_name(node.value)
        if head is None:
            return None
        tail = head.rsplit(".", 1)[-1]
        if tail in ("Optional", "Union"):
            slc: ast.AST = node.slice
            args = list(slc.elts) if isinstance(slc, ast.Tuple) else [slc]
            for arg in args:
                if isinstance(arg, ast.Constant) and arg.value is None:
                    continue
                name = _ann_class_name(arg)
                if name is not None:
                    return name
    return None


def _mentions_guard_token(test: ast.AST) -> bool:
    """Whether an ``if`` test involves a telemetry enablement flag."""
    for sub in ast.walk(test):
        terminal: Optional[str] = None
        if isinstance(sub, ast.Attribute):
            terminal = sub.attr
        elif isinstance(sub, ast.Name):
            terminal = sub.id
        if terminal is not None and terminal in _TELEMETRY_GUARD_TOKENS:
            return True
    return False


def _nested_defs(node: ast.AST
                 ) -> List[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    """Defs directly inside ``node``'s body (not inside a further def or
    class), in ``ast.walk`` order."""
    out: List[Union[ast.FunctionDef, ast.AsyncFunctionDef]] = []
    queue = deque(ast.iter_child_nodes(node))
    while queue:
        child = queue.popleft()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(child)
        elif not isinstance(child, ast.ClassDef):
            queue.extend(ast.iter_child_nodes(child))
    return out


class _ModuleTable:
    """Pass-1 symbol table of one module."""

    def __init__(self, module: ModuleSource) -> None:
        self.module = module
        self.functions: Dict[str, str] = {}   # name -> fid
        self.classes: Dict[str, str] = {}     # name -> cid
        self.imports: Dict[str, str] = module.imports


class GraphBuilder:
    """Builds a :class:`FlowGraph` for one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = FlowGraph()
        self._tables: Dict[str, _ModuleTable] = {}   # dotted name -> table
        self._by_relpath: Dict[str, _ModuleTable] = {}
        self._subclasses: Dict[str, List[str]] = {}  # cid -> subclass cids

    # ------------------------------------------------------------------
    # Pass 1: symbols
    # ------------------------------------------------------------------

    def _module_names(self, module: ModuleSource) -> List[str]:
        """Dotted names this module is importable as."""
        rel = module.relpath[:-3] if module.relpath.endswith(".py") \
            else module.relpath
        if rel.endswith("/__init__"):
            rel = rel[: -len("/__init__")]
        elif rel == "__init__":
            rel = ""
        dotted = rel.replace("/", ".")
        names = [dotted] if dotted else []
        root_pkg = self.project.root.name
        if (self.project.root / "__init__.py").exists():
            names.append(f"{root_pkg}.{dotted}" if dotted else root_pkg)
        return names

    def _collect_module(self, module: ModuleSource) -> None:
        table = _ModuleTable(module)
        for node in module.tree.body:
            self._collect_def(module, table, node, prefix="")
        for name in self._module_names(module):
            self._tables[name] = table
        self._by_relpath[module.relpath] = table

    def _collect_def(self, module: ModuleSource, table: _ModuleTable,
                     node: ast.stmt, prefix: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            fid = f"{module.relpath}:{qualname}"
            if not prefix:
                table.functions[node.name] = fid
            self.graph.functions[fid] = FunctionInfo(
                fid=fid, relpath=module.relpath, qualname=qualname,
                line=node.lineno, col=node.col_offset,
                is_async=isinstance(node, ast.AsyncFunctionDef))
            # nested defs are registered in pass 2 (_register_nested)
        elif isinstance(node, ast.ClassDef):
            qualname = f"{prefix}{node.name}"
            cid = f"{module.relpath}:{qualname}"
            if not prefix:
                table.classes[node.name] = cid
            bases = tuple(
                base for base in
                (dotted_name(b) for b in node.bases) if base is not None
            )
            cinfo = ClassInfo(cid=cid, relpath=module.relpath,
                              qualname=qualname, bases=bases)
            base_terminals = tuple(b.rsplit(".", 1)[-1] for b in bases)
            merged = self.graph.class_bases.get(node.name, ())
            self.graph.class_bases[node.name] = tuple(
                dict.fromkeys(merged + base_terminals))
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    m_qual = f"{qualname}.{stmt.name}"
                    m_fid = f"{module.relpath}:{m_qual}"
                    cinfo.methods[stmt.name] = m_fid
                    self.graph.functions[m_fid] = FunctionInfo(
                        fid=m_fid, relpath=module.relpath, qualname=m_qual,
                        line=stmt.lineno, col=stmt.col_offset,
                        is_async=isinstance(stmt, ast.AsyncFunctionDef))
                    if stmt.name == "__init__":
                        self._collect_self_attrs(cinfo, stmt)
                elif isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    ann = _ann_class_name(stmt.annotation)
                    if ann is not None:
                        cinfo.attr_types[stmt.target.id] = ann
            self.graph.classes[cid] = cinfo

    def _collect_self_attrs(self, cinfo: ClassInfo,
                            init: Union[ast.FunctionDef,
                                        ast.AsyncFunctionDef]) -> None:
        """``self.x: T = ...`` / ``self.x = ClassName(...)`` /
        ``self.x = annotated_param`` in __init__."""
        params: Dict[str, Optional[str]] = {}
        for arg in (list(init.args.posonlyargs) + list(init.args.args)
                    + list(init.args.kwonlyargs)):
            params[arg.arg] = _ann_class_name(arg.annotation)
        for node in ast.walk(init):
            target: Optional[ast.expr] = None
            ann: Optional[str] = None
            if isinstance(node, ast.AnnAssign):
                target = node.target
                ann = _ann_class_name(node.annotation)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(node.value, ast.Call):
                    ann = dotted_name(node.value.func)
                elif isinstance(node.value, ast.Name):
                    ann = params.get(node.value.id)
            if (
                ann is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in cinfo.attr_types
            ):
                cinfo.attr_types[target.attr] = ann

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------

    def _resolve_object(self, dotted: str, depth: int = 0
                        ) -> Optional[Tuple[str, str]]:
        """Resolve a fully qualified dotted name to ``(kind, id)``.

        ``kind`` is ``"func"`` or ``"class"``.  Follows re-exporting
        import aliases up to a fixed depth (``from .executor import x``
        in a package ``__init__`` resolves through to the definition).
        """
        if depth > 8:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            table = self._tables.get(prefix)
            if table is None:
                continue
            rest = parts[cut:]
            head = rest[0]
            if head in table.functions and len(rest) == 1:
                return ("func", table.functions[head])
            if head in table.classes:
                cid = table.classes[head]
                if len(rest) == 1:
                    return ("class", cid)
                if len(rest) == 2:
                    method = self._lookup_method(cid, rest[1])
                    if method is not None:
                        return ("func", method)
                return None
            if head in table.imports:
                target = ".".join([table.imports[head]] + rest[1:])
                return self._resolve_object(target, depth + 1)
            return None
        return None

    def _resolve_in_module(self, table: _ModuleTable, name: str,
                           ) -> Optional[Tuple[str, str]]:
        """Resolve a (possibly dotted) name appearing inside a module."""
        head, _, rest = name.partition(".")
        if head in table.functions and not rest:
            return ("func", table.functions[head])
        if head in table.classes:
            cid = table.classes[head]
            if not rest:
                return ("class", cid)
            if "." not in rest:
                method = self._lookup_method(cid, rest)
                if method is not None:
                    return ("func", method)
            return None
        if head in table.imports:
            target = table.imports[head] + (f".{rest}" if rest else "")
            return self._resolve_object(target)
        return None

    def _lookup_method(self, cid: str, name: str) -> Optional[str]:
        """Find ``name`` on class ``cid`` or its project base classes."""
        seen = set()
        stack = [cid]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            cinfo = self.graph.classes.get(current)
            if cinfo is None:
                continue
            if name in cinfo.methods:
                return cinfo.methods[name]
            table = self._by_relpath.get(cinfo.relpath)
            for base in cinfo.bases:
                resolved = None
                if table is not None:
                    resolved = self._resolve_in_module(table, base)
                if resolved is not None and resolved[0] == "class":
                    stack.append(resolved[1])
        return None

    def _dispatch_targets(self, cid: str, name: str) -> List[str]:
        """Method dispatch: the method on ``cid`` plus subclass overrides."""
        targets: List[str] = []
        base = self._lookup_method(cid, name)
        if base is not None:
            targets.append(base)
        for sub in self._subclasses.get(cid, []):
            override = self.graph.classes[sub].methods.get(name)
            if override is not None and override not in targets:
                targets.append(override)
        return targets

    def _link_subclasses(self) -> None:
        for cinfo in self.graph.classes.values():
            table = self._by_relpath.get(cinfo.relpath)
            if table is None:
                continue
            for base in cinfo.bases:
                resolved = self._resolve_in_module(table, base)
                if resolved is not None and resolved[0] == "class":
                    subs = self._subclasses.setdefault(resolved[1], [])
                    subs.append(cinfo.cid)
        # transitive closure so dispatch on a root sees deep overrides
        changed = True
        while changed:
            changed = False
            for cid, subs in list(self._subclasses.items()):
                extra = [
                    deep for sub in list(subs)
                    for deep in self._subclasses.get(sub, [])
                    if deep not in subs and deep != cid
                ]
                if extra:
                    subs.extend(extra)
                    changed = True

    # ------------------------------------------------------------------
    # Pass 2: call sites
    # ------------------------------------------------------------------

    def build(self) -> FlowGraph:
        """Run both passes and return the completed graph."""
        for module in self.project.modules:
            self._collect_module(module)
        self._link_subclasses()
        for module in self.project.modules:
            table = self._by_relpath[module.relpath]
            for node in module.tree.body:
                self._walk_scope(module, table, node, prefix="",
                                 class_cid=None)
        self.graph.edges.sort(
            key=lambda e: (e.caller, e.line, e.col, e.callee, e.kind))
        return self.graph

    def _walk_scope(self, module: ModuleSource, table: _ModuleTable,
                    node: ast.stmt, prefix: str,
                    class_cid: Optional[str]) -> None:
        """Descend into defs, analysing each function body exactly once."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            self._analyze_function(module, table, node, qualname, class_cid)
            for nested in _nested_defs(node):
                self._register_nested(module, table, nested,
                                      f"{qualname}.<locals>.",
                                      f"{module.relpath}:{qualname}",
                                      class_cid)
        elif isinstance(node, ast.ClassDef):
            cid = f"{module.relpath}:{prefix}{node.name}"
            for stmt in node.body:
                self._walk_scope(module, table, stmt,
                                 prefix=f"{prefix}{node.name}.",
                                 class_cid=cid)

    def _register_nested(self, module: ModuleSource, table: _ModuleTable,
                         node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                         prefix: str, parent_fid: str,
                         class_cid: Optional[str]) -> None:
        """A nested def: new node + conservative ``ref`` edge from parent."""
        qualname = f"{prefix}{node.name}"
        fid = f"{module.relpath}:{qualname}"
        if fid not in self.graph.functions:
            self.graph.functions[fid] = FunctionInfo(
                fid=fid, relpath=module.relpath, qualname=qualname,
                line=node.lineno, col=node.col_offset,
                is_async=isinstance(node, ast.AsyncFunctionDef))
        self.graph.edges.append(CallEdge(
            caller=parent_fid, callee=fid, line=node.lineno,
            col=node.col_offset, kind="ref",
            caught=self._caught_at(module, node),
            guarded=self._guarded_at(module, node)))
        self._analyze_function(module, table, node, qualname, class_cid)
        for nested in _nested_defs(node):
            self._register_nested(module, table, nested,
                                  f"{qualname}.<locals>.", fid, class_cid)

    # -- per-function analysis -----------------------------------------

    def _analyze_function(self, module: ModuleSource, table: _ModuleTable,
                          node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                          qualname: str, class_cid: Optional[str]) -> None:
        fid = f"{module.relpath}:{qualname}"
        info = self.graph.functions.get(fid)
        if info is None:
            return
        env = self._seed_env(table, node, class_cid)
        own = self._own_nodes(module, node)
        # Flow-insensitive env pass first: local types must be known
        # before any call in the body is resolved, regardless of where
        # the assignment sits.  Iterate to a small fixpoint so chains
        # like ``a = self._x; b = a.y`` resolve in any order.
        for _ in range(3):
            changed = False
            for sub in own:
                name: Optional[str] = None
                inferred: Optional[str] = None
                if isinstance(sub, ast.Assign) and \
                        len(sub.targets) == 1 and \
                        isinstance(sub.targets[0], ast.Name):
                    name = sub.targets[0].id
                    inferred = self._infer_type(table, sub.value, env,
                                                class_cid)
                elif isinstance(sub, ast.AnnAssign) and \
                        isinstance(sub.target, ast.Name):
                    name = sub.target.id
                    ann = _ann_class_name(sub.annotation)
                    if ann is not None:
                        resolved = self._resolve_in_module(table, ann)
                        if resolved is not None and resolved[0] == "class":
                            inferred = resolved[1]
                if name is not None and inferred is not None and \
                        env.get(name) != inferred:
                    env[name] = inferred
                    changed = True
            if not changed:
                break
        for sub in own:
            if isinstance(sub, ast.Call):
                self._analyze_call(module, table, node, fid, sub, env,
                                   class_cid)
            elif isinstance(sub, ast.Raise):
                self._analyze_raise(module, table, info, sub)

    def _own_nodes(self, module: ModuleSource,
                   func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                   ) -> List[ast.AST]:
        """Nodes of ``func``'s body excluding nested function subtrees."""
        out: List[ast.AST] = []
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            out.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return out

    def _seed_env(self, table: _ModuleTable,
                  node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                  class_cid: Optional[str]) -> Dict[str, str]:
        """Initial local-type environment from parameter annotations."""
        env: Dict[str, str] = {}
        args = list(node.args.posonlyargs) + list(node.args.args) + \
            list(node.args.kwonlyargs)
        for arg in args:
            if arg.arg in ("self", "cls") and class_cid is not None:
                env[arg.arg] = class_cid
                continue
            ann = _ann_class_name(arg.annotation)
            if ann is None:
                continue
            resolved = self._resolve_in_module(table, ann)
            if resolved is not None and resolved[0] == "class":
                env[arg.arg] = resolved[1]
        if class_cid is not None:
            env.setdefault("self", class_cid)
            env.setdefault("cls", class_cid)
        return env

    def _infer_type(self, table: _ModuleTable, expr: ast.AST,
                    env: Dict[str, str],
                    class_cid: Optional[str]) -> Optional[str]:
        """Class id of an expression, or ``None`` when unknown."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self._infer_type(table, expr.value, env, class_cid)
            if owner is None:
                return None
            cinfo = self.graph.classes.get(owner)
            if cinfo is None:
                return None
            ann = cinfo.attr_types.get(expr.attr)
            if ann is None:
                return None
            owner_table = self._by_relpath.get(cinfo.relpath)
            if owner_table is None:
                return None
            resolved = self._resolve_in_module(owner_table, ann)
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
            return None
        if isinstance(expr, ast.Call):
            target = dotted_name(expr.func)
            if target is None:
                return None
            resolved = self._resolve_in_module(table, target)
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
            return None
        return None

    def _caught_at(self, module: ModuleSource,
                   node: ast.AST) -> Tuple[str, ...]:
        """Handler type names of every ``try`` body enclosing ``node``."""
        caught: List[str] = []
        current: ast.AST = node
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.Try):
                # ``current`` is the ancestor's child on the path to node
                if any(stmt is current for stmt in ancestor.body):
                    for handler in ancestor.handlers:
                        caught.extend(self._handler_names(handler))
            current = ancestor
        return tuple(dict.fromkeys(caught))

    @staticmethod
    def _handler_names(handler: ast.ExceptHandler) -> List[str]:
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

    def _guarded_at(self, module: ModuleSource, node: ast.AST) -> bool:
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.If) and \
                    _mentions_guard_token(ancestor.test):
                return True
        return False

    def _analyze_raise(self, module: ModuleSource, table: _ModuleTable,
                       info: FunctionInfo, node: ast.Raise) -> None:
        caught = self._caught_at(module, node)
        if node.exc is None:
            # bare re-raise: propagates whatever the handler caught
            for ancestor in module.ancestors(node):
                if isinstance(ancestor, ast.ExceptHandler):
                    for name in self._handler_names(ancestor):
                        info.raises.append(RaiseSite(
                            exc=name, line=node.lineno, caught=caught))
                    return
            info.raises.append(RaiseSite(exc="Exception", line=node.lineno,
                                         caught=caught))
            return
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = dotted_name(exc)
        if name is None:
            return
        resolved = self._resolve_in_module(table, name)
        if resolved is not None:
            name = resolved[1].rsplit(":", 1)[-1]
        info.raises.append(RaiseSite(exc=name.rsplit(".", 1)[-1],
                                     line=node.lineno, caught=caught))

    # -- call sites ----------------------------------------------------

    def _analyze_call(self, module: ModuleSource, table: _ModuleTable,
                      func_node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                      fid: str, call: ast.Call, env: Dict[str, str],
                      class_cid: Optional[str]) -> None:
        info = self.graph.functions[fid]
        awaited = isinstance(module.parents.get(call), ast.Await)
        caught = self._caught_at(module, call)
        guarded = self._guarded_at(module, call)

        self._intrinsic_effects(table, info, call, awaited, guarded)

        targets = self._callee_targets(table, call, env, class_cid)
        for target in targets:
            self.graph.edges.append(CallEdge(
                caller=fid, callee=target, line=call.lineno,
                col=call.col_offset, kind="call", awaited=awaited,
                caught=caught, guarded=guarded))

        # Function references passed as arguments run later in some
        # context; classify that context by the call target.
        kind = "ref"
        func_terminal = _terminal_name(call.func)
        if func_terminal in _EXECUTOR_ATTRS:
            kind = "executor"
        elif func_terminal in _SPAWN_NAMES or (
                func_terminal is not None and func_terminal == "get_context"):
            kind = "spawn"
        ref_args = list(call.args) + [kw.value for kw in call.keywords]
        for arg in ref_args:
            if not isinstance(arg, (ast.Name, ast.Attribute)):
                continue
            resolved = self._reference_target(table, arg, env, class_cid)
            if resolved is None:
                continue
            ref_kind = kind
            for kw in call.keywords:
                if kw.arg == "target" and kw.value is arg:
                    ref_kind = "spawn"
            self.graph.edges.append(CallEdge(
                caller=fid, callee=resolved, line=call.lineno,
                col=call.col_offset, kind=ref_kind, awaited=awaited,
                caught=caught, guarded=guarded))

    def _reference_target(self, table: _ModuleTable, arg: ast.expr,
                          env: Dict[str, str],
                          class_cid: Optional[str]) -> Optional[str]:
        """Function id named by a bare function-reference argument."""
        if isinstance(arg, ast.Attribute) and \
                isinstance(arg.value, ast.Name):
            owner = env.get(arg.value.id)
            if owner is not None:
                method = self._lookup_method(owner, arg.attr)
                if method is not None:
                    return method
        name = dotted_name(arg)
        if name is None:
            return None
        resolved = self._resolve_in_module(table, name)
        if resolved is not None and resolved[0] == "func":
            return resolved[1]
        return None

    def _callee_targets(self, table: _ModuleTable, call: ast.Call,
                        env: Dict[str, str],
                        class_cid: Optional[str]) -> List[str]:
        """Resolve a call expression to zero or more function ids."""
        func = call.func
        # Plain / dotted names through imports and locals.
        name = dotted_name(func)
        if name is not None:
            head, _, rest = name.partition(".")
            if head in env and rest:
                # typed receiver: method dispatch incl. subclass overrides
                return self._attr_dispatch(table, env[head], rest)
            resolved = self._resolve_in_module(table, name)
            if resolved is not None:
                if resolved[0] == "func":
                    return [resolved[1]]
                init = self._lookup_method(resolved[1], "__init__")
                return [init] if init is not None else []
            return []
        # Method call on a computable receiver expression.
        if isinstance(func, ast.Attribute):
            owner = self._infer_type(table, func.value, env, class_cid)
            if owner is not None:
                return self._dispatch_targets(owner, func.attr)
        return []

    def _attr_dispatch(self, table: _ModuleTable, cid: str,
                       rest: str) -> List[str]:
        """Dispatch ``receiver.a.b()`` where receiver has class ``cid``."""
        parts = rest.split(".")
        current = cid
        for attr in parts[:-1]:
            cinfo = self.graph.classes.get(current)
            if cinfo is None:
                return []
            ann = cinfo.attr_types.get(attr)
            if ann is None:
                return []
            owner_table = self._by_relpath.get(cinfo.relpath)
            if owner_table is None:
                return []
            resolved = self._resolve_in_module(owner_table, ann)
            if resolved is None or resolved[0] != "class":
                return []
            current = resolved[1]
        return self._dispatch_targets(current, parts[-1])

    # -- intrinsic effects ---------------------------------------------

    def _intrinsic_effects(self, table: _ModuleTable, info: FunctionInfo,
                           call: ast.Call, awaited: bool,
                           guarded: bool) -> None:
        """Recognise blocking / RNG-drawing primitives at the site."""
        func = call.func
        dotted = dotted_name(func)
        resolved: Optional[str] = None
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            base = table.imports.get(head, head)
            resolved = f"{base}.{rest}" if rest else base

        if not awaited:
            detail = self._blocking_detail(resolved, func, call)
            if detail is not None:
                info.intrinsics.append(Intrinsic(
                    effect="blocking", line=call.lineno,
                    col=call.col_offset, detail=detail, guarded=guarded))
        detail = self._rng_detail(resolved, func)
        if detail is not None:
            info.intrinsics.append(Intrinsic(
                effect="draws-rng", line=call.lineno, col=call.col_offset,
                detail=detail, guarded=guarded))

    @staticmethod
    def _blocking_detail(resolved: Optional[str], func: ast.expr,
                         call: ast.Call) -> Optional[str]:
        if resolved is not None:
            if resolved in _BLOCKING_TARGETS:
                return _BLOCKING_TARGETS[resolved]
            for prefix in _BLOCKING_PREFIXES:
                if resolved.startswith(prefix):
                    return f"{resolved}()"
        if isinstance(func, ast.Name) and func.id == "open":
            return "open()"
        if isinstance(func, ast.Attribute):
            if func.attr in _PATH_IO_ATTRS:
                return f"Path.{func.attr}()"
            if func.attr == "open":
                return ".open()"
            receiver = _terminal_name(func.value)
            if receiver is not None:
                lowered = receiver.lower()
                if func.attr == "join" and _JOIN_RECEIVER.search(lowered):
                    return f"{receiver}.join()"
                if func.attr == "get" and _QUEUE_RECEIVER.search(lowered):
                    return f"{receiver}.get()"
        return None

    @staticmethod
    def _rng_detail(resolved: Optional[str],
                    func: ast.expr) -> Optional[str]:
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr not in _DRAW_METHODS:
            return None
        receiver = func.value
        if isinstance(receiver, ast.Call) and \
                isinstance(receiver.func, ast.Attribute) and \
                receiver.func.attr in ("get", "child"):
            return f"<stream>.{func.attr}()"
        terminal = _terminal_name(receiver)
        if terminal is not None and _RNG_RECEIVER.search(terminal.lower()):
            return f"{terminal}.{func.attr}()"
        return None


def build_graph(project: Project) -> FlowGraph:
    """Build the project call graph (two passes over every module)."""
    return GraphBuilder(project).build()

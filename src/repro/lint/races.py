"""Static lockset / lock-order analysis (RACE001–RACE005).

The telemetry server's scrape thread reads the metrics registry, the
event bus and the fleet's health while the run loop mutates them; the
answers are only as consistent as the locking discipline of
:mod:`repro.obs`.  This pass verifies that discipline before runtime,
in the spirit of static workflow-soundness checking applied to our own
implementation:

1. **Thread roots.**  Callables handed to ``threading.Thread`` /
   ``Timer``, executor/pool ``submit``/``map`` targets, ``do_*``
   methods of HTTP handler classes, and ``subscribe``/``set_hook``
   callbacks are entry points that may run off the main thread.
2. **Shared-state inventory.**  An interprocedural call graph (with
   lightweight attribute/parameter type inference) finds the instance
   attributes and module globals reachable from those roots; together
   with the implicit main thread that makes them shared (≥2 roots).
3. **Lockset analysis.**  Classes that *own* a lock (``self._lock =
   threading.Lock()`` or :func:`repro.obs.locks.make_lock`) declare
   their fields shared; every write must hold a lock.  Entry locksets
   of private helpers are the meet (intersection) over their call
   sites, so ``Gauge._set_locked`` — lexically lock-free — is still
   recognized as guarded.  A may-hold analysis builds the
   lock-acquisition graph for deadlock detection.

Rules (catalogued in :mod:`repro.lint.diagnostics`):

- RACE001 — unguarded write to shared state (lock-owning class field
  written with no lock held, or a shared module global).
- RACE002 — inconsistent guard: the same field protected by different
  locks on different paths.
- RACE003 — lock-order inversion: a cycle in the acquisition graph
  (or a non-reentrant self-acquire).
- RACE004 — lock held across a blocking call (sleep/join/wait/serve).
- RACE005 — mutable package state escaping into a thread.

Deliberate exceptions are silenced in place with the determinism-lint
pragma convention::

    self._thread = t  # lint: allow[RACE001] owner-thread confined

Classes without locks are intentionally out of scope here, because the
static contract we enforce is "if you own a lock, use it everywhere";
the dynamic sanitizer (:mod:`repro.lint.sanitizer`) checks the
instrumented objects at runtime.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.diagnostics import Diagnostic, RULES
from repro.lint.determinism import _allowed_rules

__all__ = [
    "RootInfo",
    "RaceAnalysis",
    "analyze_sources",
    "analyze_paths",
    "lint_races",
]

# Lock constructors.  The dotted names are resolved through each
# module's import aliases, so ``from threading import Lock`` works too.
_LOCK_CTORS = {
    "threading.Lock": False,
    "threading.RLock": True,
    "repro.obs.locks.make_lock": False,
    "repro.obs.locks.make_rlock": True,
}

# Constructors of mutable module-global containers.
_MUTABLE_CTORS = {
    "dict", "list", "set", "bytearray",
    "collections.defaultdict", "collections.deque",
    "collections.OrderedDict", "collections.Counter",
}

# Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "add", "insert",
    "remove", "discard", "pop", "popleft", "popitem", "clear",
    "update", "setdefault", "sort", "reverse",
})

# Dotted callables that block the calling thread.
_BLOCKING_DOTTED = frozenset({
    "time.sleep", "select.select", "signal.pause",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "socket.create_connection",
    "urllib.request.urlopen",
})

# Attribute suffixes that block regardless of receiver.
_BLOCKING_ATTRS = frozenset({"serve_forever", "wait", "result"})

# Attribute suffixes that block when the receiver smells like a
# thread / worker pool (``pool.map``, ``executor.submit``, ``t.join``).
_BLOCKING_POOL_ATTRS = frozenset({"join", "map", "submit", "shutdown"})
_POOLISH_HINTS = ("pool", "executor", "thread", "worker", "proc")

_TOP = None  # lattice top for the must-hold analysis


def _is_poolish(name: Optional[str]) -> bool:
    if not name:
        return False
    low = name.lower()
    return any(h in low for h in _POOLISH_HINTS)


def _ann_name(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort class name out of an annotation node."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        base = _ann_name(node.value)
        inner = node.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[0]
        if base in ("Optional", "Union"):
            return _ann_name(inner)
        return None
    return None


@dataclass
class _ClassInfo:
    name: str
    module: str
    filename: str
    lineno: int
    bases: List[str] = field(default_factory=list)
    lock_attrs: Dict[str, bool] = field(default_factory=dict)  # attr -> reentrant
    attr_types: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    ret_ann: Dict[str, str] = field(default_factory=dict)
    is_handler: bool = False  # BaseHTTPRequestHandler-style class


@dataclass
class _ModuleInfo:
    name: str
    filename: str
    tree: ast.Module
    aliases: Dict[str, str] = field(default_factory=dict)
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    global_locks: Dict[str, bool] = field(default_factory=dict)  # name -> reentrant
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: Dict[str, _ClassInfo] = field(default_factory=dict)


class _Summary:
    """Per-function facts gathered by the AST walk."""

    def __init__(self, key: str, module: str, filename: str,
                 class_name: Optional[str], lineno: int, public: bool) -> None:
        self.key = key
        self.module = module
        self.filename = filename
        self.class_name = class_name
        self.lineno = lineno
        self.public = public
        # (token, lineno, held) — token is "Class.attr" or "mod::NAME"
        self.writes: List[Tuple[str, int, FrozenSet[str]]] = []
        self.reads: List[Tuple[str, int, FrozenSet[str]]] = []
        # (lock token, lineno, held-before, reentrant)
        self.acquires: List[Tuple[str, int, FrozenSet[str], bool]] = []
        # (callee key, lineno, held)
        self.calls: List[Tuple[str, int, FrozenSet[str]]] = []
        # (description, lineno, held)
        self.blocking: List[Tuple[str, int, FrozenSet[str]]] = []
        # (description, lineno, escaping callee key or None)
        self.escapes: List[Tuple[str, int, Optional[str]]] = []


@dataclass(frozen=True)
class RootInfo:
    """One discovered thread entry point."""

    key: str      # function key ("Class.method" or "module::fn")
    kind: str     # thread-target | timer | pool-target | handler | callback
    file: str
    line: int


@dataclass
class RaceAnalysis:
    """Everything the static pass derived, not just the findings."""

    roots: List[RootInfo]
    #: shared item ("Class.attr" or "mod::NAME") -> sorted root keys
    #: (always includes the implicit "main" thread).
    shared: Dict[str, List[str]]
    diagnostics: List[Diagnostic]


class _Index:
    """Cross-module name/type index."""

    def __init__(self, modules: List[_ModuleInfo]) -> None:
        self.modules = {m.name: m for m in modules}
        self.classes: Dict[str, _ClassInfo] = {}
        for m in modules:
            for c in m.classes.values():
                # First definition wins; bare-name collisions are rare
                # inside one package and only degrade precision.
                self.classes.setdefault(c.name, c)
        self.functions: Dict[str, Tuple[_ModuleInfo, ast.FunctionDef]] = {}
        for m in modules:
            for fname, node in m.functions.items():
                self.functions[f"{m.name}::{fname}"] = (m, node)

    # -- inheritance-aware lookups ----------------------------------------

    def _mro(self, cls: _ClassInfo) -> List[_ClassInfo]:
        out, seen, work = [], set(), [cls]
        while work:
            c = work.pop(0)
            if c.name in seen:
                continue
            seen.add(c.name)
            out.append(c)
            for b in c.bases:
                base = self.classes.get(b)
                if base is not None:
                    work.append(base)
        return out

    def lock_owner(self, cls: _ClassInfo, attr: str) -> Optional[Tuple[_ClassInfo, bool]]:
        """The class in ``cls``'s ancestry that installs lock ``attr``."""
        for c in self._mro(cls):
            if attr in c.lock_attrs:
                return c, c.lock_attrs[attr]
        return None

    def lock_attrs(self, cls: _ClassInfo) -> Dict[str, Tuple[str, bool]]:
        """attr -> (token, reentrant) for all owned+inherited locks."""
        out: Dict[str, Tuple[str, bool]] = {}
        for c in reversed(self._mro(cls)):
            for attr, reent in c.lock_attrs.items():
                out[attr] = (f"{c.name}.{attr}", reent)
        return out

    def attr_type(self, cls: _ClassInfo, attr: str) -> Optional[str]:
        for c in self._mro(cls):
            if attr in c.attr_types:
                return c.attr_types[attr]
        return None

    def method_key(self, cls_name: str, method: str) -> Optional[str]:
        cls = self.classes.get(cls_name)
        if cls is None:
            return None
        for c in self._mro(cls):
            if method in c.methods:
                return f"{c.name}.{method}"
        return None

    def ret_ann(self, cls_name: str, method: str) -> Optional[str]:
        cls = self.classes.get(cls_name)
        if cls is None:
            return None
        for c in self._mro(cls):
            if method in c.ret_ann:
                return c.ret_ann[method]
        return None


# ---------------------------------------------------------------------------
# Phase A — structure collection
# ---------------------------------------------------------------------------

def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.level == 0:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return aliases


def _resolve_dotted(aliases: Dict[str, str], node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve_dotted(aliases, node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def _ctor_of(aliases: Dict[str, str], call: ast.AST) -> Optional[str]:
    """Dotted name of the constructor when ``call`` is ``X(...)``."""
    if not isinstance(call, ast.Call):
        return None
    dotted = _resolve_dotted(aliases, call.func)
    if dotted is not None:
        return dotted
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _module_name(path: Path) -> str:
    parts = list(path.with_suffix("").parts)
    for anchor in ("src",):
        if anchor in parts:
            parts = parts[parts.index(anchor) + 1:]
            break
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def _collect_module(name: str, filename: str, source: str) -> _ModuleInfo:
    tree = ast.parse(source, filename=filename)
    mod = _ModuleInfo(name=name, filename=filename, tree=tree)
    mod.aliases = _collect_aliases(tree)

    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            ctor = _ctor_of(mod.aliases, node.value)
            if ctor in _LOCK_CTORS:
                mod.global_locks[target] = _LOCK_CTORS[ctor]
            elif ctor in _MUTABLE_CTORS or isinstance(
                    node.value, (ast.Dict, ast.List, ast.Set,
                                 ast.ListComp, ast.DictComp, ast.SetComp)):
                mod.mutable_globals[target] = node.lineno
        elif isinstance(node, ast.FunctionDef):
            mod.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            mod.classes[node.name] = _collect_class(mod, node)
    return mod


def _collect_class(mod: _ModuleInfo, node: ast.ClassDef) -> _ClassInfo:
    info = _ClassInfo(name=node.name, module=mod.name,
                      filename=mod.filename, lineno=node.lineno)
    for base in node.bases:
        dotted = _resolve_dotted(mod.aliases, base) or ""
        bare = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else "")
        info.bases.append(bare)
        if "BaseHTTPRequestHandler" in dotted or \
                "BaseHTTPRequestHandler" in bare:
            info.is_handler = True
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            ann = _ann_name(item.annotation)
            if ann:
                info.attr_types[item.target.id] = ann
        elif isinstance(item, ast.FunctionDef):
            info.methods[item.name] = item
            ret = _ann_name(item.returns)
            if ret:
                info.ret_ann[item.name] = ret
            # Lock installation: self.X = threading.Lock()/make_lock(...)
            for stmt in ast.walk(item):
                if not isinstance(stmt, ast.Assign):
                    continue
                ctor = _ctor_of(mod.aliases, stmt.value)
                if ctor not in _LOCK_CTORS:
                    continue
                for t in stmt.targets:
                    if isinstance(t, ast.Attribute) and \
                            isinstance(t.value, ast.Name) and \
                            t.value.id == "self":
                        info.lock_attrs[t.attr] = _LOCK_CTORS[ctor]
    return info


def _resolve_attr_types(index: _Index) -> None:
    """Second structural pass: infer ``self.x`` types per class."""
    for mod in index.modules.values():
        for cls in mod.classes.values():
            for mname, meth in cls.methods.items():
                params = {
                    a.arg: _ann_name(a.annotation)
                    for a in meth.args.args + meth.args.kwonlyargs
                    if a.annotation is not None
                }
                for stmt in ast.walk(meth):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    for t in stmt.targets:
                        if not (isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"):
                            continue
                        typ = _static_expr_type(
                            index, mod, cls, params, stmt.value)
                        if typ and t.attr not in cls.attr_types:
                            cls.attr_types[t.attr] = typ


def _static_expr_type(index: _Index, mod: _ModuleInfo, cls: _ClassInfo,
                      params: Dict[str, Optional[str]],
                      expr: ast.AST) -> Optional[str]:
    if isinstance(expr, ast.Name):
        typ = params.get(expr.id)
        if typ and typ in index.classes:
            return typ
        return None
    if isinstance(expr, ast.Call):
        ctor = _ctor_of(mod.aliases, expr)
        if ctor:
            bare = ctor.split(".")[-1]
            if bare in index.classes:
                return bare
        # self.registry.counter(...) -> return annotation
        if isinstance(expr.func, ast.Attribute):
            recv = expr.func.value
            if isinstance(recv, ast.Attribute) and \
                    isinstance(recv.value, ast.Name) and recv.value.id == "self":
                recv_t = index.attr_type(cls, recv.attr)
                if recv_t:
                    ret = index.ret_ann(recv_t, expr.func.attr)
                    if ret and ret in index.classes:
                        return ret
            if isinstance(recv, ast.Name):
                recv_t = params.get(recv.id)
                if recv_t:
                    ret = index.ret_ann(recv_t, expr.func.attr)
                    if ret and ret in index.classes:
                        return ret
    return None


# ---------------------------------------------------------------------------
# Phase B — per-function summaries
# ---------------------------------------------------------------------------

class _FuncWalker(ast.NodeVisitor):
    """Walks one function body, tracking held locks and local types."""

    def __init__(self, analyzer: "_Analyzer", summary: _Summary,
                 mod: _ModuleInfo, cls: Optional[_ClassInfo],
                 node: ast.FunctionDef) -> None:
        self.an = analyzer
        self.s = summary
        self.mod = mod
        self.cls = cls
        self.node = node
        self.held: List[str] = []
        self.globals_declared: Set[str] = set()
        # local name -> ("type", ClassName) | ("func", key)
        self.env: Dict[str, Tuple[str, str]] = {}
        for a in node.args.args + node.args.kwonlyargs:
            ann = _ann_name(a.annotation)
            if ann and ann in analyzer.index.classes:
                self.env[a.arg] = ("type", ann)

    # -- helpers -----------------------------------------------------------

    def _held(self) -> FrozenSet[str]:
        return frozenset(self.held)

    def _expr_type(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.cls is not None:
                return self.cls.name
            kind_val = self.env.get(expr.id)
            if kind_val and kind_val[0] == "type":
                return kind_val[1]
            return None
        if isinstance(expr, ast.Attribute):
            base_t = self._expr_type(expr.value)
            if base_t:
                cls = self.an.index.classes.get(base_t)
                if cls is not None:
                    return self.an.index.attr_type(cls, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            ctor = _ctor_of(self.mod.aliases, expr)
            if ctor and ctor.split(".")[-1] in self.an.index.classes:
                return ctor.split(".")[-1]
            if isinstance(expr.func, ast.Attribute):
                recv_t = self._expr_type(expr.func.value)
                if recv_t:
                    ret = self.an.index.ret_ann(recv_t, expr.func.attr)
                    if ret and ret in self.an.index.classes:
                        return ret
        return None

    def _lock_token(self, expr: ast.AST) -> Optional[Tuple[str, bool]]:
        """Resolve a with-context expression to a lock identity."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr == "acquire":
            expr = expr.func.value
        if isinstance(expr, ast.Name):
            if expr.id in self.mod.global_locks:
                return (f"{self.mod.name}::{expr.id}",
                        self.mod.global_locks[expr.id])
            return None
        if isinstance(expr, ast.Attribute):
            base_t = self._expr_type(expr.value)
            if base_t:
                cls = self.an.index.classes.get(base_t)
                if cls is not None:
                    owner = self.an.index.lock_owner(cls, expr.attr)
                    if owner is not None:
                        oc, reent = owner
                        return f"{oc.name}.{expr.attr}", reent
            dotted = _resolve_dotted(self.mod.aliases, expr)
            if dotted:
                mod_name, _, lock = dotted.rpartition(".")
                other = self.an.index.modules.get(mod_name)
                if other and lock in other.global_locks:
                    return f"{mod_name}::{lock}", other.global_locks[lock]
        return None

    def _resolve_callee(self, func: ast.AST) -> Optional[str]:
        if isinstance(func, ast.Name):
            kind_val = self.env.get(func.id)
            if kind_val and kind_val[0] == "func":
                return kind_val[1]
            if func.id in self.mod.functions:
                return f"{self.mod.name}::{func.id}"
            dotted = self.mod.aliases.get(func.id)
            if dotted:
                mod_name, _, fn = dotted.rpartition(".")
                if f"{mod_name}::{fn}" in self.an.index.functions:
                    return f"{mod_name}::{fn}"
                if fn in self.an.index.classes:
                    return self.an.index.method_key(fn, "__init__")
            if func.id in self.mod.classes:
                return self.an.index.method_key(func.id, "__init__")
            return None
        if isinstance(func, ast.Attribute):
            recv_t = self._expr_type(func.value)
            if recv_t:
                return self.an.index.method_key(recv_t, func.attr)
            dotted = _resolve_dotted(self.mod.aliases, func)
            if dotted:
                mod_name, _, fn = dotted.rpartition(".")
                if f"{mod_name}::{fn}" in self.an.index.functions:
                    return f"{mod_name}::{fn}"
        return None

    def _describe_target(self, expr: ast.AST) -> str:
        try:
            return ast.unparse(expr)  # py>=3.9
        except Exception:  # pragma: no cover - unparse is stdlib on 3.9+
            return "<callable>"

    # -- nested scopes -----------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        key = f"{self.s.key}.<locals>.{node.name}"
        self.env[node.name] = ("func", key)
        self.an.walk_function(key, self.mod, self.cls, node,
                              public=False, filename=self.s.filename)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # opaque; flagged at escape sites only

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # local classes are out of scope

    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)

    # -- lock acquisition --------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            # Visit the context expression first (calls inside it happen
            # before the lock is held).
            self.visit(item.context_expr)
            resolved = self._lock_token(item.context_expr)
            if resolved is not None:
                token, reent = resolved
                self.s.acquires.append(
                    (token, item.context_expr.lineno, self._held(), reent))
                self.held.append(token)
                pushed += 1
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(pushed):
            self.held.pop()

    # -- assignments / env tracking ---------------------------------------

    def _record_write(self, token: str, lineno: int) -> None:
        self.s.writes.append((token, lineno, self._held()))

    def _handle_store_target(self, target: ast.AST, lineno: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._handle_store_target(elt, lineno)
            return
        if isinstance(target, ast.Starred):
            self._handle_store_target(target.value, lineno)
            return
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and target.value.id == "self" \
                and self.cls is not None:
            self._record_write(f"{self.cls.name}.{target.attr}", lineno)
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute) and \
                    isinstance(base.value, ast.Name) and base.value.id == "self" \
                    and self.cls is not None:
                self._record_write(f"{self.cls.name}.{base.attr}", lineno)
            elif isinstance(base, ast.Name) and \
                    base.id in self.mod.mutable_globals:
                self._record_write(f"{self.mod.name}::{base.id}", lineno)
            return
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared and \
                    target.id in self.mod.mutable_globals:
                self._record_write(f"{self.mod.name}::{target.id}", lineno)

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            self._handle_store_target(t, node.lineno)
            # local type tracking: v = ClassName(...) / v = self.attr
            if isinstance(t, ast.Name):
                typ = self._expr_type(node.value)
                if typ:
                    self.env[t.id] = ("type", typ)
                elif isinstance(node.value, ast.Name) and \
                        node.value.id in self.env:
                    self.env[t.id] = self.env[node.value.id]
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_store_target(node.target, node.lineno)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_store_target(node.target, node.lineno)
            if isinstance(node.target, ast.Name):
                typ = _ann_name(node.annotation)
                if typ and typ in self.an.index.classes:
                    self.env[node.target.id] = ("type", typ)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for t in node.targets:
            self._handle_store_target(t, node.lineno)

    # -- reads -------------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and \
                isinstance(node.value, ast.Name) and node.value.id == "self" \
                and self.cls is not None:
            self.s.reads.append(
                (f"{self.cls.name}.{node.attr}", node.lineno, self._held()))
        self.generic_visit(node)

    # -- calls: graph edges, mutators, blocking, escapes -------------------

    def visit_Call(self, node: ast.Call) -> None:
        held = self._held()
        lineno = node.lineno
        callee = self._resolve_callee(node.func)
        if callee is not None:
            self.s.calls.append((callee, lineno, held))

        # In-place mutation through a method call: self.x.append(...)
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATORS:
            base = node.func.value
            if isinstance(base, ast.Attribute) and \
                    isinstance(base.value, ast.Name) and \
                    base.value.id == "self" and self.cls is not None:
                self._record_write(f"{self.cls.name}.{base.attr}", lineno)
            elif isinstance(base, ast.Name) and \
                    base.id in self.mod.mutable_globals:
                self._record_write(f"{self.mod.name}::{base.id}", lineno)

        self._check_blocking(node, held)
        self._check_escape(node)
        self.generic_visit(node)

    def _check_blocking(self, node: ast.Call, held: FrozenSet[str]) -> None:
        dotted = _resolve_dotted(self.mod.aliases, node.func)
        desc = None
        if dotted in _BLOCKING_DOTTED:
            desc = dotted
        elif isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            recv = node.func.value
            recv_name = ""
            if isinstance(recv, ast.Name):
                recv_name = recv.id
            elif isinstance(recv, ast.Attribute):
                recv_name = recv.attr
            recv_t = self._expr_type(recv) or ""
            if attr in _BLOCKING_ATTRS:
                desc = f"{recv_name or '<obj>'}.{attr}"
            elif attr in _BLOCKING_POOL_ATTRS and (
                    _is_poolish(recv_name) or _is_poolish(recv_t)):
                desc = f"{recv_name or recv_t}.{attr}"
        if desc is not None:
            self.s.blocking.append((desc, node.lineno, held))

    def _escaping_callable(self, expr: ast.AST) -> Tuple[Optional[str], bool]:
        """(callee key, is-package-defined) for a thread-target expr."""
        if isinstance(expr, ast.Lambda):
            return None, True
        if isinstance(expr, ast.Name):
            kind_val = self.env.get(expr.id)
            if kind_val and kind_val[0] == "func":
                return kind_val[1], True
            if expr.id in self.mod.functions:
                return f"{self.mod.name}::{expr.id}", True
            return None, False
        if isinstance(expr, ast.Attribute):
            recv_t = self._expr_type(expr.value)
            if recv_t:
                key = self.an.index.method_key(recv_t, expr.attr)
                # A bound method of a package class escapes even when
                # the method body is inherited from the stdlib.
                return key, True
            dotted = _resolve_dotted(self.mod.aliases, expr)
            if dotted:
                mod_name, _, fn = dotted.rpartition(".")
                key = f"{mod_name}::{fn}"
                if key in self.an.index.functions:
                    return key, True
        return None, False

    def _check_escape(self, node: ast.Call) -> None:
        dotted = _resolve_dotted(self.mod.aliases, node.func) or ""
        target_expr: Optional[ast.AST] = None
        kind = ""
        if dotted == "threading.Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    target_expr, kind = kw.value, "thread-target"
        elif dotted == "threading.Timer":
            if len(node.args) >= 2:
                target_expr, kind = node.args[1], "timer"
        elif isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            recv = node.func.value
            recv_name = recv.id if isinstance(recv, ast.Name) else (
                recv.attr if isinstance(recv, ast.Attribute) else "")
            recv_t = self._expr_type(recv) or ""
            if attr in ("submit", "map") and (
                    _is_poolish(recv_name) or _is_poolish(recv_t)):
                if recv_t == "ProcessPoolExecutor" or \
                        "ProcessPool" in (recv_name or ""):
                    return  # separate address space: nothing is shared
                if node.args:
                    target_expr, kind = node.args[0], "pool-target"
            elif attr in ("subscribe", "set_hook") and node.args:
                # Callback registration: a root, but not a spawn site.
                key, _ = self._escaping_callable(node.args[0])
                if key is None and isinstance(node.args[0], ast.Name) and \
                        node.args[0].id == "self" and self.cls is not None:
                    key = self.an.index.method_key(self.cls.name, "__call__")
                if key is not None:
                    self.an.add_root(RootInfo(
                        key=key, kind="callback",
                        file=self.s.filename, line=node.lineno))
                return
        if target_expr is None:
            return
        key, package_defined = self._escaping_callable(target_expr)
        if key is not None:
            self.an.add_root(RootInfo(
                key=key, kind=kind, file=self.s.filename, line=node.lineno))
        if package_defined:
            self.s.escapes.append(
                (self._describe_target(target_expr), node.lineno, key))


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------

class _Analyzer:
    def __init__(self, modules: List[_ModuleInfo],
                 sources: Dict[str, str]) -> None:
        self.index = _Index(modules)
        _resolve_attr_types(self.index)
        self.sources = sources  # filename -> source text
        self.summaries: Dict[str, _Summary] = {}
        self.roots: Dict[Tuple[str, str], RootInfo] = {}
        self.findings: List[Diagnostic] = []

    # -- collection --------------------------------------------------------

    def add_root(self, root: RootInfo) -> None:
        self.roots.setdefault((root.key, root.kind), root)

    def walk_function(self, key: str, mod: _ModuleInfo,
                      cls: Optional[_ClassInfo], node: ast.FunctionDef,
                      public: bool, filename: str) -> None:
        summary = _Summary(key=key, module=mod.name, filename=filename,
                           class_name=cls.name if cls else None,
                           lineno=node.lineno, public=public)
        self.summaries[key] = summary
        walker = _FuncWalker(self, summary, mod, cls, node)
        for stmt in node.body:
            walker.visit(stmt)

    def collect(self) -> None:
        for mod in self.index.modules.values():
            for fname, node in mod.functions.items():
                public = not fname.startswith("_")
                self.walk_function(f"{mod.name}::{fname}", mod, None, node,
                                   public=public, filename=mod.filename)
            for cls in mod.classes.values():
                for mname, meth in cls.methods.items():
                    public = (not mname.startswith("_")) or (
                        mname.startswith("__") and mname.endswith("__"))
                    self.walk_function(f"{cls.name}.{mname}", mod, cls, meth,
                                       public=public, filename=mod.filename)
                if cls.is_handler:
                    for mname in cls.methods:
                        if mname.startswith("do_"):
                            self.add_root(RootInfo(
                                key=f"{cls.name}.{mname}", kind="handler",
                                file=cls.filename,
                                line=cls.methods[mname].lineno))

    # -- lattice analyses --------------------------------------------------

    def _call_sites(self) -> List[Tuple[str, str, FrozenSet[str]]]:
        sites = []
        for s in self.summaries.values():
            for callee, _lineno, held in s.calls:
                if callee in self.summaries:
                    sites.append((s.key, callee, held))
        return sites

    def _entry_locksets(self) -> Dict[str, Optional[FrozenSet[str]]]:
        """Must-hold lockset at function entry (None = never called)."""
        root_keys = {r.key for r in self.roots.values()}
        entry: Dict[str, Optional[FrozenSet[str]]] = {}
        for key, s in self.summaries.items():
            entry[key] = frozenset() if (s.public or key in root_keys) \
                else _TOP
        sites = self._call_sites()
        changed = True
        while changed:
            changed = False
            for caller, callee, held in sites:
                base = entry[caller]
                if base is _TOP:
                    continue
                eff = base | held
                cur = entry[callee]
                new = eff if cur is _TOP else (cur & eff)
                if new != cur:
                    entry[callee] = new
                    changed = True
        return entry

    def _may_locksets(self) -> Dict[str, FrozenSet[str]]:
        """May-hold lockset at entry (union over call sites)."""
        may: Dict[str, FrozenSet[str]] = {
            key: frozenset() for key in self.summaries
        }
        sites = self._call_sites()
        changed = True
        while changed:
            changed = False
            for caller, callee, held in sites:
                eff = may[caller] | held
                new = may[callee] | eff
                if new != may[callee]:
                    may[callee] = new
                    changed = True
        return may

    def _init_only(self) -> Set[str]:
        """Private methods reachable only from constructors."""
        callers: Dict[str, Set[str]] = {}
        for caller, callee, _held in self._call_sites():
            callers.setdefault(callee, set()).add(caller)
        root_keys = {r.key for r in self.roots.values()}

        def is_ctor(key: str) -> bool:
            return key.endswith(".__init__")

        init_only: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for key, s in self.summaries.items():
                if key in init_only or s.public or key in root_keys:
                    continue
                ins = callers.get(key)
                if not ins:
                    continue
                if all(is_ctor(c) or c in init_only for c in ins):
                    init_only.add(key)
                    changed = True
        return init_only

    def _thread_reachable(self) -> Dict[str, Set[str]]:
        """function key -> set of root keys that reach it."""
        edges: Dict[str, Set[str]] = {}
        for caller, callee, _held in self._call_sites():
            edges.setdefault(caller, set()).add(callee)
        reached: Dict[str, Set[str]] = {}
        for root in self.roots.values():
            if root.key not in self.summaries:
                continue
            work, seen = [root.key], {root.key}
            while work:
                cur = work.pop()
                reached.setdefault(cur, set()).add(root.key)
                for nxt in edges.get(cur, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        work.append(nxt)
        return reached

    # -- findings ----------------------------------------------------------

    def _emit(self, rule: str, message: str, where: str, filename: str,
              lineno: int, fix: str) -> None:
        self.findings.append(Diagnostic(
            rule=rule, severity=RULES[rule].severity, message=message,
            where=where, file=filename, line=lineno, fix=fix))

    def analyze(self) -> RaceAnalysis:
        self.collect()
        entry = self._entry_locksets()
        may = self._may_locksets()
        init_only = self._init_only()
        reached = self._thread_reachable()

        self._check_field_locksets(entry, init_only)
        self._check_globals(entry, reached)
        self._check_lock_order(may)
        self._check_blocking(entry)
        self._check_escapes()

        shared = self._inventory(reached)
        return RaceAnalysis(
            roots=sorted(self.roots.values(),
                         key=lambda r: (r.file, r.line, r.key)),
            shared=shared,
            diagnostics=self.findings,
        )

    def _disciplined_classes(self) -> List[_ClassInfo]:
        out = []
        for cls in self.index.classes.values():
            if self.index.lock_attrs(cls):
                out.append(cls)
        return out

    def _check_field_locksets(
            self, entry: Dict[str, Optional[FrozenSet[str]]],
            init_only: Set[str]) -> None:
        for cls in self._disciplined_classes():
            locks = self.index.lock_attrs(cls)
            lock_names = sorted(t for t, _ in locks.values())
            # field token -> list of (lockset, filename, lineno)
            guarded: Dict[str, List[Tuple[FrozenSet[str], str, int]]] = {}
            for mname in cls.methods:
                key = f"{cls.name}.{mname}"
                s = self.summaries.get(key)
                if s is None or key.endswith(".__init__") or key in init_only:
                    continue
                self._scan_writes(s, entry, cls, locks, lock_names, guarded,
                                  prefix=f"{cls.name}.")
                # Closures defined inside methods share the class scope.
                for ckey, cs in self.summaries.items():
                    if ckey.startswith(key + ".<locals>."):
                        self._scan_writes(cs, entry, cls, locks, lock_names,
                                          guarded, prefix=f"{cls.name}.")
            # RACE002: all guarded writes to one field must share a lock.
            for token, sites in guarded.items():
                if len(sites) < 2:
                    continue
                common = sites[0][0]
                for ls, fname, lineno in sites[1:]:
                    if common & ls:
                        common &= ls
                        continue
                    attr = token.split(".", 1)[1]
                    self._emit(
                        "RACE002",
                        f"field '{token}' is guarded by "
                        f"{{{', '.join(sorted(ls))}}} here but by "
                        f"{{{', '.join(sorted(common))}}} elsewhere — "
                        "no common lock",
                        where=f"{cls.name}.{attr}", filename=fname,
                        lineno=lineno,
                        fix="pick one lock for every access to the field")
                    break

    def _scan_writes(self, s: _Summary,
                     entry: Dict[str, Optional[FrozenSet[str]]],
                     cls: _ClassInfo, locks: Dict[str, Tuple[str, bool]],
                     lock_names: List[str],
                     guarded: Dict[str, List[Tuple[FrozenSet[str], str, int]]],
                     prefix: str) -> None:
        base = entry.get(s.key)
        if base is _TOP:
            return  # never called: no concurrency context to judge
        for token, lineno, held in s.writes:
            if not token.startswith(prefix):
                continue
            attr = token.split(".", 1)[1]
            if attr in locks:
                continue  # installing/replacing the lock object itself
            eff = base | held
            if not eff:
                self._emit(
                    "RACE001",
                    f"write to shared field '{token}' with no lock held "
                    f"(class owns {', '.join(lock_names)})",
                    where=f"{s.key}", filename=s.filename, lineno=lineno,
                    fix="guard the write with the owning lock or annotate "
                        "a confinement pragma")
            else:
                guarded.setdefault(token, []).append(
                    (eff, s.filename, lineno))

    def _check_globals(self, entry: Dict[str, Optional[FrozenSet[str]]],
                       reached: Dict[str, Set[str]]) -> None:
        for s in self.summaries.values():
            if s.key not in reached:
                continue  # only functions running off-main are checked
            base = entry.get(s.key)
            base = frozenset() if base is _TOP else base
            for token, lineno, held in s.writes:
                if "::" not in token:
                    continue
                eff = base | held
                if not eff:
                    self._emit(
                        "RACE001",
                        f"write to shared module global '{token}' with no "
                        f"lock held (reached from thread roots: "
                        f"{', '.join(sorted(reached[s.key]))})",
                        where=s.key, filename=s.filename, lineno=lineno,
                        fix="guard the global with a module lock")

    def _check_lock_order(self, may: Dict[str, FrozenSet[str]]) -> None:
        # held -> acquired -> example site
        edges: Dict[str, Dict[str, Tuple[str, int]]] = {}
        for s in self.summaries.values():
            for token, lineno, held_before, reentrant in s.acquires:
                context = may[s.key] | held_before
                for h in context:
                    if h == token:
                        if not reentrant:
                            self._emit(
                                "RACE003",
                                f"non-reentrant lock '{token}' may be "
                                "re-acquired while already held "
                                "(self-deadlock)",
                                where=s.key, filename=s.filename,
                                lineno=lineno,
                                fix="use an RLock or drop the outer hold")
                        continue
                    edges.setdefault(h, {}).setdefault(
                        token, (s.filename, lineno))
        # Cycle detection over the acquisition digraph.
        for cycle in _find_cycles(edges):
            a = cycle[0]
            b = cycle[1 % len(cycle)]
            fname, lineno = edges[a][b]
            path = " -> ".join(cycle + [cycle[0]])
            self._emit(
                "RACE003",
                f"lock-order inversion: acquisition cycle {path}",
                where=path, filename=fname, lineno=lineno,
                fix="acquire locks in hierarchy order (docs/LINT.md)")

    def _check_blocking(
            self, entry: Dict[str, Optional[FrozenSet[str]]]) -> None:
        for s in self.summaries.values():
            base = entry.get(s.key)
            base = frozenset() if base is _TOP else base
            for desc, lineno, held in s.blocking:
                eff = base | held
                if eff:
                    self._emit(
                        "RACE004",
                        f"blocking call '{desc}' while holding "
                        f"{{{', '.join(sorted(eff))}}}",
                        where=s.key, filename=s.filename, lineno=lineno,
                        fix="release the lock before blocking")

    def _check_escapes(self) -> None:
        for s in self.summaries.values():
            for desc, lineno, key in s.escapes:
                self._emit(
                    "RACE005",
                    f"'{desc}' escapes to a thread/pool from {s.key}; "
                    "captured mutable state becomes shared",
                    where=s.key, filename=s.filename, lineno=lineno,
                    fix="confine the state to one thread or guard it "
                        "with a lock, then annotate the site")

    def _inventory(self, reached: Dict[str, Set[str]]) -> Dict[str, List[str]]:
        shared: Dict[str, Set[str]] = {}
        for s in self.summaries.values():
            roots_here = reached.get(s.key)
            if not roots_here:
                continue
            for token, _lineno, _held in s.writes + s.reads:
                if "::" in token:
                    owner, attr = None, ""
                else:
                    cname, attr = token.split(".", 1)
                    owner = self.index.classes.get(cname)
                if owner is not None and (
                        attr in self.index.lock_attrs(owner)
                        or self.index.method_key(owner.name, attr)):
                    continue  # locks and bound methods are not "state"
                if "::" in token or (owner is not None
                                     and self.index.lock_attrs(owner)):
                    bucket = shared.setdefault(token, set())
                    bucket.update(roots_here)
                    bucket.add("main")
        return {token: sorted(roots)
                for token, roots in sorted(shared.items())}


def _find_cycles(edges: Dict[str, Dict[str, Tuple[str, int]]]) -> List[List[str]]:
    """Elementary cycles via DFS; deduplicated by rotation."""
    graph = {u: sorted(vs) for u, vs in edges.items()}
    seen_cycles: Set[Tuple[str, ...]] = set()
    cycles: List[List[str]] = []

    def dfs(start: str, node: str, path: List[str],
            on_path: Set[str]) -> None:
        for nxt in graph.get(node, ()):
            if nxt == start:
                lo = path.index(min(path))
                canon = tuple(path[lo:] + path[:lo])
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    cycles.append(list(canon))
            elif nxt not in on_path and nxt > start:
                # Only explore nodes > start so each cycle is found once
                # from its smallest member.
                path.append(nxt)
                on_path.add(nxt)
                dfs(start, nxt, path, on_path)
                on_path.discard(nxt)
                path.pop()

    for start in sorted(graph):
        dfs(start, start, [start], {start})
    return cycles


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def analyze_sources(sources: Dict[str, str],
                    filenames: Optional[Dict[str, str]] = None
                    ) -> RaceAnalysis:
    """Analyze in-memory modules: ``{dotted_module_name: source}``.

    Used by the mutation-canary tests; pragmas are honoured from the
    source text just like the file-based entry point.
    """
    filenames = filenames or {}
    modules, texts = [], {}
    for name, source in sorted(sources.items()):
        fname = filenames.get(name, f"<{name}>")
        modules.append(_collect_module(name, fname, source))
        texts[fname] = source
    analyzer = _Analyzer(modules, texts)
    result = analyzer.analyze()
    result.diagnostics = _filter_pragmas(result.diagnostics, texts)
    return result


def analyze_paths(paths: Iterable[Union[str, Path]]) -> RaceAnalysis:
    """Analyze ``.py`` files; directories are walked recursively.

    All files are analyzed as **one program** so cross-module call
    edges (CLI → fleet → obs) resolve.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    modules, texts = [], {}
    for path in files:
        source = path.read_text(encoding="utf-8")
        modules.append(_collect_module(_module_name(path), str(path), source))
        texts[str(path)] = source
    analyzer = _Analyzer(modules, texts)
    result = analyzer.analyze()
    result.diagnostics = _filter_pragmas(result.diagnostics, texts)
    return result


def _filter_pragmas(diags: List[Diagnostic],
                    texts: Dict[str, str]) -> List[Diagnostic]:
    lines_by_file = {fname: text.splitlines()
                     for fname, text in texts.items()}
    out = []
    for d in diags:
        lines = lines_by_file.get(d.file or "", [])
        if d.rule in _allowed_rules(lines, d.line):
            continue
        out.append(d)
    return out


def lint_races(paths: Iterable[Union[str, Path]]) -> List[Diagnostic]:
    """File-oriented entry point mirroring ``determinism.lint_paths``."""
    return analyze_paths(paths).diagnostics

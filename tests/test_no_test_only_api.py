"""No test-only public API: every public definition under ``src/repro``
has a caller outside ``tests/``, or an allow-list entry saying why a
test alone may call it.

A *definition* is a public top-level ``def``/``class`` of a module, or a
public method or property of a public top-level class. A *use* is a
reference from ``src/repro``, ``benchmarks/``, ``perfbench/`` or
``examples/``: a bare name, an attribute, a ``from … import`` alias, or
a string constant (getattr tables and report columns name methods as
strings). Re-exports in a package ``__init__.py``, ``__all__`` entries
and references inside the definition's own body are not uses. Names
are matched bare, so the guard errs toward finding a caller.

A bare match proves nothing for a name that ``str``, ``list``,
``dict`` or ``set`` methods also carry (``.count`` on a list is no
caller of ``LintReport.count``), so a definition by such a name needs
a ``CALLERS`` entry citing one real caller as ``path::Qualname``: the
function that reads the property or calls the method, so an edit
elsewhere in the file leaves the citation valid.

Dunders are exempt, and so are methods that override or are dispatched
by a base class from outside ``repro`` (``ast.NodeVisitor.visit_*``,
``BaseHTTPRequestHandler.do_GET``, ``Enum``/``Exception`` members).

Adding an allow-list entry needs a one-line reason; loosening the guard
needs a CHANGES.md entry (see CONTRIBUTING.md).
"""

from __future__ import annotations

import ast
import importlib
from collections import defaultdict
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import repro

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "perfbench", ROOT / "examples")

#: Bases outside ``repro`` that call methods by a name prefix.
DISPATCH_PREFIXES = {ast.NodeVisitor: "visit_", BaseHTTPRequestHandler: "do_"}

#: Test-only definitions kept on purpose, keyed ``module:Qualname`` (or
#: ``module`` for every definition in it), each with its reason.
ALLOWED: Dict[str, str] = {
    # Paper definitions that tests pin.
    "repro.workflow.spec:WorkflowSpec.execution_paths":
        "Section II-A execution paths of a workflow graph",
    "repro.workflow.spec:WorkflowSpec.is_acyclic":
        "Section II-A acyclic workflow graphs",
    "repro.workflow.dependency:DependencyAnalyzer.literal_flow":
        "Definition 1 flow dependence, verbatim",
    "repro.workflow.dependency:DependencyAnalyzer.literal_anti":
        "Definition 1 anti dependence, verbatim",
    "repro.workflow.dependency:DependencyAnalyzer.literal_output":
        "Definition 1 output dependence, verbatim",
    "repro.workflow.dependency:DependencyAnalyzer.flow_sources":
        "Definition 1 flow edges into one record",
    "repro.workflow.dependency:DependencyAnalyzer.flow_dependents":
        "Definition 1 flow edges out of one record",
    "repro.workflow.dependency:DependencyAnalyzer.anti_edges_from":
        "Definition 1 anti edges out of one record",
    "repro.workflow.dependency:DependencyAnalyzer.output_edges_from":
        "Definition 1 output edges out of one record",
    "repro.core.axioms:generates_incorrect_data":
        "Axiom 1 as a predicate over one log record",
    "repro.core.undo_redo:UndoAnalysis.all_possible":
        "Theorem 1's definite plus candidate undo set",
    "repro.workflow.precedence:PartialOrder.direct_successors":
        "Section II-B precedence: the direct successors of an element",
    "repro.workflow.precedence:PartialOrder.comparable":
        "Section II-B precedence: whether two elements are ordered",
    "repro.workflow.precedence:PartialOrder.direct_predecessors":
        "Section II-B precedence: the direct predecessors of an element",
    "repro.workflow.precedence:PartialOrder.add_edge":
        "Section II-B precedence: one constraint t_i ≺ t_j",
    "repro.workflow.precedence:minimal":
        "Section II-B's minimal(S, ≺), the element a scheduler may run next",
    "repro.workflow.log:SystemLog.writers_of":
        "the writers of an object behind Definition 1",
    # References that tests check the fast paths against.
    "repro.markov.transient:transient_probabilities_expm":
        "expm reference for the uniformised transient solver",
    "repro.obs.windows:SlidingWindow.values":
        "the retained samples, the recount of the window's running total",
    # Paper claims.
    "repro.markov.design:cost_effective_rate":
        "the Section V cost-effective range of recovery rates",
    "repro.sim.baselines:RecoveryCost.wasted_good_work":
        "Section I: checkpoints lose good work",
    "repro.sim.baselines:RecoveryCost.total_recovery_work":
        "Section I: checkpoints lose good work",
    # Test support.
    "repro.scenarios.generate:random_attacked_case":
        "random attacked cases for the healer's property tests",
}

#: Public names of the builtin text and container methods.
BUILTIN_METHOD_NAMES = frozenset(
    name for kind in (str, bytes, list, tuple, dict, set, frozenset)
    for name in dir(kind) if not name.startswith("_"))

#: One real caller, ``path::Qualname`` of the calling function from the
#: repository root, of each public definition named like a builtin
#: method (a property is read there, a method called).
CALLERS: Dict[str, str] = {
    "repro.core.axioms:HistoryReplay.extend":
        "src/repro/core/axioms.py::audit_strict_correctness",
    "repro.ids.alerts:BoundedQueue.pop":
        "src/repro/system.py::SelfHealingSystem.scan_step",
    "repro.lint.diagnostics:LintReport.count":
        "src/repro/lint/diagnostics.py::LintReport.render_text",
    "repro.obs.metrics:Histogram.count":
        "src/repro/obs/export.py::render_prometheus",
    "repro.obs.metrics:MetricsRegistry.get":
        "src/repro/obs/provenance.py::replay",
    "repro.obs.perf:PhaseStat.add":
        "src/repro/obs/perf.py::PhaseProfiler.add_external",
    "repro.obs.windows:SlidingWindow.add":
        "src/repro/obs/windows.py::RateWindow.observe",
    "repro.obs.windows:RateWindow.count":
        "src/repro/obs/health.py::HealthMonitor._evaluate_loss",
    "repro.obs.windows:Cusum.update":
        "src/repro/obs/health.py::HealthMonitor._on_arrival",
    "repro.obs.windows:PageHinkley.update":
        "src/repro/obs/health.py::HealthMonitor._note_alert_depth",
    "repro.report.series:Series.add":
        "benchmarks/bench_fig5_lambda.py::compute_fig5_lambda",
    "repro.workflow.log:SystemLog.get":
        "src/repro/workflow/log.py::SystemLog.position",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(path: Path) -> Iterator[Tuple[str, ast.AST, str]]:
    """``(qualname, node, class_name)`` of each public definition."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not _is_public(node.name):
            continue
        yield node.name, node, ""
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _is_public(item.name)):
                    yield f"{node.name}.{item.name}", item, node.name


def _all_entries(tree: ast.AST) -> Set[int]:
    """Ids of the string constants inside ``__all__ = [...]``."""
    ids: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            ids.update(id(c) for c in ast.walk(node.value)
                       if isinstance(c, ast.Constant))
    return ids


def _uses() -> Dict[str, List[Tuple[Path, int]]]:
    """Every referenced name, with the file and line of each reference."""
    uses: Dict[str, List[Tuple[Path, int]]] = defaultdict(list)
    for root in CALLER_DIRS:
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reexports = path.name == "__init__.py"
            in_all = _all_entries(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    uses[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    uses[node.attr].append((path, node.lineno))
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    for alias in node.names:
                        uses[alias.name].append((path, node.lineno))
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and id(node) not in in_all):
                    uses[node.value].append((path, node.lineno))
    return uses


def _exempt_by_base(module: str, class_name: str, method: str) -> bool:
    """Whether a base class from outside ``repro`` defines or dispatches
    ``method``."""
    cls = getattr(importlib.import_module(module), class_name)
    for base in cls.__mro__[1:]:
        if base.__module__.split(".")[0] == "repro":
            continue
        if hasattr(base, method):
            return True
        prefix = DISPATCH_PREFIXES.get(base)
        if prefix and method.startswith(prefix):
            return True
    return False


def _test_only() -> Dict[str, Tuple[Path, int]]:
    """``module:Qualname`` → location of each definition with no use."""
    uses = _uses()
    found: Dict[str, Tuple[Path, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for qualname, node, class_name in _definitions(path):
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if name in BUILTIN_METHOD_NAMES:
                if f"{module}:{qualname}" in CALLERS:
                    continue
            elif any(p != path or line not in own
                     for p, line in uses[name]):
                continue
            if class_name and _exempt_by_base(module, class_name, name):
                continue
            found[f"{module}:{qualname}"] = (path, node.lineno)
    return found


def _allowed(key: str) -> str:
    """The allow-list entry covering ``key``, or ``""``."""
    module = key.split(":", 1)[0]
    return next((entry for entry in (key, module) if entry in ALLOWED), "")


def test_every_public_definition_has_a_caller_outside_tests():
    unlisted = [
        f"{path.relative_to(SRC).as_posix()}:{line} {key}"
        for key, (path, line) in _test_only().items() if not _allowed(key)
    ]
    assert unlisted == [], (
        "public definitions called only by tests: delete them, or "
        "allow-list them with a reason:\n" + "\n".join(unlisted))


def test_allow_list_has_no_stale_entries():
    used = {_allowed(key) for key in _test_only()}
    stale = sorted(set(ALLOWED) - used)
    assert stale == [], (
        "allow-list entries that no longer exist or now have a caller "
        "outside tests: " + ", ".join(stale))


def test_every_allow_list_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())


def _function(path: Path, qualname: str):
    """The ``def`` node at dotted ``qualname`` (through classes and
    enclosing functions) in ``path``, or ``None``."""
    node: ast.AST = ast.parse(path.read_text(encoding="utf-8"))
    for part in qualname.split("."):
        node = next((
            child for child in getattr(node, "body", ())
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
            and child.name == part), None)
        if node is None:
            return None
    return node if not isinstance(node, ast.ClassDef) else None


def _reads_or_calls(function: ast.AST, name: str, call: bool) -> bool:
    """Whether ``function`` calls ``.name(...)`` (``call``) or reads
    ``.name`` anywhere in its body."""
    for node in ast.walk(function):
        if call:
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == name):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


def test_every_cited_caller_uses_its_definition():
    """Each ``CALLERS`` entry names a definition by a builtin method
    name, and its cited function, outside ``tests/`` and other than
    the definition itself, reads that property or calls that method."""
    nodes = {
        f"{_module_name(path)}:{qualname}": (path, qualname, node)
        for path in SRC.rglob("*.py")
        for qualname, node, _ in _definitions(path)
    }
    wrong = []
    for key, where in sorted(CALLERS.items()):
        name = key.rsplit(".", 1)[-1]
        defined_in, defined_as, node = nodes.get(key, (None, None, None))
        path, qualname = where.split("::", 1)
        caller = (_function(ROOT / path, qualname)
                  if (ROOT / path).is_file() else None)
        is_property = node is not None and any(
            isinstance(d, ast.Name) and d.id == "property"
            for d in node.decorator_list)
        own = ROOT / path == defined_in and qualname == defined_as
        if (node is None or name not in BUILTIN_METHOD_NAMES or own
                or path.startswith("tests/") or caller is None
                or not _reads_or_calls(caller, name, not is_property)):
            wrong.append(f"{key} -> {where}")
    assert wrong == [], "stale or wrong CALLERS entries:\n" + "\n".join(
        wrong)


def test_every_export_resolves():
    """Every ``__all__`` entry names an attribute of its module, so a
    deletion cannot leave a dangling export behind."""
    dangling = []
    for path in sorted(SRC.rglob("*.py")):
        module = importlib.import_module(_module_name(path))
        dangling += [f"{module.__name__}.{name}"
                     for name in getattr(module, "__all__", ())
                     if not hasattr(module, name)]
    assert dangling == []

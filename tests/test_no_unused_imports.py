"""No unused imports under ``src/repro``.

A module-level or local ``import`` binds a name; the import is *used*
when that name is read anywhere in the module: as a bare name, as the
root of an attribute chain, inside a quoted annotation, or listed in
``__all__``. A package ``__init__.py`` is exempt: its imports are
re-exports. ``from __future__`` imports are exempt too.

The standard library ``ast`` is enough for this; no linter is needed.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import repro

SRC = Path(repro.__file__).parent


def _quoted_names(node: ast.AST) -> Iterator[str]:
    """Names read inside string annotations (``"Optional[Foo]"``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(expr):
                if isinstance(name, ast.Name):
                    yield name.id


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _all_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            )
    return names


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every import in ``source`` that nothing
    reads."""
    tree = ast.parse(source)
    used: Set[str] = set(_all_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
    for annotation in _annotations(tree):
        used.update(_quoted_names(annotation))
    found: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound != "*" and bound not in used:
                    found.append((node.lineno, bound))
    return found


def test_detector_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import List, Optional, Sequence\n"
        "from x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[int]') -> List[int]:\n"
        "    import json\n"
        "    return osp.join(a)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Sequence"),
                                      (8, "json")]


def test_no_unused_imports_in_src():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            findings.append(f"{path.relative_to(SRC.parent)}:{line}: {name}")
    assert not findings, "unused imports:\n" + "\n".join(findings)

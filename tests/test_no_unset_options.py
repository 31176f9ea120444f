"""No unset options: every field of a public ``*Config`` dataclass under
``src/repro`` is set by some caller outside ``tests/``, or has an
allow-list entry saying why it may stay at its default.

A *field* is an annotated attribute of a public top-level class whose
name ends in ``Config`` and that is decorated with ``@dataclass``. A
field is *set* when a call in ``src/repro``, ``benchmarks/``,
``perfbench/`` or ``examples/`` passes it by keyword (``field=…``).
Keywords are matched by bare name, like ``test_no_test_only_api.py``
matches definitions, so the guard errs toward finding a caller.

An option that every caller leaves at its default is a constant in
disguise: each field doubles the configurations the tests would have to
cover. Adding an allow-list entry needs a one-line reason (see
CONTRIBUTING.md).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

import repro

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "perfbench", ROOT / "examples")

#: Fields kept at their default on purpose, keyed ``Class.field``, each
#: with its reason.
ALLOWED: Dict[str, str] = {}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _config_fields() -> Iterator[Tuple[str, Path, int]]:
    """``(Class.field, path, line)`` of every field of a public config
    dataclass."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Config")
                    and not node.name.startswith("_")
                    and _is_dataclass(node)):
                continue
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and "ClassVar" not in ast.unparse(item.annotation)):
                    yield f"{node.name}.{item.target.id}", path, item.lineno


def _keywords_set() -> Set[str]:
    """Every keyword name passed in a call outside ``tests/``."""
    names: Set[str] = set()
    for root in CALLER_DIRS:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    names.update(kw.arg for kw in node.keywords if kw.arg)
    return names


def _unset() -> Dict[str, Tuple[Path, int]]:
    """``Class.field`` → location of each field no caller sets."""
    keywords = _keywords_set()
    return {key: (path, line) for key, path, line in _config_fields()
            if key.split(".", 1)[1] not in keywords}


def test_every_config_field_is_set_outside_tests():
    unlisted = [
        f"{path.relative_to(SRC).as_posix()}:{line} {key}"
        for key, (path, line) in _unset().items() if key not in ALLOWED
    ]
    assert unlisted == [], (
        "config fields no caller outside tests sets: make them "
        "constants, or allow-list them with a reason:\n"
        + "\n".join(unlisted))


def test_allow_list_has_no_stale_entries():
    stale = sorted(set(ALLOWED) - set(_unset()))
    assert stale == [], (
        "allow-list entries that no longer exist or now have a caller "
        "outside tests: " + ", ".join(stale))


def test_every_allow_list_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())

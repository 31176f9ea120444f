"""One thread where the run loop runs: the telemetry server is the only
module under ``src/repro`` that starts a thread or builds a lock (its
threading contract is the ``repro.obs.server`` module docstring).
Replication workers of ``sim/batch.py`` are processes and share no
memory, so its process pool is not counted."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: Constructors of threads, thread pools and locks.
THREADING_CONSTRUCTORS = {"Thread", "Lock", "RLock", "Timer",
                          "ThreadPoolExecutor"}


def _called_names(path: Path):
    """Names of every function called in ``path`` (bare or attribute)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


def test_only_the_telemetry_server_constructs_threads_or_locks():
    constructing = {
        path.relative_to(SRC).as_posix(): sorted(
            THREADING_CONSTRUCTORS.intersection(_called_names(path)))
        for path in SRC.rglob("*.py")
        if THREADING_CONSTRUCTORS.intersection(_called_names(path))
    }
    assert constructing == {"obs/server.py": ["RLock", "Thread"]}

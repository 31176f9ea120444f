"""Persisting whole workflow systems: store, log and specifications.

With expression-based specifications (:mod:`repro.workflow.serialize`)
every part of a workflow system is data, so an *attacked* system can be
dumped to JSON, shipped to a forensics host, and healed there — the
post-mortem recovery workflow a real deployment needs.

The snapshot captures:

- the data store's full version history (values must be JSON-safe:
  numbers, strings, booleans, ``None``);
- every log record (instances, read/write versions, branch decisions,
  record kinds — recovery records included);
- the workflow documents and which instance ran which document.

``load_system`` reconstructs live objects; healing the reconstruction
behaves identically to healing the original (tested in
``tests/test_persistence.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ReproError
from repro.workflow.data import DataStore
from repro.workflow.log import RecordKind, SystemLog
from repro.workflow.serialize import WorkflowDocument
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import TaskInstance

__all__ = ["PersistenceError", "SystemSnapshot", "dump_system",
           "load_system"]

_FORMAT = "repro-system-snapshot"
_VERSION = 1

_JSON_SAFE = (int, float, str, bool, type(None))


class PersistenceError(ReproError):
    """A system could not be serialized or deserialized."""


@dataclass
class SystemSnapshot:
    """Reconstructed live objects of a persisted system."""

    store: DataStore
    log: SystemLog
    documents: Dict[str, WorkflowDocument]
    specs_by_instance: Dict[str, WorkflowSpec]
    initial_data: Dict[str, Any]


def dump_system(
    store: DataStore,
    log: SystemLog,
    documents: Mapping[str, WorkflowDocument],
    instance_documents: Mapping[str, str],
    initial_data: Mapping[str, Any],
    indent: Optional[int] = None,
) -> str:
    """Serialize a workflow system to a JSON string.

    Parameters
    ----------
    store, log:
        The live system state.
    documents:
        Workflow documents by name.
    instance_documents:
        Mapping ``workflow instance id → document name``.
    initial_data:
        Pre-execution store contents (needed for later audits).
    indent:
        Optional JSON indentation.
    """
    for wf, doc_name in instance_documents.items():
        if doc_name not in documents:
            raise PersistenceError(
                f"instance {wf!r} references unknown document "
                f"{doc_name!r}"
            )
    histories: Dict[str, List[Dict[str, Any]]] = {}
    for name in store.names():
        versions = []
        for v in store.history(name):
            if not isinstance(v.value, _JSON_SAFE):
                raise PersistenceError(
                    f"object {name!r} version {v.number} holds a "
                    f"non-JSON-safe value of type "
                    f"{type(v.value).__name__}"
                )
            versions.append(
                {"number": v.number, "value": v.value,
                 "writer": v.writer}
            )
        histories[name] = versions
    records = []
    for r in log.records():
        records.append({
            "workflow_instance": r.instance.workflow_instance,
            "task_id": r.instance.task_id,
            "number": r.instance.number,
            "reads": dict(r.reads),
            "writes": dict(r.writes),
            "chosen": r.chosen,
            "kind": r.kind,
        })
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "initial_data": dict(initial_data),
        "store": histories,
        "log": records,
        "documents": {
            name: doc.to_dict() for name, doc in documents.items()
        },
        "instances": dict(instance_documents),
    }
    return json.dumps(payload, indent=indent)


def load_system(text: str) -> SystemSnapshot:
    """Reconstruct a system from :func:`dump_system` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid snapshot JSON: {exc}") from exc
    if payload.get("format") != _FORMAT:
        raise PersistenceError(
            f"not a system snapshot (format={payload.get('format')!r})"
        )
    if payload.get("version") != _VERSION:
        raise PersistenceError(
            f"unsupported snapshot version {payload.get('version')!r}"
        )

    store = DataStore()
    for name, versions in payload["store"].items():
        ordered = sorted(versions, key=lambda v: v["number"])
        for i, v in enumerate(ordered):
            if v["number"] != i:
                raise PersistenceError(
                    f"object {name!r} has a gap in its version history "
                    f"at {v['number']}"
                )
            got = store.write(name, v["value"], writer=v["writer"])
            if got != v["number"]:  # pragma: no cover - defensive
                raise PersistenceError(
                    f"version renumbering mismatch for {name!r}"
                )
    # Initial (writer-less) versions written via store.write carry the
    # recorded writer of None, preserving baseline semantics.

    log = SystemLog()
    for r in payload["log"]:
        if r["kind"] not in RecordKind.ALL:
            raise PersistenceError(f"unknown record kind {r['kind']!r}")
        log.commit(
            TaskInstance(r["workflow_instance"], r["task_id"],
                         r["number"]),
            reads=r["reads"],
            writes=r["writes"],
            chosen=r["chosen"],
            kind=r["kind"],
        )

    documents = {
        name: WorkflowDocument.from_dict(doc)
        for name, doc in payload["documents"].items()
    }
    specs: Dict[str, WorkflowSpec] = {}
    built: Dict[str, WorkflowSpec] = {}
    for wf, doc_name in payload["instances"].items():
        if doc_name not in documents:
            raise PersistenceError(
                f"instance {wf!r} references unknown document "
                f"{doc_name!r}"
            )
        if doc_name not in built:
            built[doc_name] = documents[doc_name].build()
        specs[wf] = built[doc_name]

    return SystemSnapshot(
        store=store,
        log=log,
        documents=documents,
        specs_by_instance=specs,
        initial_data=dict(payload["initial_data"]),
    )

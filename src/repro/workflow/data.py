"""The versioned data store.

The recovery theory assumes ``undo(t)`` can be implemented "by reading the
last version of the data objects before the attack from the log of the
workflow management system" (Section III-A).  We therefore keep a full
version history per data object.  Every object has *one current copy*
(the assumption behind Theorem 4: a write destroys the previous value for
readers), plus a history used exclusively by recovery.

The store also keeps a *write journal*: the names written since it was
last drained.  Recovery and the audit read it so that their cost
follows what was written, not the size of the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, KeysView, List, Mapping, Optional, Tuple

from repro.errors import DataStoreError, VersionNotFoundError

__all__ = ["Version", "DataStore", "TOMBSTONE"]


class _Tombstone:
    """Sentinel marking an object logically removed by recovery.

    Written when every write that ever produced an object is undone and
    the object had no pre-attack value (it was created by a malicious or
    abandoned task): after recovery the object "should not exist".
    """

    _instance: Optional["_Tombstone"] = None

    def __new__(cls) -> "_Tombstone":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<TOMBSTONE>"


#: Singleton written in place of objects removed by recovery.
TOMBSTONE = _Tombstone()


@dataclass(frozen=True)
class Version:
    """One committed version of a data object.

    Attributes
    ----------
    number:
        Version number, starting at 0 for the initial value and increasing
        by 1 per write.
    value:
        The stored value.
    writer:
        Uid of the task instance that wrote it, or ``None`` for the initial
        value loaded before any task ran.
    """

    number: int
    value: Any
    writer: Optional[str] = None


class DataStore:
    """Single-copy data store with per-object version history.

    Reads always observe the latest version (one copy per object); the
    history exists so that recovery can restore "the last version before
    the attack".  Version numbers equal positions in the history, so a
    historical version is one index away.
    """

    def __init__(self, initial: Optional[Mapping[str, Any]] = None) -> None:
        self._history: Dict[str, List[Version]] = {}
        #: Names written since the last :meth:`drain_written`, in first
        #: write order (a dict used as an ordered set).
        self._written: Dict[str, None] = {}
        if initial:
            for name, value in initial.items():
                self._history[name] = [Version(0, value, None)]

    # -- reading -------------------------------------------------------------

    def read(self, name: str) -> Any:
        """Current value of ``name``."""
        return self.latest(name).value

    def read_version(self, name: str) -> Tuple[int, Any]:
        """Current ``(version number, value)`` of ``name``."""
        v = self.latest(name)
        return v.number, v.value

    def latest(self, name: str) -> Version:
        """Latest :class:`Version` of ``name``."""
        try:
            return self._history[name][-1]
        except KeyError:
            raise DataStoreError(f"unknown data object {name!r}") from None

    def version(self, name: str, number: int) -> Version:
        """A specific historical version of ``name``."""
        try:
            versions = self._history[name]
        except KeyError:
            raise DataStoreError(f"unknown data object {name!r}") from None
        if 0 <= number < len(versions):
            return versions[number]
        raise VersionNotFoundError(f"{name!r} has no version {number}")

    def history(self, name: str) -> Tuple[Version, ...]:
        """Full version history of ``name``, oldest first."""
        try:
            return tuple(self._history[name])
        except KeyError:
            raise DataStoreError(f"unknown data object {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._history

    def names(self) -> Iterator[str]:
        """Iterate over the names of all known data objects."""
        return iter(self._history)

    def snapshot(self) -> Dict[str, Any]:
        """Current value of every object (a plain dict copy)."""
        return {name: vs[-1].value for name, vs in self._history.items()}

    def written(self) -> KeysView[str]:
        """Names written since the journal was last drained (a live
        view, in first-write order)."""
        return self._written.keys()

    def drain_written(self) -> List[str]:
        """Names written since the last drain, in first-write order;
        empties the journal."""
        names = list(self._written)
        self._written.clear()
        return names

    # -- writing -------------------------------------------------------------

    def write(self, name: str, value: Any, writer: Optional[str] = None) -> int:
        """Commit a new version of ``name`` and return its version number.

        Unknown objects are created (first write becomes version 0 when no
        initial value existed, mirroring a task that creates an object).
        """
        versions = self._history.setdefault(name, [])
        number = len(versions)
        versions.append(Version(number, value, writer))
        self._written[name] = None
        return number

    def restore(self, name: str, number: int,
                writer: Optional[str] = None) -> int:
        """Write the value of historical version ``number`` as a *new*
        version (recovery never rewrites history).  Returns the new
        version number."""
        old = self.version(name, number)
        return self.write(name, old.value, writer)

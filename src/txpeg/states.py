"""State cell strategies: ways of making mutable state transactional.

Each class here implements the :class:`~txpeg.core.StateCell` contract with
a different representation trade-off.  Every version is immutable, so each
mutator logs the version it replaces on the context's trail by reference,
without copying, before it swaps in the new one.  The mutators append to
the trail inline rather than through ``StateCell.record``, which saves a
call on the hottest paths.  All but :class:`MonotonicStack` keep the
default diff and merge, where the delta is the whole current version:

* :class:`CopyState` keeps a small field record and replaces it whole on
  every change; snapshots are cheap because the record is tiny.
* :class:`StackState` is a persistent linked stack; a snapshot is a node
  reference, a delta is the whole list, and merge replaces.
* :class:`MonotonicStack` is the same structure with a stronger diff: the
  delta is just the elements pushed since the snapshot, so it can be
  grafted onto another stack later.
* :class:`MapState` is a :class:`CopyState` whose keys are data rather
  than field names: a lookup is one probe, a change costs O(size), and
  diff/merge treat the content as one unit.
* :class:`InertState` ignores the transaction machinery entirely: it never
  logs, so its content survives backtracking, which is exactly right for
  caches and per-parse indexes, and the context never visits it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Iterator, Optional

from .core import ContractViolationError, StateCell

__all__ = [
    "CopyState",
    "InertState",
    "MapState",
    "MonotonicStack",
    "StackState",
]


class CopyState(StateCell):
    """A record of a few named fields, captured whole.

    The field dict is never changed in place: ``set`` swaps in an updated
    copy of the (small) dict, so snapshot and delta are the dict itself and
    restore and merge simply swap it back in.  Field values are assumed
    immutable; the copy is shallow.
    """

    def __init__(self, **fields: Any):
        self._fields = dict(fields)

    def get(self, name: str, default: Any = None) -> Any:
        return self._fields.get(name, default)

    def _swap(self, new: dict) -> None:
        # Every change of content goes through here, logging the old dict.
        trail = self._trail
        if trail is not None:
            trail.append(self)
            trail.append(self._fields)
        self._fields = new

    def set(self, name: str, value: Any) -> None:
        self._swap({**self._fields, name: value})

    def cell_snapshot(self):
        return self._fields

    def cell_restore(self, snapshot) -> None:
        self._fields = snapshot

    def summary(self) -> str:
        inner = ",".join(f"{k}={v!r}" for k, v in sorted(self._fields.items()))
        return f"{type(self).__name__}({inner})"


class _Node:
    """One link of a persistent stack; depth is cached for O(1) size."""

    __slots__ = ("value", "below", "depth")

    def __init__(self, value, below: Optional["_Node"]):
        self.value = value
        self.below = below
        self.depth = 1 if below is None else below.depth + 1


class StackState(StateCell):
    """A stack backed by a persistent linked list.

    Snapshots and deltas are plain node references: restoring rebinds the
    top, and merging replaces the whole stack with the delta's capture.
    Cheap in every operation, at the cost of a coarse merge.
    """

    def __init__(self, *values: Any):
        self._top: Optional[_Node] = None
        for v in values:
            self.push(v)

    def _set_top(self, node: Optional[_Node]) -> None:
        # Every change of content goes through here, logging the old top.
        trail = self._trail
        if trail is not None:
            trail.append(self)
            trail.append(self._top)
        self._top = node

    def push(self, value: Any) -> None:
        self._set_top(_Node(value, self._top))

    def pop(self) -> Any:
        """Remove and return the top value; None when empty."""
        top = self._top
        if top is None:
            return None
        self._set_top(top.below)
        return top.value

    def peek(self, default: Any = None) -> Any:
        return default if self._top is None else self._top.value

    @property
    def size(self) -> int:
        return 0 if self._top is None else self._top.depth

    def __iter__(self) -> Iterator[Any]:
        """Contents top first, walked along the spine without copying."""
        node = self._top
        while node is not None:
            yield node.value
            node = node.below

    def values(self) -> list:
        """Contents as a list, top first."""
        return list(self)

    def cell_snapshot(self):
        return self._top

    def cell_restore(self, snapshot) -> None:
        self._top = snapshot

    def summary(self) -> str:
        return f"{type(self).__name__}(depth={self.size})"


class MonotonicStack(StackState):
    """A stack whose diffs capture only what was pushed since the snapshot.

    ``cell_diff`` requires the snapshot's top to still sit somewhere in the
    current stack (nothing popped below it); the delta is then the tuple of
    values above it, bottom to top, and merging pushes them in that order,
    re-creating the original stacking on whatever the stack holds then.
    """

    def at(self, depth: int) -> Any:
        """Value ``depth`` entries below the top (0 is the top)."""
        node = self._top
        for _ in range(depth):
            if node is None:
                return None
            node = node.below
        return None if node is None else node.value

    def truncate(self, size: int) -> None:
        """Pop down to ``size`` entries."""
        node = self._top
        while node is not None and node.depth > size:
            node = node.below
        if node is not self._top:
            self._set_top(node)

    def take_above(self, size: int) -> list:
        """Pop everything above ``size`` entries, returned bottom to top."""
        out: list = []
        node = self._top
        while node is not None and node.depth > size:
            out.append(node.value)
            node = node.below
        if node is not self._top:
            self._set_top(node)
        out.reverse()
        return out

    def replace_above(self, size: int, make: Callable[..., Any]) -> Any:
        """Replace everything above ``size`` entries with ``make(*values)``,
        values bottom to top, as one logged change; returns the new top."""
        out: list = []
        node = self._top
        while node is not None and node.depth > size:
            out.append(node.value)
            node = node.below
        out.reverse()
        made = make(*out)
        self._set_top(_Node(made, node))
        return made

    def cell_diff(self, snapshot):
        out, node = [], self._top
        while node is not snapshot:
            if node is None:
                raise ContractViolationError(
                    "stack snapshot no longer reachable: something popped below it"
                )
            out.append(node.value)
            node = node.below
        out.reverse()
        return tuple(out)

    def cell_merge(self, delta) -> None:
        # A cell operation, like cell_restore: the context logs around it.
        top = self._top
        for value in delta:
            top = _Node(value, top)
        self._top = top


class MapState(CopyState):
    """A mapping cell: a :class:`CopyState` whose keys are data.

    ``put`` and ``remove`` swap in an updated copy as ``set`` does, so a
    lookup is one dict probe and a change copies the whole map: right for
    maps of up to about a thousand entries, read more than written.
    """

    def __init__(self):
        super().__init__()

    def put(self, key, value) -> None:
        self._swap({**self._fields, key: value})

    def remove(self, key) -> None:
        """Drop ``key``; an absent key changes nothing and logs nothing."""
        if key in self._fields:
            new = dict(self._fields)
            del new[key]
            self._swap(new)

    def __contains__(self, key):
        return key in self._fields

    @property
    def size(self) -> int:
        return len(self._fields)

    def content(self) -> MappingProxyType:
        """A read-only view of the current version."""
        return MappingProxyType(self._fields)

    def summary(self) -> str:
        return f"{type(self).__name__}(size={len(self._fields)})"


class InertState(StateCell):
    """State that opts out: every transactional operation is a no-op.

    Whatever a subclass stores survives backtracking untouched.  Right for
    content that is computed once and then only read, or for deliberate
    escape hatches such as logs and caches.  The class never logs on the
    trail, so the context leaves its instances out of snapshots, restores,
    diffs and merges altogether; the no-op methods remain for code that
    drives a cell directly.
    """

    def cell_snapshot(self):
        return None

    def cell_restore(self, snapshot) -> None:
        pass

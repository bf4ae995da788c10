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
* :class:`StackState` is a persistent linked stack of tuple links over
  one shared :data:`BOTTOM`; a snapshot is its top link, a delta is the
  whole list, and merge replaces.
* :class:`MonotonicStack` is the same structure with a stronger diff: the
  delta is just the segment of links pushed since the snapshot, shared
  rather than copied; merged onto its own base it is one assignment, and
  it can be grafted onto another top later.
* :class:`AstStack` is the monotonic stack every context owns for AST
  output, as ``ctx.ast``: it joins no trail, since each snapshot saves
  its top beside the position.
* :class:`MapState` is a :class:`CopyState` whose keys are data rather
  than field names: a lookup is one probe, a change costs O(size), and
  diff/merge treat the content as one unit.
* :class:`InertState` ignores the transaction machinery entirely: it never
  logs, so its content survives backtracking, which is exactly right for
  caches and per-parse indexes, and the context never visits it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Iterator

from .core import BOTTOM, ContractViolationError, ParseContext, StateCell

__all__ = [
    "AstStack",
    "BOTTOM",
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


class StackState(StateCell):
    """A stack backed by a persistent linked list.

    Snapshots and deltas are plain link references: restoring rebinds the
    top, and merging replaces the whole stack with the delta's capture.
    Every walk down the spine stops at the shared :data:`BOTTOM`, whose
    depth is 0, so none tests for an absent link.  Cheap in every
    operation, at the cost of a coarse merge.
    """

    def __init__(self, *values: Any):
        self._top: tuple = BOTTOM
        for v in values:
            self.push(v)

    def _set_top(self, link: tuple) -> None:
        # Every change of content goes through here, logging the old top.
        trail = self._trail
        if trail is not None:
            trail.append(self)
            trail.append(self._top)
        self._top = link

    def push(self, value: Any) -> None:
        top = self._top
        self._set_top((top[0] + 1, value, top))

    def pop(self) -> Any:
        """Remove and return the top value; None when empty."""
        top = self._top
        if top is BOTTOM:
            return None
        self._set_top(top[2])
        return top[1]

    def peek(self, default: Any = None) -> Any:
        return default if self._top is BOTTOM else self._top[1]

    @property
    def size(self) -> int:
        return self._top[0]

    def __iter__(self) -> Iterator[Any]:
        """Contents top first, walked along the spine without copying."""
        link = self._top
        while link[0]:
            yield link[1]
            link = link[2]

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
    current stack (nothing popped below it); the delta is then the segment
    of links above it, the pair ``(snapshot, top)``, which shares the links
    and copies nothing, as persistent structures share their unchanged
    parts (Driscoll, Sarnak, Sleator and Tarjan, 1989).  Merging a segment
    onto its own base sets the top to the segment's top; onto any other top
    it pushes the segment's values again, bottom to top, re-creating the
    original stacking on whatever the stack holds then.
    """

    def at(self, depth: int) -> Any:
        """Value ``depth`` entries below the top (0 is the top), or None at
        a depth of ``size`` or more: the walk stops at the shared bottom,
        whose value is None."""
        link = self._top
        for _ in range(min(depth, link[0])):
            link = link[2]
        return link[1]

    def truncate(self, size: int) -> None:
        """Pop down to ``size`` entries."""
        link = self._top
        while link[0] > size:
            link = link[2]
        if link is not self._top:
            self._set_top(link)

    def replace_above(self, size: int, make: Callable[..., Any]) -> Any:
        """Replace everything above ``size`` entries with ``make(*values)``,
        values bottom to top, as one logged change; returns the new top."""
        out, link = [], self._top
        while link[0] > size:
            out.append(link[1])
            link = link[2]
        out.reverse()
        made = make(*out)
        self._set_top((link[0] + 1, made, link))
        return made

    def cell_diff(self, snapshot):
        # The snapshot's link, if still in the stack, sits at its own depth.
        link, depth = self._top, snapshot[0]
        while link[0] > depth:
            link = link[2]
        if link is not snapshot:
            raise ContractViolationError(
                "stack snapshot no longer reachable: something popped below it"
            )
        return snapshot, self._top

    def cell_merge(self, delta) -> None:
        # A cell operation, like cell_restore: the context logs around it.
        base, top = delta
        if self._top is not base:
            # Graft: the segment's values, bottom to top, onto this top.
            values, link = [], top
            while link[0] > base[0]:
                values.append(link[1])
                link = link[2]
            top = self._top
            for value in reversed(values):
                top = (top[0] + 1, value, top)
        self._top = top


class AstStack(MonotonicStack):
    """The stack of AST output: matched text, nodes and collected lists.

    Parsers push onto it and only ever pop what they pushed themselves,
    which keeps its diffs graftable: exactly what left recursion and
    memoizing features need to replay build effects.  It is output, so it
    does not steer: a push is no progress for a repetition.

    Every context creates one of exactly this class as ``ctx.ast`` and
    saves its top in each snapshot, beside the position, the way the
    Warren Abstract Machine saves its heap top in a choice point instead
    of trailing the heap.  So that stack is never bound and logs nothing;
    a subclass registered as a cell binds to the trail like any
    :class:`MonotonicStack`.  ``steers = False`` is for that subclass:
    the repetition guard reads only cells on the trail, so it never sees
    ``ctx.ast``, but a trailed AST stack's pushes must not count as
    progress either, or it would accept an endless repetition that
    ``ctx.ast`` refuses.
    """

    steers = False


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
    drives a cell directly.  Its :meth:`bind` does nothing: it joins no
    trail, so even :meth:`~txpeg.core.StateCell.record` logs nothing, and
    the context does not count it among the cells a repetition must hold.
    """

    def bind(self, ctx: ParseContext) -> None:
        pass

    def cell_snapshot(self):
        return None

    def cell_restore(self, snapshot) -> None:
        pass

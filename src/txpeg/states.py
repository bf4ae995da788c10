"""State cell strategies: ways of making mutable state transactional.

Each class here implements the :class:`~txpeg.core.StateCell` contract with
a different representation trade-off.  Every version is immutable, so each
mutator logs the version it replaces on the context's trail by reference,
without copying, before it swaps in the new one:

* :class:`CopyState` keeps a small field record and replaces it whole on
  every change; snapshots are cheap because the record is tiny.
* :class:`StackState` is a persistent linked stack; a snapshot is a node
  reference, a delta is the whole list, and merge replaces.
* :class:`MonotonicStack` is the same structure with a stronger diff: the
  delta is just the elements pushed since the snapshot, so it can be
  grafted onto another stack later.
* :class:`MapState` is a persistent hash-array-mapped-trie map; versions
  share structure, and diff/merge treat the content as one unit.
* :class:`InertState` ignores the transaction machinery entirely: its
  content survives backtracking, which is exactly right for caches and
  per-parse indexes, and the context never visits it.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from .core import ContractViolationError, StateCell

__all__ = [
    "CopyState",
    "InertState",
    "MapState",
    "MonotonicStack",
    "StackState",
]


# ---------------------------------------------------------------------------
# Persistent hash map (bitmapped trie).  Standard 32-way layout: five hash
# bits per level select a slot, occupied slots are packed densely under a
# bitmap, and full-hash collisions fall back to a small bucket.  All nodes
# are immutable; updates copy the spine and share the rest.

_BITS = 5
_MASK = (1 << _BITS) - 1
_MISSING = object()


class _Entry:
    __slots__ = ("hash", "key", "value")

    def __init__(self, h, key, value):
        self.hash = h
        self.key = key
        self.value = value


class _Branch:
    __slots__ = ("bitmap", "items")

    def __init__(self, bitmap, items):
        self.bitmap = bitmap
        self.items = items


class _Collision:
    __slots__ = ("hash", "pairs")

    def __init__(self, h, pairs):
        self.hash = h
        self.pairs = pairs


_EMPTY_BRANCH = _Branch(0, ())


def _assoc(node, shift, entry):
    """Insert or replace; returns (new node, grew flag)."""
    if isinstance(node, _Branch):
        bit = 1 << ((entry.hash >> shift) & _MASK)
        idx = bin(node.bitmap & (bit - 1)).count("1")
        if not node.bitmap & bit:
            items = node.items[:idx] + (entry,) + node.items[idx:]
            return _Branch(node.bitmap | bit, items), True
        sub, grew = _assoc(node.items[idx], shift + _BITS, entry)
        return _Branch(node.bitmap, node.items[:idx] + (sub,) + node.items[idx + 1:]), grew
    if isinstance(node, _Entry):
        if node.hash == entry.hash and node.key == entry.key:
            return entry, False
        if node.hash == entry.hash:
            return _Collision(node.hash, ((node.key, node.value), (entry.key, entry.value))), True
        # Two different hashes: split into a branch one level down.
        branch, _ = _assoc(_EMPTY_BRANCH, shift, node)
        return _assoc(branch, shift, entry)
    # _Collision
    if entry.hash == node.hash:
        pairs = tuple(p for p in node.pairs if p[0] != entry.key)
        grew = len(pairs) == len(node.pairs)
        return _Collision(node.hash, pairs + ((entry.key, entry.value),)), grew
    branch = _Branch(1 << ((node.hash >> shift) & _MASK), (node,))
    return _assoc(branch, shift, entry)


def _find(node, shift, h, key):
    while isinstance(node, _Branch):
        bit = 1 << ((h >> shift) & _MASK)
        if not node.bitmap & bit:
            return _MISSING
        node = node.items[bin(node.bitmap & (bit - 1)).count("1")]
        shift += _BITS
    if isinstance(node, _Entry):
        return node.value if node.hash == h and node.key == key else _MISSING
    for k, v in node.pairs:
        if k == key:
            return v
    return _MISSING


def _without(node, shift, h, key):
    """Remove a key; returns the new node, or _MISSING when absent."""
    if isinstance(node, _Branch):
        bit = 1 << ((h >> shift) & _MASK)
        if not node.bitmap & bit:
            return _MISSING
        idx = bin(node.bitmap & (bit - 1)).count("1")
        sub = _without(node.items[idx], shift + _BITS, h, key)
        if sub is _MISSING:
            return _MISSING
        if sub is None:
            return _Branch(node.bitmap & ~bit, node.items[:idx] + node.items[idx + 1:])
        return _Branch(node.bitmap, node.items[:idx] + (sub,) + node.items[idx + 1:])
    if isinstance(node, _Entry):
        return None if node.hash == h and node.key == key else _MISSING
    pairs = tuple(p for p in node.pairs if p[0] != key)
    if len(pairs) == len(node.pairs):
        return _MISSING
    if len(pairs) == 1:
        k, v = pairs[0]
        return _Entry(node.hash, k, v)
    return _Collision(node.hash, pairs)


class PersistentMap:
    """An immutable mapping; ``set`` and ``delete`` return new versions."""

    __slots__ = ("_root", "_count")

    def __init__(self, _root=_EMPTY_BRANCH, _count=0):
        self._root = _root
        self._count = _count

    def get(self, key, default=None):
        v = _find(self._root, 0, hash(key), key)
        return default if v is _MISSING else v

    def set(self, key, value) -> "PersistentMap":
        root, grew = _assoc(self._root, 0, _Entry(hash(key), key, value))
        return PersistentMap(root, self._count + (1 if grew else 0))

    def delete(self, key) -> "PersistentMap":
        root = _without(self._root, 0, hash(key), key)
        if root is _MISSING:
            return self
        return PersistentMap(root if root is not None else _EMPTY_BRANCH, self._count - 1)

    def __contains__(self, key):
        return _find(self._root, 0, hash(key), key) is not _MISSING

    def __len__(self):
        return self._count

    def items(self) -> Iterator[tuple]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Branch):
                stack.extend(node.items)
            elif isinstance(node, _Entry):
                yield node.key, node.value
            else:
                yield from node.pairs

    def __iter__(self):
        for k, _ in self.items():
            yield k

    def __eq__(self, other):
        # Content equality; trie shape may differ with history.
        if not isinstance(other, PersistentMap):
            return NotImplemented
        return self._count == other._count and dict(self.items()) == dict(other.items())

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __repr__(self):
        return "PersistentMap({%s})" % ", ".join(f"{k!r}: {v!r}" for k, v in self.items())


_EMPTY_MAP = PersistentMap()


# ---------------------------------------------------------------------------
# Cell strategies.


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

    def set(self, name: str, value: Any) -> None:
        fields = self._fields
        trail = self._trail
        if trail is not None:
            trail.append(self)
            trail.append(fields)
        self._fields = {**fields, name: value}

    def cell_snapshot(self):
        return self._fields

    def cell_restore(self, snapshot) -> None:
        self._fields = snapshot

    def cell_diff(self, snapshot):
        return self._fields

    def cell_merge(self, delta) -> None:
        self._fields = delta

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

    def cell_diff(self, snapshot):
        return self._top

    def cell_merge(self, delta) -> None:
        self._top = delta

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


class MapState(StateCell):
    """A mapping cell backed by a persistent hash trie.

    The cell itself is mutable (``put``/``remove`` swap in a new version)
    while every version is immutable, so snapshot, diff, restore and merge
    are all pointer assignments.  Diff captures the whole map; merging
    replaces the content with that capture.
    """

    def __init__(self):
        self._map = _EMPTY_MAP

    def get(self, key, default=None):
        return self._map.get(key, default)

    def _swap(self, new: PersistentMap) -> None:
        if new is not self._map:
            trail = self._trail
            if trail is not None:
                trail.append(self)
                trail.append(self._map)
            self._map = new

    def put(self, key, value) -> None:
        self._swap(self._map.set(key, value))

    def remove(self, key) -> None:
        self._swap(self._map.delete(key))

    def __contains__(self, key):
        return key in self._map

    @property
    def size(self) -> int:
        return len(self._map)

    def content(self) -> PersistentMap:
        return self._map

    def cell_snapshot(self):
        return self._map

    def cell_restore(self, snapshot) -> None:
        self._map = snapshot

    def cell_diff(self, snapshot):
        return self._map

    def cell_merge(self, delta) -> None:
        self._map = delta

    def summary(self) -> str:
        return f"{type(self).__name__}(size={len(self._map)})"


class InertState(StateCell):
    """State that opts out: every transactional operation is a no-op.

    Whatever a subclass stores survives backtracking untouched.  Right for
    content that is computed once and then only read, or for deliberate
    escape hatches such as logs and caches.  The class is not
    ``transactional``, so the context leaves its instances out of
    snapshots, restores, diffs and merges altogether; the no-op methods
    remain for code that drives a cell directly.
    """

    transactional = False

    def cell_snapshot(self):
        return None

    def cell_restore(self, snapshot) -> None:
        pass

    def cell_diff(self, snapshot):
        return None

    def cell_merge(self, delta) -> None:
        pass

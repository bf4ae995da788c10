"""Core engine: parse results, state cells, transactions, the parse context.

A parse runs over a :class:`ParseContext` holding the input text, the
current position, and a fixed registry of mutable state cells.  Every
parser invocation is transactional: it either succeeds, or it fails having
restored the position and every cell to their values at its entry.  The
context offers the aggregate operations that make the discipline cheap to
follow:

* :meth:`ParseContext.snapshot` marks the current position and trail,
* :meth:`ParseContext.restore` rewinds to a snapshot,
* :meth:`ParseContext.diff` packages the work done since a snapshot,
* :meth:`ParseContext.merge` replays such a package later,
* :meth:`ParseContext.end_iteration` closes one step of a repetition.

The context keeps one undo trail, the append-only change log of
:mod:`txpeg.logmodel` made operational as in the trail of the Warren
Abstract Machine: before a cell changes its content it appends itself and
its prior version (:meth:`StateCell.record`).  A snapshot is just the
position and the trail's length, and a restore pops the trail back to
that length, handing each popped version back to its cell, so cells that
nobody touched are never visited.  Repetitions fold each finished
iteration's entries into one per cell, which keeps the trail as long as
the nesting is deep, not as the input is long.  Diff and merge walk the
same trail: a delta carries one entry per cell logged since its snapshot,
and a cell that never logs (an :class:`~txpeg.states.InertState`) is never
visited by any of these operations.  A context built with a ``trace``
callable is a :class:`TracedContext`, which runs the same operations and
reports each one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

__all__ = [
    "SENTINEL",
    "SUCCESS",
    "AggregateDelta",
    "ConfigurationError",
    "ContractViolationError",
    "Failure",
    "ParseContext",
    "ParseResult",
    "Parser",
    "StateCell",
    "Success",
    "TracedContext",
]

# One NUL is appended to the input so parsers can inspect text[position]
# without bounds checks; no other position may sit past it.
SENTINEL = "\x00"


class ContractViolationError(Exception):
    """A parser or cell broke the transactional discipline."""


class ConfigurationError(Exception):
    """A grammar or context was assembled inconsistently."""


class ParseResult:
    __slots__ = ()
    ok = False


class Success(ParseResult):
    __slots__ = ()
    ok = True

    def __repr__(self):
        return "Success"


#: The shared success result; parsers return this singleton.
SUCCESS = Success()


class Failure(ParseResult):
    """A failed invocation: where it failed plus a lazily built message.

    Messages are often interpolated from parse state; building them only
    when someone asks keeps the failure path cheap.
    """

    __slots__ = ("position", "_message")
    ok = False

    def __init__(self, position: int, message: Union[str, Callable[[], str]]):
        self.position = position
        self._message = message

    @property
    def message(self) -> str:
        if callable(self._message):
            self._message = self._message()
        return self._message

    def __repr__(self):
        return f"Failure({self.position}, {self.message!r})"


class StateCell:
    """A unit of mutable parse state.

    Subclasses hold whatever content they like and expose it through their
    own mutators; the ``cell_*`` methods below are how the context rolls
    that content back and forth.  Two are required: ``cell_snapshot``
    returns the current version and ``cell_restore`` reinstates one.  The
    other two have defaults that treat a whole version as the delta:
    ``cell_diff`` returns the current version and ``cell_merge`` restores
    it.  A cell overrides them only for a finer delta, as
    :class:`~txpeg.states.MonotonicStack` does.  The contract: for any run
    of mutations, ``s = cell_snapshot(); ...mutations...; d =
    cell_diff(s); cell_restore(s); cell_merge(d)`` must leave the
    observable content as it was after the mutations (subject to each
    cell's documented ``cell_diff`` precondition).

    A context rolls cells back through its trail, so every mutator must
    log the cell's prior version there first, by calling :meth:`record`
    before it changes the content.  The strategies in :mod:`txpeg.states`
    log their own changes, so a cell that subclasses one of them and
    changes its content only through the inherited mutators needs nothing
    more.  A change that is not logged survives backtracking, and a cell
    that never logs is never visited by the context.
    """

    #: The trail of the context the cell is registered with; None while the
    #: cell stands alone, when mutations are not logged.
    _trail: Optional[list] = None

    def record(self) -> None:
        """Log the current version on the context's trail, before a change."""
        trail = self._trail
        if trail is not None:
            trail.append(self)
            trail.append(self.cell_snapshot())

    def cell_snapshot(self):
        raise NotImplementedError

    def cell_restore(self, snapshot) -> None:
        raise NotImplementedError

    def cell_diff(self, snapshot):
        return self.cell_snapshot()

    def cell_merge(self, delta) -> None:
        self.cell_restore(delta)

    def summary(self) -> str:
        """One short token describing the content, for trace logs."""
        return type(self).__name__


@dataclass(frozen=True)
class AggregateDelta:
    """The work done since a snapshot: end position plus a (cell, delta)
    pair for each cell logged on the trail since then; ``registry`` is the
    context's trail, which tags the delta as that context's own."""

    end_position: int
    cells: tuple
    registry: list


class Parser:
    """Base class for parsers.

    A parser is an immutable description; all per-parse mutation lives in
    the context.  ``parse`` must uphold the transaction contract: return
    ``SUCCESS`` with any effects in place, or a :class:`Failure` with the
    position and every cell exactly as they were at entry.

    Sub-parsers live in ``children``: freeze copies the graph through it
    and the left-recursion check walks it.  A class states its own static
    behaviour by overriding :meth:`nullable` and :meth:`left_children`.
    """

    children: tuple = ()

    def parse(self, ctx: "ParseContext") -> ParseResult:
        raise NotImplementedError

    def nullable(self, child_nullable: Callable[["Parser"], bool]) -> bool:
        """Whether this parser can succeed without consuming input.

        ``child_nullable`` answers the same question for a child; freeze
        evaluates these to their least fixpoint (PEG nullability as in
        Redziejowski, 2009).  The default assumes a parser may pass any
        child through unconsumed, and that a childless one consumes
        nothing.
        """
        return not self.children or any(child_nullable(c) for c in self.children)

    def left_children(self, nullable: Callable[["Parser"], bool]) -> tuple:
        """The children this parser can invoke at its own entry position."""
        return self.children

    def __copy__(self):
        # The default copy fills the new object's __dict__ in one go, which
        # leaves CPython's compact attribute layout and makes every
        # attribute load on the parse path slower (about 2x for
        # ``self.children`` on 3.11); setting attributes one by one keeps it.
        twin = object.__new__(type(self))
        for name, value in vars(self).items():
            setattr(twin, name, value)
        return twin

    def __repr__(self):
        return type(self).__name__


class ParseContext:
    """Everything a parse mutates: text cursor, cells, failure record.

    The cell registry is fixed at construction; cells are looked up by
    their exact class, so a grammar addresses "the indentation stack" as
    ``ctx.state(IndentStack)``.  Registering a cell binds it to the
    context's trail, which every transaction operation walks; the registry
    itself is only for lookup.  The furthest-failure record is
    deliberately outside the transaction: backtracking must not erase the
    best diagnostic seen so far.

    Passing ``trace`` builds a :class:`TracedContext` instead, so the plain
    context's operations carry no tracing check at all.
    """

    def __new__(cls, text: str, cells: Iterable[StateCell] = (),
                whitespace: Optional[Parser] = None,
                trace: Optional[Callable[[str], None]] = None):
        if trace is not None and cls is ParseContext:
            cls = TracedContext
        return super().__new__(cls)

    def __init__(self, text: str, cells: Iterable[StateCell] = (),
                 whitespace: Optional[Parser] = None,
                 trace: Optional[Callable[[str], None]] = None):
        self.text = text + SENTINEL
        self.position = 0
        self.whitespace = whitespace
        self.trace = trace
        self._cells = tuple(cells)
        # The undo trail, oldest first, flat: cell, prior version, cell,
        # prior version, ...  Its identity also tags snapshots and deltas
        # as this context's own.
        self._trail: list = []
        self._by_type: dict[type, StateCell] = {}
        for cell in self._cells:
            t = type(cell)
            if t in self._by_type:
                raise ConfigurationError(f"duplicate state cell class {t.__name__}")
            self._by_type[t] = cell
        # Each cell logs its changes on this context's trail from now on.
        for cell in self._cells:
            cell._trail = self._trail
        # Furthest failure: (position, message or factory), never restored.
        self.furthest: Optional[tuple] = None
        self._muted = 0

    @property
    def input_length(self) -> int:
        """Length of the original input, excluding the sentinel."""
        return len(self.text) - 1

    def state(self, cell_class: type) -> StateCell:
        """Return the registered cell of exactly ``cell_class``."""
        try:
            return self._by_type[cell_class]
        except KeyError:
            raise ConfigurationError(
                f"no state cell of class {cell_class.__name__} registered"
            ) from None

    # -- failure bookkeeping ------------------------------------------------

    def fail(self, position: int, message: Union[str, Callable[[], str]]) -> Failure:
        """Build a failure and fold it into the furthest-failure record."""
        if not self._muted and (self.furthest is None or position >= self.furthest[0]):
            self.furthest = (position, message)
        return Failure(position, message)

    def mute_failures(self) -> None:
        """Pause furthest-failure recording.

        Whitespace skipping and inverted predicates probe the input with
        parsers whose failures are expected, not diagnostic; recording
        them would bury the real error under scanner noise.
        """
        self._muted += 1

    def unmute_failures(self) -> None:
        self._muted -= 1

    def furthest_failure(self) -> Optional[tuple[int, str]]:
        """The deepest failure seen, as (position, message), if any."""
        if self.furthest is None:
            return None
        pos, msg = self.furthest
        return pos, msg() if callable(msg) else msg

    # -- aggregate transactions ---------------------------------------------
    #
    # A snapshot is the tuple (position, trail length, trail).  It stays
    # valid until the context restores to an older snapshot, or until a
    # repetition that was already running when it was taken ends an
    # iteration; parsers only hold snapshots while their own call runs, so
    # neither happens to a snapshot still in use.  Restoring one whose mark
    # lies past the end of the trail raises ContractViolationError.

    def snapshot(self) -> tuple:
        return (self.position, len(self._trail), self._trail)

    def _mark(self, snap: tuple) -> int:
        _, mark, trail = snap
        if trail is not self._trail:
            raise ContractViolationError("snapshot belongs to a different context")
        if mark > len(trail):
            raise _stale()
        return mark

    def restore(self, snap: tuple) -> None:
        # The checks of _mark, inline: restore is on every failure path.
        position, mark, trail = snap
        if trail is not self._trail:
            raise ContractViolationError("snapshot belongs to a different context")
        if len(trail) != mark:
            if len(trail) < mark:
                raise _stale()
            while len(trail) > mark:
                prior = trail.pop()
                trail.pop().cell_restore(prior)
        self.position = position

    def _entries(self, start: int) -> zip:
        """The trail's (cell, prior version) pairs from index ``start``."""
        trail = self._trail
        return zip(trail[start::2], trail[start + 1::2])

    def _first_entries(self, mark: int) -> dict:
        """Each cell's first (cell, prior) entry after ``mark``, by id: the
        version the cell had at the mark."""
        first: dict = {}
        for item in self._entries(mark):
            first.setdefault(id(item[0]), item)
        return first

    def diff(self, snap: tuple) -> AggregateDelta:
        first = self._first_entries(self._mark(snap)).values()
        cells = tuple((cell, cell.cell_diff(prior)) for cell, prior in first)
        return AggregateDelta(self.position, cells, self._trail)

    def merge(self, delta: AggregateDelta) -> None:
        if delta.registry is not self._trail:
            raise ContractViolationError("delta belongs to a different context")
        for cell, d in delta.cells:
            cell.record()
            cell.cell_merge(d)
        self.position = delta.end_position

    def _unchanged_after(self, mark: int) -> bool:
        return not any(cell.cell_snapshot() != prior
                       for cell, prior in self._first_entries(mark).values())

    def unchanged_since(self, snap: tuple) -> bool:
        """True when the position and every cell logged since the snapshot
        still match it."""
        mark = self._mark(snap)
        return self.position == snap[0] and self._unchanged_after(mark)

    def end_iteration(self, entry: tuple, step: tuple, parser: Parser) -> None:
        """Close a successful iteration of a repetition.

        ``entry`` is the repetition's snapshot from before its first
        iteration, ``step`` the one from before this iteration.  An
        iteration that moved neither the position nor any logged cell would
        repeat forever, so it raises ContractViolationError.  Otherwise the
        iteration's trail entries are folded into the entries kept since
        ``entry``, keeping the first (oldest) version of each cell: restoring
        ``entry`` or anything older needs nothing else, and the trail stays
        within one entry per logged cell per running repetition.
        """
        position, mark, trail = step
        if self.position == position and self._unchanged_after(mark):
            raise ContractViolationError(
                f"{parser!r} iteration succeeded without consuming input "
                f"or changing state at position {position}"
            )
        if len(trail) > mark:
            held = set(map(id, trail[entry[1]:mark:2]))
            kept = []
            for cell, prior in self._entries(mark):
                if id(cell) not in held:
                    held.add(id(cell))
                    kept += (cell, prior)
            trail[mark:] = kept


def _stale() -> ContractViolationError:
    return ContractViolationError("stale snapshot: the context has restored past it")


class TracedContext(ParseContext):
    """A context that reports every snapshot, restore, diff and merge.

    Each operation runs the plain one, then passes ``trace`` one line: the
    operation, the position, and the summary of every registered cell.
    Built by ``ParseContext(..., trace=callable)``.
    """

    def snapshot(self) -> tuple:
        snap = super().snapshot()
        self._emit("snapshot")
        return snap

    def restore(self, snap: tuple) -> None:
        super().restore(snap)
        self._emit("restore")

    def diff(self, snap: tuple) -> AggregateDelta:
        delta = super().diff(snap)
        self._emit("diff")
        return delta

    def merge(self, delta: AggregateDelta) -> None:
        super().merge(delta)
        self._emit("merge")

    def _emit(self, op: str) -> None:
        cells = " ".join(c.summary() for c in self._cells)
        self.trace(f"{op} pos={self.position}" + (f" {cells}" if cells else ""))

"""Core engine: parse results, state cells, transactions, the parse context.

A parse runs over a :class:`ParseContext` holding the input text, the
current position, and a fixed registry of mutable state cells.  Every
parser invocation is transactional: it either succeeds, or it fails having
restored the position and every cell to their values at its entry.  The
context offers the four aggregate operations that make the discipline
cheap to follow:

* :meth:`ParseContext.snapshot` captures position plus every live cell,
* :meth:`ParseContext.restore` rewinds to a snapshot,
* :meth:`ParseContext.diff` packages the work done since a snapshot,
* :meth:`ParseContext.merge` replays such a package later.

Cells opt into the scheme by implementing the four corresponding cell-level
operations (:class:`StateCell`).  The context fans out to the cells whose
class is ``transactional`` (the live cells), treating the position as one
more piece of state; cells whose operations are no-ops are never visited.
A context built with a ``trace`` callable is a :class:`TracedContext`,
which runs the same operations and reports each one.
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
    own mutators; the four ``cell_*`` methods below are how the context
    rolls that content back and forth.  The contract: for any run of
    mutations, ``s = cell_snapshot(); ...mutations...; d = cell_diff(s);
    cell_restore(s); cell_merge(d)`` must leave the observable content as
    it was after the mutations (subject to each cell's documented
    ``cell_diff`` precondition).

    A class whose four operations are no-ops sets ``transactional`` to
    False; the context then leaves its instances out of every aggregate
    operation.
    """

    transactional = True

    def cell_snapshot(self):
        raise NotImplementedError

    def cell_restore(self, snapshot) -> None:
        raise NotImplementedError

    def cell_diff(self, snapshot):
        raise NotImplementedError

    def cell_merge(self, delta) -> None:
        raise NotImplementedError

    def summary(self) -> str:
        """One short token describing the content, for trace logs."""
        return type(self).__name__


@dataclass(frozen=True)
class AggregateDelta:
    """The work done since a snapshot: end position plus one delta per
    live cell, in registry order."""

    end_position: int
    cells: tuple
    registry: tuple


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
    ``ctx.state(IndentStack)``.  The furthest-failure record is
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
        # The cells the aggregate operations visit.  Its identity also tags
        # snapshots and deltas as this context's own; it is a list because
        # every empty tuple is the same object.
        self._live = [c for c in self._cells if c.transactional]
        self._by_type: dict[type, StateCell] = {}
        for cell in self._cells:
            t = type(cell)
            if t in self._by_type:
                raise ConfigurationError(f"duplicate state cell class {t.__name__}")
            self._by_type[t] = cell
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
    # A snapshot is the tuple (position, cell snapshots, live cells); the
    # cell snapshots line up with the live cells.

    def snapshot(self) -> tuple:
        live = self._live
        return (self.position, tuple([c.cell_snapshot() for c in live]), live)

    def restore(self, snap: tuple) -> None:
        position, states, live = snap
        if live is not self._live:
            raise ContractViolationError("snapshot belongs to a different context")
        self.position = position
        for cell, s in zip(live, states):
            cell.cell_restore(s)

    def diff(self, snap: tuple) -> AggregateDelta:
        _, states, live = snap
        if live is not self._live:
            raise ContractViolationError("snapshot belongs to a different context")
        return AggregateDelta(
            self.position,
            tuple([cell.cell_diff(s) for cell, s in zip(live, states)]),
            live,
        )

    def merge(self, delta: AggregateDelta) -> None:
        live = delta.registry
        if live is not self._live:
            raise ContractViolationError("delta belongs to a different context")
        self.position = delta.end_position
        for cell, d in zip(live, delta.cells):
            cell.cell_merge(d)

    def unchanged_since(self, snap: tuple) -> bool:
        """True when position and every live cell still match the snapshot.

        Used by repetition combinators to detect iterations that succeed
        while doing nothing at all, which would otherwise loop forever.
        """
        position, states, live = snap
        if live is not self._live:
            raise ContractViolationError("snapshot belongs to a different context")
        if self.position != position:
            return False
        for cell, s in zip(live, states):
            if cell.cell_snapshot() != s:
                return False
        return True


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

"""Core engine: state cells, transactions, the parse context.

A parse runs over a :class:`ParseContext` holding the caller's input
string itself, with no copy and no sentinel, the current position, its
own AST stack, and a fixed registry of mutable state cells.  Every parser
invocation is transactional: it either succeeds, or it fails having
restored the position and every cell to their values at its entry.  The
context offers the aggregate operations that make the discipline cheap
to follow:

* :meth:`ParseContext.snapshot` marks the position, AST top and trail,
* :meth:`ParseContext.restore` rewinds to a snapshot,
* :meth:`ParseContext.diff` packages the work done since a snapshot,
* :meth:`ParseContext.merge` replays such a package later,
* :meth:`ParseContext.end_iteration` closes one step of a repetition.

The context keeps one undo trail, the append-only change log of
:mod:`txpeg.logmodel` made operational as in the trail of the Warren
Abstract Machine: before a cell changes its content it appends itself
and its prior version (:meth:`StateCell.record`).  A snapshot is just
the position, the AST stack's top and the trail's length, and a restore
sets the first two back and pops the trail back to that length, handing
each popped version back to its cell, so cells that nobody touched are
never visited.  The AST stack is the context's own, as the position is:
output that only grows above a live snapshot, as the WAM's heap does
above a choice point, so, like the heap top, its top is saved in the
snapshot and never trailed; the trail holds every other cell.
Repetitions fold each finished iteration's entries into one per cell,
which keeps the trail as long as the nesting is deep, not as the input
is long; once a repetition holds an entry for every cell that logs, an
iteration's entries are dropped in O(1).  Diff and merge walk the same
trail: a delta carries one entry per cell logged since its snapshot,
plus the segment of links pushed on the AST stack since then, shared,
not copied, so a merge back onto the segment's base is one assignment;
over a trail with no entry past the snapshot a diff builds no cell part
at all.  A cell that never logs (an :class:`~txpeg.states.InertState`)
is never visited by any of these operations.  A :class:`TracedContext`
runs the same operations and reports each one to a ``trace`` callable.

A parse returns only ``True`` or ``False``.  A failure allocates nothing:
:meth:`ParseContext.fail` keeps its position and cause in two slots of the
context and returns ``False``, and :meth:`ParseContext.furthest_failure`
is the one reader of that record.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Optional

__all__ = [
    "ASCII",
    "AggregateDelta",
    "ConfigurationError",
    "ContractViolationError",
    "ParseContext",
    "Parser",
    "StateCell",
    "TracedContext",
]

#: The characters a FIRST set describes (:meth:`Parser.first`).
ASCII = frozenset(map(chr, range(128)))


class ContractViolationError(Exception):
    """A parser or cell broke the transactional discipline."""


class ConfigurationError(Exception):
    """A grammar or context was assembled inconsistently."""


class StateCell:
    """A unit of mutable parse state.

    Subclasses hold whatever content they like and expose it through their
    own mutators; the ``cell_*`` methods below are how the context rolls
    that content back and forth.  Two are required: ``cell_snapshot``
    returns the current version and ``cell_restore`` reinstates one.  The
    other two have defaults that treat a whole version as the delta:
    ``cell_diff`` returns the current version and ``cell_merge`` restores
    it.  A cell overrides them only for a finer delta, as
    :class:`~txpeg.states.MonotonicStack` does: its delta is the segment of
    links pushed since the snapshot, shared rather than copied.  The
    contract: for any run of mutations, ``s = cell_snapshot(); ...mutations...; d =
    cell_diff(s); cell_restore(s); cell_merge(d)`` must leave the
    observable content as it was after the mutations (subject to each
    cell's documented ``cell_diff`` precondition).

    A context rolls cells back through its trail, so every mutator must
    log the cell's prior version there first, by calling :meth:`record`
    before it changes the content.  The strategies in :mod:`txpeg.states`
    log their own changes, so a cell that subclasses one of them and
    changes its content only through the inherited mutators needs nothing
    more.  A change that is not logged survives backtracking, and a cell
    that never logs is never visited by the context.  A repetition's fold
    keeps only a cell's oldest version logged since its entry, so a
    restore may hand ``cell_restore`` that version, skipping the ones in
    between; and ``merge``'s default hands it a later version, the delta.
    So it must reinstate any version from any state.

    A context joins each cell it registers through :meth:`bind`; an
    override that logs must call ``super().bind(ctx)``.

    ``steers`` says whether the content steers the parse: an iteration of a
    repetition that consumes nothing must change a cell that steers.  Output
    such as the AST stack does not; a repetition must not count its depth.
    """

    #: The trail of the context the cell is registered with; None while the
    #: cell stands alone, when mutations are not logged.
    _trail: Optional[list] = None

    steers = True

    def bind(self, ctx: ParseContext) -> None:
        """Join ``ctx``: log each change on its trail from now on."""
        self._trail = ctx._trail

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


#: The empty top every persistent stack of :mod:`txpeg.states` starts
#: from and ends at, defined here for the empty AST segment of
#: :class:`AggregateDelta`.  A link is the tuple ``(depth, value,
#: below)``: built by a tuple display, with no Python call, and its depth
#: answers ``size`` in O(1).  Depth comes first so that two links of
#: different depths compare unequal at once, without comparing the links
#: below them.
BOTTOM = (0, None, None)


class AggregateDelta(NamedTuple):
    """The work done since a snapshot: end position plus a (cell, delta)
    pair for each cell logged on the trail since then; ``registry`` is the
    context's trail, which tags the delta as that context's own; ``ast``,
    the segment of links pushed on the AST stack since then, as the pair
    (top at the snapshot, top at the diff), the links shared, not copied.
    Its default, a segment whose base is its top, pushes nothing."""

    end_position: int
    cells: tuple
    registry: list
    ast: tuple = (BOTTOM, BOTTOM)


class Record:
    """A mutable record compared and shown by the fields that
    ``__match_args__`` names, in order, as a plain dataclass would be:
    equal only to a record of the same class, and unhashable."""

    __slots__ = ()
    __match_args__: tuple = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = attrgetter(*self.__match_args__)
        return fields(self) == fields(other)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Parser:
    """Base class for parsers.

    A parser is an immutable description; all per-parse mutation lives in
    the context, and its attributes never change after construction.
    ``parse`` must uphold the transaction contract: return ``True`` with
    any effects in place, or ``ctx.fail(position, cause)``, which is
    ``False``, with the position and every cell exactly as they were at
    entry.  The outcome is only that bit: what a failure reports lives in
    the context (:meth:`ParseContext.fail`).

    Sub-parsers live in ``children``: freeze copies the graph through it
    and the left-recursion check walks it.  A class states its own static
    behaviour by overriding :meth:`nullable`, :meth:`left_children`,
    :meth:`first` and :meth:`char_test`, and may adapt its frozen copy to
    those facts in :meth:`specialise`.  As the parse-wide whitespace it
    is skipped by its ``scan`` when it has one, or else run muted.
    """

    children: tuple = ()

    #: A one-character predicate when the parser is a frozen run of the
    #: characters it accepts, so skipping it as whitespace is one scan.
    scan: Optional[Callable[[str], bool]] = None

    #: Freeze keeps one copy of the nodes of equal class, attributes and
    #: children; a class that keys per-parse state by its own identity,
    #: as ``leftrec`` does, sets this false and keeps a copy per node.
    shareable: bool = True

    def parse(self, ctx: "ParseContext") -> bool:
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

    def first(self, child_first: Callable[["Parser"], Optional[frozenset]],
              nullable: Callable[["Parser"], bool]) -> Optional[frozenset]:
        """The ASCII characters that can start a match that consumes input
        (its FIRST set), or None when that is unknown.

        Only ``chr(0)`` to ``chr(127)`` are described: a match may start
        with any other character.  ``child_first`` answers the same question
        for a child, and ``nullable`` is :meth:`nullable` worked out over
        the whole graph.  Freeze asks only where it uses the answer, the
        child of a ``not_`` and the children of a ``choice``, memoises it,
        and counts a node met again while its own set is being worked out
        as unknown.  The default, unknown, is always safe, so a custom
        parser keeps the plain path.

        A class that states a set makes this promise, which is what lets
        a frozen ``not_`` or ``choice`` skip the parser: at an ASCII
        character outside the set, a parse consumes nothing and records
        failures (:meth:`ParseContext.fail`) only at its entry position;
        one that is not nullable fails there.  The promise covers the end
        of input too, the key ``""`` of their tables, which no set holds:
        a parser that must consume input fails there, so a frozen
        ``choice`` or ``not_`` may skip it there.  A parser that looks
        past its entry without consuming, as ``ahead`` does, must count
        what it looks at in its set.  And a parser that succeeds behind a
        position its child reached, as ``ahead`` does, must put the
        failure record back as it was at its entry, or a child skipped in
        there could change what the parse reports.  A skipped parser is not
        run at all, so a frozen ``not_`` or ``choice`` may pass over one
        whose plain run would raise, for example a
        ``ContractViolationError`` from a repetition whose iteration
        consumes nothing.
        """
        return None

    def children_first(self, child_first, nullable) -> Optional[frozenset]:
        """:meth:`first` for a parser that consumes input only through its
        children: the union of theirs along :meth:`left_children`.  A class
        adopts it with ``first = Parser.children_first``."""
        chars = frozenset()
        for c in self.left_children(nullable):
            got = child_first(c)
            if got is None:
                return None
            chars |= got
        return chars

    def zero_width_first(self, child_first, nullable) -> frozenset:
        """:meth:`first` for a parser that never consumes input and records
        failures only at its entry: the empty set.  A class adopts it with
        ``first = Parser.zero_width_first``."""
        return frozenset()

    def char_test(self) -> Optional[Callable[[str], bool]]:
        """A predicate on one character when this parser matches exactly
        one character that satisfies it and does nothing else; else None.
        A frozen ``zero_more`` or ``one_more`` of it then scans with the
        predicate, with no snapshot, and records this parser's failure."""
        return None

    def expected(self) -> str:
        """The message of a failure this parser is the recorded cause of."""
        return f"expected {self!r}"

    def specialise(self, nullable: Callable[["Parser"], bool],
                   first: Callable[["Parser"], Optional[frozenset]]) -> None:
        """Adapt this node of a frozen copy to the facts freeze worked out.

        Freeze calls it once on every node of its private copy, after the
        recursion check; ``nullable`` and ``first`` answer :meth:`nullable`
        and :meth:`first` for any node.  The outcome of every parse must
        stay as it would have been, that is as it is under
        ``freeze(specialise=False)``, which calls no ``specialise``.  That
        holds for parses that return: where the plain path raises, the
        frozen one may skip the parser that raises and return instead
        (:meth:`first`).  The default does nothing.
        """

    def left_children(self, nullable: Callable[["Parser"], bool]) -> tuple:
        """The children this parser can invoke at its own entry position;
        ``LeftRec``, which allows its own re-entry, returns none."""
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

    Its public attributes: ``text``, the caller's string itself, with
    nothing appended, so a parse holds no copy of its input; ``position``,
    the cursor, never past the end; ``input_length``, ``len(text)``;
    ``furthest_at`` and ``furthest_cause``, the furthest-failure record
    (:meth:`fail`), which :meth:`furthest_failure` reads;
    ``muted``, nonzero while failures are kept out of the record;
    ``seeds``, the left-recursive calls in flight; ``whitespace``, the
    parse-wide whitespace parser, or None for the default; and ``ast``, the
    context's own :class:`~txpeg.states.AstStack`, which the AST parsers
    write.

    No character stands at the end of input: a parser reads ``text`` only
    below ``input_length``, or through ``str.startswith``, which is bounded
    by itself.  ``text[position]`` at the end raises :class:`IndexError`.
    A ``text`` that is not a ``str`` raises :class:`TypeError`.

    The cell registry is fixed at construction; cells are looked up by
    their exact class, so a grammar addresses "the indentation stack" as
    ``ctx.state(IndentStack)``.  It starts with ``ast`` under
    :class:`~txpeg.states.AstStack`, so a given cell of exactly that class
    is a duplicate.  Registering a cell binds it to the context
    (:meth:`StateCell.bind`), by default to the trail that every
    transaction operation walks; the registry itself is only for lookup.
    ``ast`` is never bound: a snapshot is the position, the top of ``ast``
    and the trail's mark, so the AST stack is handled as a register, as
    the position is, and the trail holds every other cell.
    The furthest-failure record is deliberately outside the transaction:
    backtracking must not erase the best diagnostic seen so far.  So is
    ``seeds`` (:mod:`txpeg.leftrec`): each call removes its own key on exit.
    """

    def __init__(self, text: str, cells: Iterable[StateCell] = (),
                 whitespace: Optional[Parser] = None):
        if not isinstance(text, str):
            raise TypeError(f"a parse reads a str, not {type(text).__name__}")
        self.text = text
        self.input_length = len(text)
        self.position = 0
        self.whitespace = whitespace
        self._cells = tuple(cells)
        # The undo trail, oldest first, flat: cell, prior version, cell,
        # prior version, ...  Its identity also tags snapshots and deltas
        # as this context's own.
        self._trail: list = []
        self.ast = AstStack()
        self._by_type: dict[type, StateCell] = {AstStack: self.ast}
        for cell in self._cells:
            t = type(cell)
            if t in self._by_type:
                raise ConfigurationError(f"duplicate state cell class {t.__name__}")
            self._by_type[t] = cell
        # The furthest failure, never restored: position (-1 for none), cause.
        self.furthest_at = -1
        self.furthest_cause = None
        self.seeds: dict = {}
        # Nonzero while failures are muted: whitespace and inverted
        # predicates probe with parsers whose failures are expected, and
        # recording them would bury the real error under scanner noise.
        self.muted = 0
        for cell in self._cells:
            cell.bind(self)
        # The trail length a repetition holds once it has folded in an
        # entry for every cell that logs here (end_iteration).
        self._all_held = 2 * sum(c._trail is self._trail for c in self._cells)

    def state(self, cell_class: type) -> StateCell:
        """Return the registered cell of exactly ``cell_class``."""
        try:
            return self._by_type[cell_class]
        except KeyError:
            raise ConfigurationError(
                f"no state cell of class {cell_class.__name__} registered"
            ) from None

    # -- failure bookkeeping ------------------------------------------------

    def fail(self, position: int, cause) -> bool:
        """Record the failure if :meth:`would_record`; return ``False``.  The
        ``cause`` is a message or the failing parser, whose
        :meth:`Parser.expected` builds the message only when it is read."""
        if not self.muted and position >= self.furthest_at:
            self.furthest_at = position
            self.furthest_cause = cause
        return False

    def would_record(self, position: int) -> bool:
        """Whether a failure at ``position`` would replace the record now:
        failures are not muted and it lies at or past the record."""
        return not self.muted and position >= self.furthest_at

    def furthest_failure(self) -> Optional[tuple[int, str]]:
        """The deepest failure seen, as (position, message), if any."""
        cause = self.furthest_cause
        if isinstance(cause, Parser):
            cause = cause.expected()
        return None if self.furthest_at < 0 else (self.furthest_at, cause)

    # -- aggregate transactions ---------------------------------------------
    #
    # A snapshot is the tuple (position, trail length, trail, AST top).  It
    # stays valid until the context restores to an older snapshot, or until
    # a repetition that was already running when it was taken ends an
    # iteration; parsers only hold snapshots while their own call runs, so
    # neither happens to a snapshot still in use.  Restoring one whose mark
    # lies past the end of the trail raises ContractViolationError.

    def snapshot(self) -> tuple:
        return (self.position, len(self._trail), self._trail, self.ast._top)

    def restore(self, snap: tuple) -> None:
        # The checks of diff, inline: restore is on every failure path.
        position, mark, trail, top = snap
        if trail is not self._trail:
            raise ContractViolationError("snapshot belongs to a different context")
        if len(trail) != mark:
            if len(trail) < mark:
                raise _stale()
            while len(trail) > mark:
                prior = trail.pop()
                trail.pop().cell_restore(prior)
        self.ast._top = top
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
        """The work done since ``snap``: each logged cell's delta from its
        first (cell, prior) entry after the trail's mark, the version the
        cell had at the mark.  With no entry after the mark, which is every
        left-recursion round that touches no trailed cell, it builds no
        cell part at all."""
        _, mark, trail, top = snap
        if trail is not self._trail:
            raise ContractViolationError("snapshot belongs to a different context")
        if len(trail) == mark:
            cells = ()
        elif len(trail) < mark:
            raise _stale()
        else:
            cells = tuple((cell, cell.cell_diff(prior))
                          for cell, prior in self._first_entries(mark).values())
        return AggregateDelta(self.position, cells, trail, self.ast.cell_diff(top))

    def merge(self, delta: AggregateDelta) -> None:
        if delta.registry is not self._trail:
            raise ContractViolationError("delta belongs to a different context")
        for cell, d in delta.cells:
            cell.record()
            cell.cell_merge(d)
        self.ast.cell_merge(delta.ast)
        self.position = delta.end_position

    def _unchanged_after(self, mark: int) -> bool:
        return not any(cell.steers and cell.cell_snapshot() != prior
                       for cell, prior in self._first_entries(mark).values())

    def end_iteration(self, entry: tuple, step: tuple, parser: Parser) -> None:
        """Close a successful iteration of a repetition.

        ``entry`` is the repetition's snapshot from before its first
        iteration, ``step`` the one from before this iteration.  An
        iteration that moved neither the position nor any cell that steers
        would repeat forever, so it raises ContractViolationError.  Each
        steering cell is compared by content: a version equal to the one
        it had at ``step``, such as a fresh stack link that holds the value
        just popped over the same link below, is no progress.
        Otherwise the iteration's trail entries are folded into the entries
        kept since ``entry``, keeping the first (oldest) version of each
        cell: restoring ``entry`` or anything older needs nothing else, and
        the trail stays within one entry per logged cell per running
        repetition.

        The caller must log nothing between its previous ``end_iteration``
        and ``step``, or restore what it logged there, so that the trail
        from ``entry`` to ``step`` holds at most one entry per cell.  When
        it holds one for every cell that logs here, the fold would keep
        nothing, and the iteration's entries are dropped in O(1).
        """
        position, mark, trail, _ = step
        if self.position == position and self._unchanged_after(mark):
            raise ContractViolationError(
                f"{parser!r} iteration succeeded without consuming input "
                f"or changing a cell that steers at position {position}"
            )
        if mark - entry[1] == self._all_held:
            del trail[mark:]
        elif len(trail) > mark:
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
    operation, the position, and the summary of every registered cell,
    then of the AST stack.  The plain :class:`ParseContext` carries no
    tracing check at all.
    """

    def __init__(self, text: str, trace: Callable[[str], None],
                 cells: Iterable[StateCell] = (),
                 whitespace: Optional[Parser] = None):
        super().__init__(text, cells, whitespace)
        self.trace = trace

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
        cells = " ".join(c.summary() for c in (*self._cells, self.ast))
        self.trace(f"{op} pos={self.position} {cells}")


# The AST stack is a MonotonicStack, and txpeg.states builds its strategies
# on StateCell above, so it can only be imported once this module is done.
from .states import AstStack  # noqa: E402

"""Parsing expression combinators over the transactional context.

Every combinator honors one contract: succeed with its effects in place,
or fail with the position and every state cell exactly as they were at
entry.  Sequences snapshot and restore; alternatives need nothing extra
because their children already clean up after themselves; lookahead
restores even on success.  Custom parsers written against the same
contract compose freely with everything here.

AST construction is parse state like any other: matched text, nodes and
collected lists live on the context's own stack, ``ctx.ast`` (an
:class:`~txpeg.states.AstStack`), so speculative parses that fail drop
their half-built output for free.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from .core import ASCII, ContractViolationError, ParseContext, Parser, Record
from .states import AstStack  # re-exported: the AST parsers' stack

__all__ = [
    "AstNode",
    "AstStack",
    "Ahead",
    "Build",
    "Capture",
    "CharPred",
    "Choice",
    "Collect",
    "Literal",
    "Not",
    "OneMore",
    "OptValue",
    "Perform",
    "Predicate",
    "Seq",
    "Until",
    "Whitespace",
    "ZeroMore",
    "ahead",
    "and_do",
    "build",
    "capture",
    "char_pred",
    "choice",
    "collect",
    "end_of_input",
    "literal",
    "node",
    "not_",
    "one_more",
    "opt",
    "opt_value",
    "perform",
    "predicate",
    "seq",
    "until",
    "whitespace",
    "word",
    "zero_more",
]


class AstNode(Record):
    """A syntax tree node: a kind tag, child values, and a text span.

    Children may be nodes, strings, lists or None; ``span`` is the
    half-open [start, end) range of input the node was built from, or
    None.  It is stored as two slots, ``start`` and ``end`` (both None
    for no span), so a node holds no tuple of its own; ``span`` reads them
    back as a tuple and takes any (start, end) pair, raising
    :class:`TypeError` for anything else but None.
    """

    __slots__ = ("kind", "children", "start", "end")
    __match_args__ = ("kind", "children", "span")

    def __init__(self, kind: str, children: tuple = (), span: Optional[tuple] = None):
        self.kind = kind
        self.children = children
        self.start = self.end = None
        if span is not None:
            self.span = span

    @property
    def span(self) -> Optional[tuple]:
        return None if self.start is None else (self.start, self.end)

    @span.setter
    def span(self, span: Optional[tuple]) -> None:
        if span is None:
            self.start = self.end = None
            return
        try:
            self.start, self.end = span
        except (TypeError, ValueError):
            raise TypeError(
                f"a span is a (start, end) pair or None, not {span!r}") from None


def node(kind: str) -> Callable[..., AstNode]:
    """A ``make`` function for :func:`build`: wraps values in a node."""
    return lambda *values: AstNode(kind, values)


# ---------------------------------------------------------------------------
# Sequencing and alternation.


class Seq(Parser):
    """Children in order; one failure rewinds the whole sequence.

    A frozen seq splices each child that is itself exactly a seq into its
    own children, recursively, and so runs the whole flattened run under
    one snapshot.  The inner snapshot could never matter: an inner seq
    fails only by failing this one, which returns the same failure and
    restores to its own, older mark.  A seq already on the splice path,
    as one that holds itself, stays a plain child.
    """

    def __init__(self, *children: Parser):
        self.children = children

    def parse(self, ctx: ParseContext) -> bool:
        snap = ctx.snapshot()
        for child in self.children:
            if not child.parse(ctx):
                ctx.restore(snap)
                return False
        return True

    def nullable(self, child_nullable) -> bool:
        return all(child_nullable(c) for c in self.children)

    first = Parser.children_first

    def left_children(self, nullable) -> tuple:
        # Up to and including the first child that must consume input.
        for i, c in enumerate(self.children):
            if not nullable(c):
                return self.children[:i + 1]
        return self.children

    def specialise(self, nullable, first) -> None:
        def splice(children, path):
            for c in children:
                if type(c) is Seq and id(c) not in path:
                    yield from splice(c.children, path | {id(c)})
                else:
                    yield c

        self.children = tuple(splice(self.children, {id(self)}))


class Choice(Parser):
    """First succeeding child wins; no cleanup needed between attempts,
    failed children have already undone their own work.

    A frozen choice tries, at an ASCII next character or at the end of
    input, only the children that ``dispatch`` lists for it.  A child left
    out cannot match there: it would have failed at this position and
    recorded failures only here (:meth:`~txpeg.core.Parser.first`).  If
    every child fails, this parser's own failure here replaces those
    records.  If one succeeds, the parse goes on from here or further, and
    comes back behind here only after recording a failure at or past here,
    which replaces them, or out of a successful ``ahead``, which drops
    every record made inside it.  Either way the outcome of the parse is
    the same.
    """

    #: The next character -> the children that can match there, in their
    #: order: each that is nullable or has an unknown FIRST set, and each
    #: whose set holds the character.  Its keys are the ASCII characters
    #: and ``""``, the end of input, which no set holds.  Freeze fills it
    #: in on its private copy; a key it does not list tries every child.
    #: The class's empty table is shared and never written.
    dispatch: dict = {}

    def __init__(self, *children: Parser):
        self.children = children

    def parse(self, ctx: ParseContext) -> bool:
        try:
            alts = self.dispatch.get(ctx.text[ctx.position], self.children)
        except IndexError:
            alts = self.dispatch.get("", self.children)
        for child in alts:
            if child.parse(ctx):
                return True
        return ctx.fail(ctx.position, "no alternative matched")

    first = Parser.children_first

    def specialise(self, nullable, first) -> None:
        children = self.children
        sets = tuple(None if nullable(c) else first(c) for c in children)
        # A key no set holds, the end of input among them, keeps only the
        # children kept everywhere; keys that keep the same children share
        # one tuple, found by identity, since a parser class may define its
        # own equality.
        everywhere = tuple(c for c, s in zip(children, sets) if s is None)
        dispatch = dict.fromkeys((*ASCII, ""), everywhere)
        shared = {}
        for ch in frozenset().union(*filter(None, sets)):
            alts = tuple(c for c, s in zip(children, sets) if s is None or ch in s)
            dispatch[ch] = shared.setdefault(tuple(map(id, alts)), alts)
        self.dispatch = dispatch


class ZeroMore(Parser):
    """Repeat the child until it fails; always succeeds.

    Freeze sets ``scan`` on its private copy to the child's
    :meth:`~txpeg.core.Parser.char_test`: the repetition is then one
    :func:`_scan_run`.
    """

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> bool:
        child = self.children[0]
        if self.scan is not None:
            _scan_run(ctx, self.scan, child)
            return True
        entry = step = ctx.snapshot()
        while child.parse(ctx):
            ctx.end_iteration(entry, step, self)
            step = ctx.snapshot()
        return True

    def nullable(self, child_nullable) -> bool:
        return True

    first = Parser.children_first

    def specialise(self, nullable, first) -> None:
        self.scan = self.children[0].char_test()


class OneMore(Parser):
    """The child once, then :class:`ZeroMore`'s loop: ``e+`` is ``e e*``."""

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> bool:
        child = self.children[0]
        if self.scan is not None:
            # A run of none fails as the child, whose failure the scan recorded.
            start = ctx.position
            return _scan_run(ctx, self.scan, child) > start
        return child.parse(ctx) and ZeroMore.parse(self, ctx)

    first = Parser.children_first
    specialise = ZeroMore.specialise


def _scan_run(ctx: ParseContext, scan: Callable[[str], bool],
              child: Optional[Parser] = None) -> int:
    """Move the position past the characters that satisfy ``scan``, the
    repeated child's :meth:`~txpeg.core.Parser.char_test`, in one loop;
    return the position where the run ends, and record ``child``'s failure
    there, with no call, if it is given."""
    text, pos, end = ctx.text, ctx.position, ctx.input_length
    while pos < end and scan(text[pos]):
        pos += 1
    ctx.position = pos
    if child is not None and not ctx.muted and pos >= ctx.furthest_at:
        ctx.furthest_at = pos
        ctx.furthest_cause = child
    return pos


class Until(Parser):
    """Repeat ``item`` until ``terminator`` matches.

    The terminator is tried first on every iteration and its effects are
    kept when it matches.  If the item fails before the terminator is
    seen, the whole parser fails and rewinds everything, matched items
    included.
    """

    def __init__(self, item: Parser, terminator: Parser):
        self.children = (item, terminator)

    def parse(self, ctx: ParseContext) -> bool:
        item, terminator = self.children
        entry = ctx.snapshot()
        while True:
            if terminator.parse(ctx):
                return True
            step = ctx.snapshot()
            if not item.parse(ctx):
                ctx.restore(entry)
                return False
            ctx.end_iteration(entry, step, self)

    def nullable(self, child_nullable) -> bool:
        return child_nullable(self.children[1])

    first = Parser.children_first


# ---------------------------------------------------------------------------
# Lookahead.


class Ahead(Parser):
    """Succeed iff the child would, consuming nothing and keeping no
    state changes either way.

    A success also leaves the furthest-failure record as it found it:
    the failures the child met on its way are not this parser's, and the
    parse goes on from the entry, behind them.  A failure keeps them.
    """

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> bool:
        snap = ctx.snapshot()
        at, cause = ctx.furthest_at, ctx.furthest_cause
        if not self.children[0].parse(ctx):
            return False
        ctx.restore(snap)
        ctx.furthest_at, ctx.furthest_cause = at, cause
        return True

    def nullable(self, child_nullable) -> bool:
        return True

    # Its child's failures may lie past its own entry, so it may be
    # skipped only where its child would be.
    first = Parser.children_first


class Not(Parser):
    """Succeed iff the child fails; state-neutral in both directions.

    A frozen not_ holds :class:`Choice`'s table for its one child, built
    by the same ``specialise``, and does not call the child where the
    table lists no child: it would fail there, leaving everything as it
    found it.
    """

    dispatch = Choice.dispatch

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> bool:
        try:
            alts = self.dispatch.get(ctx.text[ctx.position], self.children)
        except IndexError:
            alts = self.dispatch.get("", self.children)
        if not alts:
            return True
        snap = ctx.snapshot()
        # The child's failures are this parser's successes; keep them out
        # of the diagnostic record.
        ctx.muted += 1
        try:
            matched = alts[0].parse(ctx)
        finally:
            ctx.muted -= 1
        if not matched:
            return True
        ctx.restore(snap)
        return ctx.fail(ctx.position, self)

    def expected(self) -> str:
        return f"unexpected {self.children[0]!r}"

    def nullable(self, child_nullable) -> bool:
        return True

    first = Parser.zero_width_first
    specialise = Choice.specialise


# ---------------------------------------------------------------------------
# Terminals.


class CharPred(Parser):
    """Match one character satisfying a predicate.

    At the end of input there is no character, so the predicate is not
    called and the parser fails; a NUL inside the input is passed like any
    other character.

    The predicate must be a pure function of its one character: freeze
    calls it on ``chr(0)`` to ``chr(127)`` to learn the parser's FIRST set
    (:meth:`~txpeg.core.Parser.first`), and a frozen ``zero_more`` or
    ``one_more`` of a ``char_pred`` calls it without going through this
    parser.
    """

    def __init__(self, pred: Callable[[str], bool], label: Optional[str] = None):
        self.pred = pred
        self.label = label

    def parse(self, ctx: ParseContext) -> bool:
        pos = ctx.position
        if pos < ctx.input_length and self.pred(ctx.text[pos]):
            ctx.position = pos + 1
            return True
        return ctx.fail(pos, self)

    def __repr__(self):
        return self.label if self.label else "char_pred"

    def nullable(self, child_nullable) -> bool:
        return False

    def first(self, child_first, nullable) -> Optional[frozenset]:
        try:
            return frozenset(filter(self.pred, ASCII))
        except Exception:       # it raises on some character: unknown
            return None

    def char_test(self) -> Callable[[str], bool]:
        return self.pred


class Literal(Parser):
    """Match an exact string.

    ``str.startswith`` stops at the end of the input by itself, so no
    literal matches past it; a NUL in the string matches a NUL inside the
    input like any other character.
    """

    def __init__(self, string: str):
        self.string = string

    def parse(self, ctx: ParseContext) -> bool:
        pos = ctx.position
        if ctx.text.startswith(self.string, pos):
            ctx.position = pos + len(self.string)
            return True
        return ctx.fail(pos, self)

    def expected(self) -> str:
        return f"expected {self.string!r}"

    def __repr__(self):
        return f"literal({self.string!r})"

    def nullable(self, child_nullable) -> bool:
        return self.string == ""

    def first(self, child_first, nullable) -> frozenset:
        return ASCII.intersection(self.string[:1])


#: Whitespace skipped after tokens unless a grammar supplies its own.
DEFAULT_WHITESPACE: Parser


class Whitespace(Parser):
    """Skip the parse-wide whitespace parser (or the default): by its
    ``scan`` alone, or else by running it muted, with the outcome ignored.

    Whitespace is expected to always succeed; a failing custom whitespace
    parser, or a scan that matches nothing, is treated as matching nothing.
    """

    def parse(self, ctx: ParseContext) -> bool:
        ws = DEFAULT_WHITESPACE if ctx.whitespace is None else ctx.whitespace
        if ws.scan is not None:
            _scan_run(ctx, ws.scan)
            return True
        # Scanner probing is not diagnostic, so it must not claim the
        # furthest-failure record.
        ctx.muted += 1
        try:
            ws.parse(ctx)
        finally:
            ctx.muted -= 1
        return True


# ---------------------------------------------------------------------------
# Semantic actions and conditions.


class Predicate(Parser):
    """Succeed iff a condition on the context holds; consumes nothing.

    ``message`` may be a string or a function of the context, called only
    for a failure the failure record takes (not muted, at or past it),
    while the state that produced the verdict is still in place.
    """

    def __init__(self, cond: Callable[[ParseContext], bool],
                 message: Union[str, Callable[[ParseContext], str]] = "condition not met"):
        self.cond = cond
        self.message = message

    def parse(self, ctx: ParseContext) -> bool:
        if self.cond(ctx):
            return True
        if not ctx.would_record(ctx.position):
            return False
        msg = self.message
        return ctx.fail(ctx.position, msg(ctx) if callable(msg) else msg)

    first = Parser.zero_width_first


class Perform(Parser):
    """Run a state-mutating effect and succeed; consumes nothing."""

    def __init__(self, effect: Callable[[ParseContext], Any]):
        self.effect = effect

    def parse(self, ctx: ParseContext) -> bool:
        self.effect(ctx)
        return True

    first = Parser.zero_width_first


# ---------------------------------------------------------------------------
# AST building.


class Capture(Parser):
    """Run the child; on success push the matched slice of input."""

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> bool:
        start = ctx.position
        if not self.children[0].parse(ctx):
            return False
        ctx.ast.push(ctx.text[start:ctx.position])
        return True

    first = Parser.children_first


def _gather(*values) -> list:
    return list(values)


class Collect(Parser):
    """Gather everything the child pushed into one list, oldest first."""

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> bool:
        ast = ctx.ast
        depth = ast._top[0]
        if not self.children[0].parse(ctx):
            return False
        ast.replace_above(depth, _gather)
        return True

    first = Parser.children_first


class Build(Parser):
    """Pop a fixed number of values and push one node built from them.

    ``make`` receives the values in the order they were pushed; the node's
    span covers the child's whole match.  Popping more than the child
    pushed would steal someone else's output, so that raises.

    A frozen build of one value whose child is exactly a ``capture`` runs
    the capture's own child and pushes ``make`` of the matched text: the
    slice the capture would push is the one value it would pop, so it is
    neither pushed nor popped.  Anything the captured child pushes stays
    below the node, as on the plain path.
    """

    #: The capture's child, set by freeze on its private copy of such a
    #: build; the class's None keeps the plain path.
    captured: Optional[Parser] = None

    def __init__(self, child: Parser, arity: int, make: Callable[..., AstNode]):
        self.children = (child,)
        self.arity = arity
        self.make = make

    def parse(self, ctx: ParseContext) -> bool:
        ast = ctx.ast
        start = ctx.position
        captured = self.captured
        if captured is not None:
            if not captured.parse(ctx):
                return False
            made = self.make(ctx.text[start:ctx.position])
            ast.push(made)
        else:
            depth = ast._top[0]
            if not self.children[0].parse(ctx):
                return False
            size = ast._top[0]
            if size - depth < self.arity:
                raise ContractViolationError(
                    f"build needs {self.arity} values but the child pushed {size - depth}"
                )
            made = ast.replace_above(size - self.arity, self.make)
        if isinstance(made, AstNode) and made.start is None:
            made.start = start
            made.end = ctx.position
        return True

    first = Parser.children_first

    def specialise(self, nullable, first) -> None:
        child = self.children[0]
        if self.arity == 1 and type(child) is Capture:
            self.captured = child.children[0]


class OptValue(Parser):
    """An option on the AST stack: the child's one value, or None.

    The child must push exactly one value when it succeeds; when it fails,
    None is pushed in its place and the whole parser still succeeds, so a
    consumer downstream can rely on the stack depth.
    """

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> bool:
        ast = ctx.ast
        depth = ast._top[0]
        if not self.children[0].parse(ctx):
            ast.push(None)
        elif ast._top[0] != depth + 1:
            raise ContractViolationError("opt_value child must push exactly one value")
        return True

    def nullable(self, child_nullable) -> bool:
        return True

    first = Parser.children_first


# ---------------------------------------------------------------------------
# Factory surface.  Grammars read better in lowercase; each name is the
# class itself, so ``seq(a, b)`` builds a :class:`Seq` with no wrapper call,
# except the four compositions at the end, which build on the classes.

seq = Seq
choice = Choice
zero_more = ZeroMore
one_more = OneMore
until = Until
ahead = Ahead
not_ = Not
char_pred = CharPred
literal = Literal
whitespace = Whitespace
predicate = Predicate
perform = Perform
capture = Capture
collect = Collect
build = Build
opt_value = OptValue


def _nothing(ctx: ParseContext) -> None:
    pass


def opt(child: Parser) -> Parser:
    """Try the child; succeed either way: ``e?`` is ``e / ε``, with ε a
    ``perform`` that does nothing, which freeze shares among all opts."""
    return Choice(child, Perform(_nothing))


def word(string: str) -> Parser:
    """Match a literal, then skip trailing whitespace: a token."""
    return Seq(Literal(string), Whitespace())


def and_do(child: Parser, effect: Callable[[ParseContext], Any]) -> Parser:
    """Run the child; on success, apply an effect as well."""
    return Seq(child, Perform(effect))


def _at_end(ctx: ParseContext) -> bool:
    return ctx.position >= ctx.input_length


def end_of_input() -> Parser:
    """Succeed exactly at the end of the input, consuming nothing."""
    return Predicate(_at_end, "expected end of input")


DEFAULT_WHITESPACE = ZeroMore(CharPred(str.isspace, "whitespace"))

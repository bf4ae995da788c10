"""Parsing expression combinators over the transactional context.

Every combinator honors one contract: succeed with its effects in place,
or fail with the position and every state cell exactly as they were at
entry.  Sequences snapshot and restore; alternatives need nothing extra
because their children already clean up after themselves; lookahead
restores even on success.  Custom parsers written against the same
contract compose freely with everything here.

AST construction is parse state like any other: matched text, nodes and
collected lists live on a dedicated stack cell (:class:`AstStack`), so
speculative parses that fail drop their half-built output for free.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from .core import (
    ASCII,
    SUCCESS,
    ContractViolationError,
    ParseContext,
    ParseResult,
    Parser,
    Record,
)
from .states import MonotonicStack

__all__ = [
    "AstNode",
    "AstStack",
    "Ahead",
    "AndDo",
    "Build",
    "Capture",
    "CharPred",
    "Choice",
    "Collect",
    "EndOfInput",
    "Literal",
    "Not",
    "OneMore",
    "Opt",
    "OptValue",
    "Perform",
    "Predicate",
    "Seq",
    "Until",
    "Whitespace",
    "Word",
    "ZeroMore",
    "ahead",
    "and_do",
    "ast_stack",
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
    half-open [start, end) range of input the node was built from.
    """

    __slots__ = __match_args__ = ("kind", "children", "span")

    def __init__(self, kind: str, children: tuple = (), span: Optional[tuple] = None):
        self.kind = kind
        self.children = children
        self.span = span


class AstStack(MonotonicStack):
    """The conventional cell for AST output.

    Parsers push onto it and only ever pop what they pushed themselves,
    which keeps its diffs graftable: exactly what left recursion and
    memoizing features need to replay build effects.
    """


def ast_stack(ctx: ParseContext) -> AstStack:
    """The context's AST stack cell."""
    return ctx.state(AstStack)


def node(kind: str) -> Callable[..., AstNode]:
    """A ``make`` function for :func:`build`: wraps values in a node."""
    return lambda *values: AstNode(kind, values)


# ---------------------------------------------------------------------------
# Sequencing and alternation.


class Seq(Parser):
    """Children in order; one failure rewinds the whole sequence."""

    def __init__(self, *children: Parser):
        self.children = children

    def parse(self, ctx: ParseContext) -> ParseResult:
        snap = ctx.snapshot()
        for child in self.children:
            r = child.parse(ctx)
            if not r.ok:
                ctx.restore(snap)
                return r
        return SUCCESS

    def nullable(self, child_nullable) -> bool:
        return all(child_nullable(c) for c in self.children)

    first = Parser.children_first

    def left_children(self, nullable) -> tuple:
        # Up to and including the first child that must consume input.
        for i, c in enumerate(self.children):
            if not nullable(c):
                return self.children[:i + 1]
        return self.children


class Choice(Parser):
    """First succeeding child wins; no cleanup needed between attempts,
    failed children have already undone their own work.

    A frozen choice tries, at an ASCII next character, only the children
    that ``dispatch`` lists for it.  A child left out cannot match there:
    it would have failed at this position and recorded failures only here
    (:meth:`~txpeg.core.Parser.first`).  If every child fails, this
    parser's own failure here replaces those records.  If one succeeds,
    the parse goes on from here or further, and comes back behind here
    only after recording a failure at or past here, which replaces them,
    or out of a successful ``ahead``, which drops every record made
    inside it.  Either way the outcome of the parse is the same.
    """

    #: ASCII character -> the children that can match there, in their
    #: order: each that is nullable or has an unknown FIRST set, and each
    #: whose set holds the character.  Freeze fills it in on its private
    #: copy; a character it does not list tries every child.  The class's
    #: empty table is shared and never written.
    dispatch: dict = {}

    def __init__(self, *children: Parser):
        self.children = children

    def parse(self, ctx: ParseContext) -> ParseResult:
        for child in self.dispatch.get(ctx.text[ctx.position], self.children):
            r = child.parse(ctx)
            if r.ok:
                return r
        return ctx.fail(ctx.position, "no alternative matched")

    first = Parser.children_first

    def specialise(self, nullable, first) -> None:
        children = self.children
        sets = tuple(None if nullable(c) else first(c) for c in children)
        # A character no set holds keeps only the children kept everywhere;
        # characters that keep the same children share one tuple.
        everywhere = tuple(c for c, s in zip(children, sets) if s is None)
        dispatch = dict.fromkeys(ASCII, everywhere)
        shared = {}
        for ch in frozenset().union(*filter(None, sets)):
            alts = tuple(c for c, s in zip(children, sets) if s is None or ch in s)
            dispatch[ch] = shared.setdefault(alts, alts)
        self.dispatch = dispatch


class Opt(Parser):
    """Try the child; succeed either way."""

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> ParseResult:
        self.children[0].parse(ctx)
        return SUCCESS

    def nullable(self, child_nullable) -> bool:
        return True

    first = Parser.children_first


class ZeroMore(Parser):
    """Repeat the child until it fails; always succeeds."""

    #: The child's :meth:`~txpeg.core.Parser.char_test`, which freeze sets
    #: on its private copy: the repetition is then one :func:`_scan_run`.
    scan: Optional[Callable[[str], bool]] = None

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> ParseResult:
        child = self.children[0]
        if self.scan is not None:
            pos = _scan_run(ctx, self.scan)
            if not ctx.muted:
                # A default, not a closure: a captured ``child`` would cost
                # a cell on every call, the non-scanning path's included.
                ctx.fail(pos, lambda child=child: f"expected {child!r}")
            return SUCCESS
        entry = step = ctx.snapshot()
        while child.parse(ctx).ok:
            ctx.end_iteration(entry, step, self)
            step = ctx.snapshot()
        return SUCCESS

    def skip(self, ctx: ParseContext) -> None:
        # Muted, a scan builds nothing and its outcome is ignored, so the
        # scan alone does the whole skip.
        if self.scan is None:
            Parser.skip(self, ctx)
        else:
            _scan_run(ctx, self.scan)

    def nullable(self, child_nullable) -> bool:
        return True

    first = Parser.children_first

    def specialise(self, nullable, first) -> None:
        self.scan = self.children[0].char_test()


class OneMore(Parser):
    """Like :class:`ZeroMore` but the first iteration must succeed."""

    scan: Optional[Callable[[str], bool]] = None

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> ParseResult:
        child = self.children[0]
        if self.scan is not None:
            start = ctx.position
            pos = _scan_run(ctx, self.scan)
            if ctx.muted:
                # Nothing is built: the child fails here as it would.
                return SUCCESS if pos > start else child.parse(ctx)
            failure = ctx.fail(pos, lambda child=child: f"expected {child!r}")
            return SUCCESS if pos > start else failure
        entry = step = ctx.snapshot()
        r = child.parse(ctx)
        if not r.ok:
            return r
        while True:
            ctx.end_iteration(entry, step, self)
            step = ctx.snapshot()
            if not child.parse(ctx).ok:
                return SUCCESS

    first = Parser.children_first
    specialise = ZeroMore.specialise
    # A scan that matches nothing fails, which a skip ignores.
    skip = ZeroMore.skip


def _scan_run(ctx: ParseContext, scan: Callable[[str], bool]) -> int:
    """Move the position past the characters that satisfy ``scan``, the
    repeated child's :meth:`~txpeg.core.Parser.char_test`, in one loop;
    return the position where the run ends.  The caller records the
    child's failure there."""
    text, pos, end = ctx.text, ctx.position, ctx.input_length
    while pos < end and scan(text[pos]):
        pos += 1
    ctx.position = pos
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

    def parse(self, ctx: ParseContext) -> ParseResult:
        item, terminator = self.children
        entry = ctx.snapshot()
        while True:
            if terminator.parse(ctx).ok:
                return SUCCESS
            step = ctx.snapshot()
            r = item.parse(ctx)
            if not r.ok:
                ctx.restore(entry)
                return r
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

    def parse(self, ctx: ParseContext) -> ParseResult:
        snap = ctx.snapshot()
        furthest = ctx.furthest
        r = self.children[0].parse(ctx)
        if r.ok:
            ctx.restore(snap)
            ctx.furthest = furthest
            return SUCCESS
        return r

    def nullable(self, child_nullable) -> bool:
        return True

    # Its child's failures may lie past its own entry, so it may be
    # skipped only where its child would be.
    first = Parser.children_first


class Not(Parser):
    """Succeed iff the child fails; state-neutral in both directions."""

    #: ASCII characters at which the child cannot match, so it is not
    #: called there: a failing child leaves everything as it found it.
    #: Freeze fills it in on its private copy when the child must consume
    #: input and its FIRST set is known.
    skip_at: frozenset = frozenset()

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> ParseResult:
        if ctx.text[ctx.position] in self.skip_at:
            return SUCCESS
        snap = ctx.snapshot()
        # The child's failures are this parser's successes; keep them out
        # of the diagnostic record.
        ctx.muted += 1
        try:
            r = self.children[0].parse(ctx)
        finally:
            ctx.muted -= 1
        if not r.ok:
            return SUCCESS
        ctx.restore(snap)
        child = self.children[0]
        return ctx.fail(ctx.position, lambda child=child: f"unexpected {child!r}")

    def nullable(self, child_nullable) -> bool:
        return True

    first = Parser.zero_width_first

    def specialise(self, nullable, first) -> None:
        child = self.children[0]
        chars = None if nullable(child) else first(child)
        self.skip_at = frozenset() if chars is None else ASCII - chars


# ---------------------------------------------------------------------------
# Terminals.


class CharPred(Parser):
    """Match one character satisfying a predicate.

    The appended NUL sentinel is never passed to the predicate, so no
    predicate matches at end of input; a NUL inside the input is passed
    like any other character.

    The predicate must be a pure function of its one character: freeze
    calls it on ``chr(0)`` to ``chr(127)`` to learn the parser's FIRST set
    (:meth:`~txpeg.core.Parser.first`), and a frozen ``zero_more`` or
    ``one_more`` of a ``char_pred`` calls it without going through this
    parser.
    """

    def __init__(self, pred: Callable[[str], bool], label: Optional[str] = None):
        self.pred = pred
        self.label = label

    def parse(self, ctx: ParseContext) -> ParseResult:
        pos = ctx.position
        if pos < ctx.input_length and self.pred(ctx.text[pos]):
            ctx.position = pos + 1
            return SUCCESS
        return ctx.fail(pos, lambda self=self: f"expected {self!r}")

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

    A NUL in the string matches a NUL inside the input, never the appended
    sentinel, so no literal matches past the end of input.
    """

    def __init__(self, string: str):
        self.string = string

    def parse(self, ctx: ParseContext) -> ParseResult:
        pos = ctx.position
        # The end bound keeps the sentinel out of every match.
        if ctx.text.startswith(self.string, pos, -1):
            ctx.position = pos + len(self.string)
            return SUCCESS
        return ctx.fail(pos, lambda s=self.string: f"expected {s!r}")

    def __repr__(self):
        return f"literal({self.string!r})"

    def nullable(self, child_nullable) -> bool:
        return self.string == ""

    def first(self, child_first, nullable) -> frozenset:
        return ASCII.intersection(self.string[:1])


#: Whitespace skipped after tokens unless a grammar supplies its own.
DEFAULT_WHITESPACE: Parser


class Whitespace(Parser):
    """Skip the parse-wide whitespace parser (or the default), through its
    :meth:`~txpeg.core.Parser.skip`.

    Whitespace is expected to always succeed; a failing custom whitespace
    parser is treated as matching nothing.
    """

    def parse(self, ctx: ParseContext) -> ParseResult:
        ws = ctx.whitespace
        (DEFAULT_WHITESPACE if ws is None else ws).skip(ctx)
        return SUCCESS


class EndOfInput(Parser):
    """Succeed exactly at the end of the input, consuming nothing."""

    def parse(self, ctx: ParseContext) -> ParseResult:
        if ctx.position >= ctx.input_length:
            return SUCCESS
        return ctx.fail(ctx.position, "expected end of input")

    first = Parser.zero_width_first


class Word(Literal):
    """Match a literal, then skip trailing whitespace: a token."""

    def parse(self, ctx: ParseContext) -> ParseResult:
        pos = ctx.position
        if not ctx.text.startswith(self.string, pos, -1):
            return ctx.fail(pos, lambda s=self.string: f"expected {s!r}")
        ctx.position = pos + len(self.string)
        ws = ctx.whitespace
        (DEFAULT_WHITESPACE if ws is None else ws).skip(ctx)
        return SUCCESS

    def __repr__(self):
        return f"word({self.string!r})"


# ---------------------------------------------------------------------------
# Semantic actions and conditions.


class Predicate(Parser):
    """Succeed iff a condition on the context holds; consumes nothing.

    ``message`` may be a string or a function of the context, called only
    on failure, while the state that produced the verdict is still in
    place.
    """

    def __init__(self, cond: Callable[[ParseContext], bool],
                 message: Union[str, Callable[[ParseContext], str]] = "condition not met"):
        self.cond = cond
        self.message = message

    def parse(self, ctx: ParseContext) -> ParseResult:
        if self.cond(ctx):
            return SUCCESS
        msg = self.message(ctx) if callable(self.message) else self.message
        return ctx.fail(ctx.position, msg)

    first = Parser.zero_width_first


class Perform(Parser):
    """Run a state-mutating effect and succeed; consumes nothing."""

    def __init__(self, effect: Callable[[ParseContext], Any]):
        self.effect = effect

    def parse(self, ctx: ParseContext) -> ParseResult:
        self.effect(ctx)
        return SUCCESS

    first = Parser.zero_width_first


class AndDo(Parser):
    """Run the child; on success, apply an effect as well."""

    def __init__(self, child: Parser, effect: Callable[[ParseContext], Any]):
        self.children = (child,)
        self.effect = effect

    def parse(self, ctx: ParseContext) -> ParseResult:
        r = self.children[0].parse(ctx)
        if not r.ok:
            return r
        self.effect(ctx)
        return SUCCESS

    first = Parser.children_first


# ---------------------------------------------------------------------------
# AST building.


class Capture(Parser):
    """Run the child; on success push the matched slice of input."""

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> ParseResult:
        start = ctx.position
        r = self.children[0].parse(ctx)
        if not r.ok:
            return r
        ast_stack(ctx).push(ctx.text[start:ctx.position])
        return SUCCESS

    first = Parser.children_first


def _gather(*values) -> list:
    return list(values)


class Collect(Parser):
    """Gather everything the child pushed into one list, oldest first."""

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> ParseResult:
        ast = ast_stack(ctx)
        depth = ast.size
        r = self.children[0].parse(ctx)
        if not r.ok:
            return r
        ast.replace_above(depth, _gather)
        return SUCCESS

    first = Parser.children_first


class Build(Parser):
    """Pop a fixed number of values and push one node built from them.

    ``make`` receives the values in the order they were pushed; the node's
    span covers the child's whole match.  Popping more than the child
    pushed would steal someone else's output, so that raises.
    """

    def __init__(self, child: Parser, arity: int, make: Callable[..., AstNode]):
        self.children = (child,)
        self.arity = arity
        self.make = make

    def parse(self, ctx: ParseContext) -> ParseResult:
        ast = ast_stack(ctx)
        start = ctx.position
        depth = ast.size
        r = self.children[0].parse(ctx)
        if not r.ok:
            return r
        size = ast.size
        if size - depth < self.arity:
            raise ContractViolationError(
                f"build needs {self.arity} values but the child pushed {size - depth}"
            )
        made = ast.replace_above(size - self.arity, self.make)
        if isinstance(made, AstNode) and made.span is None:
            made.span = (start, ctx.position)
        return SUCCESS

    first = Parser.children_first


class OptValue(Parser):
    """An option on the AST stack: the child's one value, or None.

    The child must push exactly one value when it succeeds; when it fails,
    None is pushed in its place and the whole parser still succeeds, so a
    consumer downstream can rely on the stack depth.
    """

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> ParseResult:
        ast = ast_stack(ctx)
        depth = ast.size
        if self.children[0].parse(ctx).ok:
            if ast.size != depth + 1:
                raise ContractViolationError(
                    "opt_value child must push exactly one value"
                )
            return SUCCESS
        ast.push(None)
        return SUCCESS

    def nullable(self, child_nullable) -> bool:
        return True

    first = Parser.children_first


# ---------------------------------------------------------------------------
# Factory surface.  Grammars read better in lowercase; each name is the
# class itself, so ``seq(a, b)`` builds a :class:`Seq` with no wrapper call.

seq = Seq
choice = Choice
opt = Opt
zero_more = ZeroMore
one_more = OneMore
until = Until
ahead = Ahead
not_ = Not
char_pred = CharPred
literal = Literal
word = Word
end_of_input = EndOfInput
whitespace = Whitespace
predicate = Predicate
perform = Perform
and_do = AndDo
capture = Capture
collect = Collect
build = Build
opt_value = OptValue

DEFAULT_WHITESPACE = ZeroMore(CharPred(str.isspace, "whitespace"))

"""Significant-whitespace machinery: indentation tracking as parse state.

Two cells cooperate.  :class:`IndentMap` is inert, derived data: it keeps
the input, which the cell takes when a context binds it, so any rule can
start a parse, and reads from that text, for the one line a check asks
about, the indentation width (tabs expanded to stops at multiples of 4)
and the offset where the indentation ends.  :class:`IndentStack` is live
state: the indentation widths of the enclosing blocks, pushed by
:func:`indent` and popped by :func:`dedent` (parser classes, each a check
and an effect in one step), and therefore restored automatically whenever
the parse backtracks out of a block.

The token layer consumes newlines as ordinary whitespace; line structure
is recovered from the text, not from the token stream.  :func:`newline` is
a zero-width check that the current position sits at the start of a line's
content (or at end of input), which is where a position lands after
crossing a line break under that whitespace convention.
"""

from __future__ import annotations

from typing import NamedTuple

from ..combinators import predicate
from ..core import ParseContext, Parser
from ..states import InertState, StackState

__all__ = [
    "IndentEntry",
    "IndentMap",
    "IndentStack",
    "aligned",
    "build_indent_table",
    "dedent",
    "indent",
    "newline",
]

TAB_WIDTH = 4


class IndentEntry(NamedTuple):
    """One line's indentation: expanded width and where it ends."""

    count: int
    end: int


def build_indent_table(text: str) -> tuple[list[IndentEntry], list[int]]:
    """Per-line indentation entries plus line start offsets.

    ``text`` is the input as the caller passed it, as a context keeps it,
    with nothing appended.  Splits on newline only; every other character
    belongs to its line.  A line's count is the length of its space/tab
    prefix after expanding tabs to stops at multiples of
    :data:`TAB_WIDTH`; its end is the absolute offset just past that prefix.
    """
    entries: list[IndentEntry] = []
    starts: list[int] = []
    pos = 0
    for line in text.split("\n"):
        starts.append(pos)
        i = 0
        while i < len(line) and line[i] in " \t":
            i += 1
        prefix = line[:i]
        entries.append(IndentEntry(len(prefix.expandtabs(TAB_WIDTH)), pos + i))
        pos += len(line) + 1
    return entries, starts


class IndentMap(InertState):
    """The input's indentation, read from the text on demand.

    Inert on purpose: the indentation is a pure function of the input, so
    backtracking has nothing to undo and the cell needs no trail.  Binding
    keeps the context's text, and the checks below ask :meth:`_width`,
    which allocates nothing.
    """

    def __init__(self):
        self.text = ""

    def bind(self, ctx: ParseContext) -> None:
        self.text = ctx.text

    def _width(self, offset: int, end: int = -1) -> int:
        """The indentation width of the line holding ``offset``; but -1 if
        ``end`` is not negative and that indentation does not end there."""
        text = self.text
        i, size = text.rfind("\n", 0, offset) + 1, len(text)
        width = 0
        while i < size:
            ch = text[i]
            if ch == " ":
                width += 1
            elif ch == "\t":
                width += TAB_WIDTH - width % TAB_WIDTH
            else:
                break
            i += 1
        return width if end < 0 or i == end else -1


class IndentStack(StackState):
    """Indentation widths of the enclosing blocks; empty means width 0."""


def _current_count(ctx: ParseContext) -> int:
    return ctx.state(IndentMap)._width(ctx.position)


class Indent(Parser):
    """Enter a block: the current line must be indented past the top."""

    def parse(self, ctx: ParseContext) -> bool:
        new = _current_count(ctx)
        stack = ctx.state(IndentStack)
        old = stack.peek(0)
        if new > old:
            stack.push(new)
            return True
        return ctx.would_record(ctx.position) and ctx.fail(
            ctx.position, f"expecting indentation > {old} positions")

    first = Parser.zero_width_first


class Dedent(Parser):
    """Leave a block: a shallower line, or the end of the input."""

    def parse(self, ctx: ParseContext) -> bool:
        stack = ctx.state(IndentStack)
        old = stack.peek(0)
        if ctx.position >= ctx.input_length or _current_count(ctx) < old:
            stack.pop()
            return True
        return ctx.would_record(ctx.position) and ctx.fail(
            ctx.position, f"expecting indentation < {old} positions")

    first = Parser.zero_width_first


indent = Indent
dedent = Dedent


def _at_line_start(ctx: ParseContext) -> bool:
    if ctx.position >= ctx.input_length:
        return True
    return ctx.state(IndentMap)._width(ctx.position, ctx.position) >= 0


def newline() -> Parser:
    """Zero-width check: at a line's content start or at end of input."""
    return predicate(_at_line_start, "expecting a line break")


def _is_aligned(ctx: ParseContext) -> bool:
    if ctx.position >= ctx.input_length:
        return True
    width = ctx.state(IndentMap)._width(ctx.position, ctx.position)
    return width == ctx.state(IndentStack).peek(0)


def aligned() -> Parser:
    """Zero-width check: at a line's content start whose width matches the
    innermost open block.

    Items of a block start aligned; anything shallower belongs to an outer
    block and anything deeper to a nested construct, so a failed deeper
    parse cannot be reinterpreted one level up.
    """
    return predicate(_is_aligned, lambda ctx: (
        f"expecting indentation = {ctx.state(IndentStack).peek(0)} positions"
    ))

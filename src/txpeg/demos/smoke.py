"""Two tiny context-sensitive languages, parseable here and famously not
by a context-free grammar: equal runs of a, b and c, and properly nested
tags whose closing names must match their opening names.

Both demonstrate the same pattern: a primitive match records something in
a state cell, and a later zero-width predicate holds the rest of the
input to it.  Backtracking discipline keeps the records honest.
"""

from __future__ import annotations

from ..combinators import (
    and_do,
    capture,
    char_pred,
    literal,
    one_more,
    perform,
    predicate,
    seq,
    zero_more,
)
from ..core import ParseContext, Parser
from ..grammar import FrozenGrammar, GrammarDef, ref
from ..states import CopyState, StackState

__all__ = [
    "RunTally",
    "TagStack",
    "anbncn_grammar",
    "anbncn_rules",
    "tags_grammar",
    "tags_rules",
]


class RunTally(CopyState):
    """How many characters the first run contained."""

    def __init__(self):
        super().__init__(n=0)


def _push_start(ctx: ParseContext) -> None:
    ctx.ast.push(ctx.position)


def _letter_run(ch: str) -> Parser:
    # The run's start goes on the AST stack, not its text: its length is
    # all that is recalled, and the position gives it.
    return seq(perform(_push_start),
               zero_more(char_pred(lambda c, ch=ch: c == ch, f"'{ch}'")))


def _store_run(ctx: ParseContext) -> None:
    ctx.state(RunTally).set("n", ctx.position - ctx.ast.pop())


def _run_matches(ctx: ParseContext) -> bool:
    return ctx.position - ctx.ast.peek() == ctx.state(RunTally).get("n")


def _discard_top(ctx: ParseContext) -> None:
    ctx.ast.pop()


def _counted_run(ch: str) -> Parser:
    # Match greedily, then hold the run to the recorded length.
    return seq(
        _letter_run(ch),
        predicate(_run_matches, lambda ctx: (
            f"expected exactly {ctx.state(RunTally).get('n')} {ch!r} characters"
        )),
        perform(_discard_top),
    )


def anbncn_rules() -> dict:
    return {
        "balanced": seq(
            and_do(_letter_run("a"), _store_run),
            _counted_run("b"),
            _counted_run("c"),
        ),
    }


def anbncn_grammar() -> FrozenGrammar:
    return GrammarDef(anbncn_rules(), "balanced", cells=(RunTally,)).freeze()


class TagStack(StackState):
    """Names of the currently open tags, innermost on top."""


def _push_tag(ctx: ParseContext) -> None:
    ctx.state(TagStack).push(ctx.ast.pop())


def _pop_tag(ctx: ParseContext) -> None:
    ctx.state(TagStack).pop()


def _closing_matches(ctx: ParseContext) -> bool:
    # The open name, and then no further letter: the whole closing name.
    top = ctx.state(TagStack).peek()
    end = ctx.position + len(top)
    return (ctx.text.startswith(top, ctx.position)
            and (end >= ctx.input_length or not ctx.text[end].isalpha()))


def tags_rules() -> dict:
    name = one_more(char_pred(str.isalpha, "letter"))
    open_tag = seq(literal("<"), capture(name), literal(">"),
                   perform(_push_tag))
    close_tag = seq(
        literal("</"),
        predicate(_closing_matches, lambda ctx: (
            f"expected closing tag for {ctx.state(TagStack).peek()!r}"
        )),
        name, literal(">"),
        perform(_pop_tag),
    )
    return {
        "element": seq(open_tag, zero_more(ref("element")), close_tag),
    }


def tags_grammar() -> FrozenGrammar:
    return GrammarDef(tags_rules(), "element", cells=(TagStack,)).freeze()

"""The end of input.

A context keeps the caller's string as it is, with nothing appended, so no
character stands at the end of input.  Each reader stops there by itself:
a frozen ``choice`` or ``not_`` reads its table at the key ``""``, which no
FIRST set holds, so it tries only the children kept at every character,
and a ``literal`` matches only within the input.  A frozen grammar agrees
with the plain one, ``freeze(specialise=False)``, at the end as
everywhere.
"""

import pytest

from txpeg.combinators import char_pred, choice, literal, not_, one_more, opt, seq
from txpeg.core import ParseContext, Parser
from txpeg.demos.smoke import tags_grammar
from txpeg.grammar import GrammarDef, run_parse

from support import Counting

any_char = char_pred(lambda c: True, "any")
nul = char_pred(lambda c: c == "\x00", "nul")


class Unknown(Parser):
    """Match one "u"; it states no FIRST set, so freeze knows nothing of
    it but that it must consume."""

    def parse(self, ctx):
        if ctx.text.startswith("u", ctx.position):
            ctx.position += 1
            return True
        return ctx.fail(ctx.position, "expected u")

    def nullable(self, child_nullable):
        return False


# Each body follows an "a", so the inputs below reach it at the end of input
# as well as at a character.
BODIES = {
    "choice of consuming alternatives":
        choice(literal("b"), any_char, literal("\x00")),
    "choice with nullable and unknown":
        choice(literal("b"), Unknown(), opt(literal("\x00"))),
    "choice of unknown alone": choice(literal("b"), Unknown()),
    "not_ of any character": not_(any_char),
    "not_ of a nul": not_(literal("\x00")),
    "not_ of unknown": not_(Unknown()),
    "not_ of a nullable child": not_(opt(literal("b"))),
    "literal nul": literal("\x00"),
    "one_more of a nul": one_more(nul),
}

INPUTS = ["", "a", "a\x00", "ab", "au", "a\x00b", "ab\x00"]


@pytest.mark.parametrize("body", BODIES)
def test_a_frozen_grammar_agrees_with_the_plain_one_at_the_end_of_input(body):
    definition = GrammarDef({"top": seq(literal("a"), BODIES[body])}, "top")
    frozen, plain = definition.freeze(), definition.freeze(specialise=False)
    for text in INPUTS:
        for partial in (False, True):
            want = run_parse(plain, text, partial=partial)
            assert run_parse(frozen, text, partial=partial) == want, (text, partial)


def test_a_nul_inside_the_input_still_matches():
    for body in ("choice of consuming alternatives", "literal nul", "one_more of a nul"):
        frozen = GrammarDef({"top": seq(literal("a"), BODIES[body])}, "top").freeze()
        assert run_parse(frozen, "a\x00").success, body
        assert not run_parse(frozen, "a").success, body
    frozen = GrammarDef({"top": seq(literal("a"), BODIES["not_ of any character"])},
                        "top").freeze()
    assert run_parse(frozen, "a").success
    error = run_parse(frozen, "a\x00").error
    assert (error.position, error.message) == (1, "unexpected any")


def test_freeze_keeps_the_end_of_input_alternatives_beside_dispatch():
    top = GrammarDef({"top": choice(literal("b"), Unknown(), literal("\x00"),
                                    opt(literal("c")))}, "top").freeze().root_parser
    b, unknown, nul_literal, maybe = top.children
    # At the end, the key "", only the unknown and the nullable
    # alternatives are tried, as at a character no FIRST set holds.
    assert top.dispatch[""] == (unknown, maybe) == top.dispatch["z"]
    assert top.dispatch["\x00"] == (unknown, nul_literal, maybe)
    assert len(top.dispatch) == 129


def test_freeze_skips_a_child_that_must_consume_at_the_end_of_input():
    top = GrammarDef({"top": seq(not_(any_char), not_(Unknown()),
                                 not_(opt(literal("b"))))}, "top").freeze().root_parser
    # The end skips only a child that must consume and states its FIRST
    # set; one of unknown set is called there, as under the plain freeze.
    assert [not n.dispatch[""] for n in top.children] == [True, False, False]


@pytest.mark.parametrize("specialise", [True, False])
def test_a_not_calls_a_child_of_unknown_set_at_the_end_of_input(specialise):
    child = Counting(Unknown())
    grammar = GrammarDef({"top": seq(literal("a"), not_(child))},
                         "top").freeze(specialise=specialise)
    assert run_parse(grammar, "a").success
    assert child.calls == [1]


@pytest.mark.parametrize("parser, ok", [(choice(literal("b"), any_char), False),
                                        (choice(literal("b"), opt(literal("c"))), True),
                                        (not_(any_char), True),
                                        (literal("\x00"), False), (nul, False)])
def test_an_unfrozen_parser_at_the_end_of_input_reads_no_character(parser, ok):
    ctx = ParseContext("a")
    ctx.position = 1
    assert parser.parse(ctx) is ok
    assert ctx.position == 1


def test_a_closing_tag_cut_short_at_the_end_of_input():
    tags = tags_grammar()
    for text, position, message in [
        ("<a></a", 6, "expected '>'"),
        ("<ab></a", 6, "expected closing tag for 'ab'"),
        ("<a></", 5, "expected closing tag for 'a'"),
        ("<a></ab>", 5, "expected closing tag for 'a'"),
    ]:
        error = run_parse(tags, text).error
        assert (error.position, error.message) == (position, message), text
    assert run_parse(tags, "<ab><a></a></ab>").success


@pytest.mark.parametrize("trace", [None, print])
def test_run_parse_refuses_bytes_by_name(trace):
    with pytest.raises(TypeError, match="not bytes$"):
        run_parse(tags_grammar(), b"<a></a>", trace=trace)

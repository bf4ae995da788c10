"""A frozen ``zero_more``/``one_more`` of a ``char_pred`` scans in one loop,
and is skipped as the parse-wide whitespace by that loop alone; these
grammars must parse every input exactly as their unfrozen parser objects
do, which call the ``char_pred`` once per character and skip whitespace
muted."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpeg.combinators import (
    capture, char_pred, choice, literal, not_, one_more, opt, seq,
    whitespace, word, zero_more,
)
from txpeg.core import ParseContext
from txpeg.grammar import GrammarDef, run_parse

letter = char_pred(lambda c: c in "ab", "letter")
blank = char_pred(lambda c: c == " ", "blank")
not_newline = char_pred(lambda c: c != "\n", "comment character")
nul_or_a = char_pred(lambda c: c in "a\x00", "a or nul")

# name -> (root parser, whitespace parser or None for the default)
GRAMMARS = {
    "one_more at the head": (seq(one_more(letter), literal(";")), None),
    "zero_more at the head": (seq(zero_more(letter), literal(";")), None),
    "after a literal": (seq(literal("#"), one_more(letter), zero_more(blank)), None),
    "under capture": (seq(capture(one_more(letter)), literal(" "),
                          capture(zero_more(letter))), None),
    "under not_": (seq(not_(one_more(letter)), not_(seq(zero_more(blank), literal(";"))),
                       one_more(char_pred(lambda c: c != "\x00", "any"))), None),
    "in the whitespace": (one_more(choice(word("a"), word("b;"))),
                          one_more(choice(one_more(blank),
                                          seq(literal("#"), zero_more(not_newline)),
                                          literal("\n")))),
    "accepting nul": (seq(one_more(nul_or_a), zero_more(nul_or_a)), None),
}


def outcome(root, text, whitespace):
    ctx = ParseContext(text, whitespace=whitespace)
    result = root.parse(ctx)
    return (result, ctx.position, ctx.furthest_failure(), ctx.ast.values())


@pytest.mark.parametrize("name", GRAMMARS)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=st.text(alphabet="ab #;\n\x00", max_size=10))
def test_the_frozen_scan_matches_the_unfrozen_parsers(name, text):
    root, ws = GRAMMARS[name]
    frozen = GrammarDef({"top": root}, "top", whitespace=ws).freeze()
    assert outcome(frozen.root_parser, text, frozen.whitespace) == outcome(root, text, ws)


blank_or_tab = char_pred(lambda c: c in " \t", "blank")
comment = seq(literal("#"), zero_more(not_newline))
tokens = one_more(choice(word("a"), word("b"), word(";")))

# Grammars that skip whitespace through ``word`` and ``whitespace()``:
# name -> (root parser, whitespace parser or None for the default).  The
# first four whitespace parsers scan once frozen; the comment-style ones
# do not, and run muted.
SKIPPING = {
    "default whitespace": (seq(whitespace(), tokens, literal(".")), None),
    "scanning zero_more": (seq(capture(one_more(letter)), whitespace(), opt(word(";")),
                               capture(zero_more(letter))), zero_more(blank_or_tab)),
    "scanning one_more": (seq(whitespace(), not_(seq(word("a"), literal("b"))), tokens),
                          one_more(char_pred(str.isspace, "space"))),
    # The repetition records a failure; nothing records one after the last
    # skip.
    "ending in a skip": (seq(zero_more(literal("b")), word("a")), zero_more(blank_or_tab)),
    "comment style": (seq(whitespace(), tokens, capture(zero_more(letter))),
                      zero_more(choice(one_more(blank_or_tab), comment, literal("\n")))),
    "comment style, under not_": (seq(not_(seq(word("a"), word("b"), literal(";"))), tokens),
                                  one_more(choice(blank_or_tab, comment))),
}


@pytest.mark.parametrize("name", SKIPPING)
@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=st.text(alphabet="ab #;.\n\x00\t\u00a0\u00e9", max_size=10))
def test_a_frozen_whitespace_skip_matches_the_unfrozen_parsers(name, text):
    root, ws = SKIPPING[name]
    frozen = GrammarDef({"top": root}, "top", whitespace=ws).freeze()
    assert outcome(frozen.root_parser, text, frozen.whitespace) == outcome(root, text, ws)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=st.text(alphabet="ab #;.\n\x00\t\u00a0\u00e9", max_size=10))
def test_a_frozen_opt_before_a_skip_parses_as_the_plain_one(text):
    # Frozen, the opt does not try literal("b") at "a" and records no
    # failure there, so only the outcome of the whole parse is compared.
    rules = {"top": seq(opt(literal("b")), word("a"))}
    frozen, plain = (GrammarDef(rules, "top", whitespace=zero_more(blank_or_tab))
                     .freeze(specialise=s) for s in (True, False))
    assert run_parse(frozen, text) == run_parse(plain, text)


def test_the_skipping_grammars_take_both_paths():
    scans = {name: GrammarDef({"top": root}, "top", whitespace=ws).freeze().whitespace.scan
             is not None for name, (root, ws) in SKIPPING.items()}
    assert scans == {"default whitespace": True, "scanning zero_more": True,
                     "scanning one_more": True, "ending in a skip": True,
                     "comment style": False,
                     "comment style, under not_": False}


def test_every_grammar_above_scans_once_frozen():
    def scans(p, seen):
        if id(p) in seen:
            return False
        seen.add(id(p))
        return getattr(p, "scan", None) is not None or any(scans(c, seen) for c in p.children)

    for root, ws in GRAMMARS.values():
        frozen = GrammarDef({"top": root}, "top", whitespace=ws).freeze()
        assert scans(frozen.root_parser, set()) or scans(frozen.whitespace, set())

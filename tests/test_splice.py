"""Freeze splices a seq nested directly in a seq into its parent.

The inner seq's own snapshot could never matter: it fails only by
failing its parent, which restores to an older mark.  So a frozen seq
runs its whole flattened run under one transaction, and
``freeze(specialise=False)`` keeps the nesting for the differential
oracles to compare against.
"""

from collections import Counter

import pytest

from test_sharing import frozen_nodes
from txpeg.combinators import Seq, capture, literal, perform, seq
from txpeg.core import ParseContext
from txpeg.demos.examply import examply_cells, examply_grammar, examply_rules
from txpeg.demos.expr import expr_grammar
from txpeg.demos.macro import composed_grammar, macro_grammar
from txpeg.demos.smoke import TagStack, anbncn_grammar, tags_grammar, tags_rules
from txpeg.grammar import GrammarDef, run_parse
from txpeg.states import StackState


def nested_seqs(grammar) -> list:
    return [p for p in frozen_nodes(grammar)
            if type(p) is Seq and any(type(c) is Seq for c in p.children)]


@pytest.mark.parametrize("grammar", [
    examply_grammar, composed_grammar, macro_grammar, tags_grammar, anbncn_grammar,
    expr_grammar,
], ids=["examply", "composed", "macro", "tags", "anbncn", "expr"])
def test_no_frozen_bundled_seq_holds_a_seq(grammar):
    assert nested_seqs(grammar()) == []


def test_the_plain_freeze_keeps_the_nesting():
    plain = GrammarDef(examply_rules(), "program", cells=examply_cells()).freeze(
        specialise=False)
    assert nested_seqs(plain)


class Marks(StackState):
    pass


def _two_level_grammar(specialise: bool):
    # The outer seq pushes, then its inner seq captures, pushes and must
    # still match a "b".
    inner = seq(capture(literal("a")), perform(lambda c: c.state(Marks).push("inner")),
                literal("b"))
    top = seq(perform(lambda c: c.state(Marks).push("outer")), inner)
    return GrammarDef({"top": top}, "top", cells=(Marks,)).freeze(specialise=specialise)


@pytest.mark.parametrize("specialise", [True, False], ids=["frozen", "plain"])
def test_a_failed_inner_seq_rolls_back_both_levels(specialise):
    top = _two_level_grammar(specialise).rules["top"]
    assert any(type(c) is Seq for c in top.children) is not specialise
    marks = Marks()
    ctx = ParseContext("ac", cells=[marks])
    entry = ctx.snapshot()
    r = top.parse(ctx)
    assert not r and ctx.furthest_failure() == (1, "expected 'b'")
    assert ctx.position == 0
    assert ctx.ast.values() == []
    assert marks.values() == []
    assert ctx.snapshot() == entry

    marks = Marks()
    ctx = ParseContext("ab", cells=[marks])
    assert top.parse(ctx)
    assert ctx.position == 2
    assert ctx.ast.values() == ["a"]
    assert marks.values() == ["inner", "outer"]


def _trace_counts(grammar, text: str) -> Counter:
    lines = []
    assert run_parse(grammar, text, trace=lines.append).success
    return Counter(line.split()[0] for line in lines)


def test_tags_takes_one_snapshot_per_run_of_sequenced_parsers():
    # The element's open and close tags are seqs inside its seq: frozen,
    # they take no snapshot of their own.
    text = "<a><b></b></a>"
    assert _trace_counts(tags_grammar(), text) == {"snapshot": 7, "restore": 2}
    # A plain one_more snapshots only from its second iteration on.
    plain = GrammarDef(tags_rules(), "element", cells=(TagStack,)).freeze(specialise=False)
    assert _trace_counts(plain, text) == {"snapshot": 18, "restore": 4}


def test_examply_declarations_splice_their_effects_into_the_declaration():
    # ``new_type(iden_token())`` is an ``and_do``, a seq ending in a perform,
    # so it splices into the class and import declarations.  The import's
    # package prefix is a one_more, which snapshots after its first match.
    # ``program`` is its ``until`` alone, with no seq of its own to snapshot.
    assert _trace_counts(examply_grammar(), "class A\nimport p.C\n") == {
        "snapshot": 16, "restore": 3}


def test_an_opt_takes_no_snapshot_where_its_child_cannot_start():
    # An opt is a choice with an empty last alternative, so at ")" the
    # parameter and argument lists do not try their first items.
    assert _trace_counts(examply_grammar(), "fun f()\n    f()\n") == {
        "snapshot": 27, "restore": 8}


@pytest.mark.parametrize("specialise", [True, False], ids=["frozen", "plain"])
def test_a_seq_that_holds_itself_freezes_and_reports_as_plain(specialise):
    s = seq(literal("a"))
    s.children = (literal("a"), s)
    grammar = GrammarDef({"s": s}, "s").freeze(specialise=specialise)
    r = run_parse(grammar, "aa")
    assert not r.success
    assert (r.error.line, r.error.column, r.error.message) == (1, 3, "expected 'a'")

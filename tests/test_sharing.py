"""Freeze keeps one node per distinct structure (hash-consing).

Within one freeze, nodes of the same class with equal attributes and
equal children become one frozen node; ``freeze(specialise=False)``
keeps one copy per original node, and the differential oracles compare
the two.  These tests pin how far the sharing goes and where it stops.
"""

import pytest

from txpeg.combinators import (
    CharPred, Literal, Whitespace, char_pred, choice, literal, seq, zero_more,
)
from txpeg.core import ConfigurationError
from txpeg.demos.examply import examply_cells, examply_rules
from txpeg.demos.macro import composed_rules
from txpeg.grammar import GrammarDef, ref, run_parse
from txpeg.leftrec import LeftRec, leftrec


def reachable(roots) -> list:
    """Every node reachable from ``roots``."""
    seen: dict = {}
    stack = list(roots)
    while stack:
        p = stack.pop()
        if id(p) not in seen:
            seen[id(p)] = p
            stack.extend(p.children)
    return list(seen.values())


def frozen_nodes(grammar) -> list:
    """Every node reachable from the rules and the whitespace parser."""
    return reachable([*grammar.rules.values(), grammar.whitespace])


def examply_def() -> GrammarDef:
    return GrammarDef(examply_rules(), "program", cells=examply_cells())


@pytest.mark.parametrize("define, at_most", [
    (examply_def, 150),
    (lambda: GrammarDef(composed_rules(), "program", cells=examply_cells()), 190),
])
def test_the_bundled_examply_grammars_keep_one_node_per_structure(define, at_most):
    assert len(frozen_nodes(define().freeze())) <= at_most


@pytest.mark.parametrize("define, count", [
    (examply_def, 125),
    (lambda: GrammarDef(composed_rules(), "program", cells=examply_cells()), 162),
])
def test_the_specialised_freezes_keep_their_node_counts(define, count):
    # Exact, so that the parse path is pinned: a rule map that builds a
    # token once freezes to the graph one that builds a copy per use does.
    assert len(frozen_nodes(define().freeze())) == count


def test_the_plain_freeze_keeps_one_copy_per_original_node():
    # Each of the two opts is a choice with its own empty alternative.
    # ``program`` is its ``until`` alone, with no seq and no perform.
    # The rule map builds each identifier and type-name token once.
    assert len(frozen_nodes(examply_def().freeze(specialise=False))) == 276


@pytest.mark.parametrize("rules", [examply_rules, composed_rules])
def test_two_rule_maps_share_no_parser_object(rules):
    first, second = rules(), rules()
    ids = [{id(p) for p in reachable(m.values())} for m in (first, second)]
    assert ids[0] and not ids[0] & ids[1]


def test_every_whitespace_call_and_the_grammar_whitespace_are_one_node_each():
    grammar = examply_def().freeze()
    calls = [p for p in frozen_nodes(grammar) if type(p) is Whitespace]
    assert len(calls) == 1
    # A rule written like the whitespace parser shares its frozen node.
    spaces = zero_more(char_pred(str.isspace, "whitespace"))
    grammar = GrammarDef({"top": seq(literal("a"), spaces), "ws": spaces}, "top",
                         whitespace=zero_more(char_pred(str.isspace, "whitespace"))
                         ).freeze()
    assert grammar.whitespace is grammar.rules["ws"] is grammar.rules["top"].children[1]


def test_attributes_compare_by_value_and_functions_by_identity():
    def is_a(c):
        return c == "a"

    rules = {"top": seq(literal("ab"), literal("ab"), literal("a"),
                        char_pred(is_a, "a"), char_pred(is_a, "a"),
                        char_pred(lambda c: c == "a", "a"))}
    kids = GrammarDef(rules, "top").freeze().rules["top"].children
    assert kids[0] is kids[1] and kids[1] is not kids[2]
    assert kids[3] is kids[4] and kids[4] is not kids[5]
    assert [type(k) for k in kids] == [Literal] * 3 + [CharPred] * 3


def leftrec_twins() -> dict:
    """Two rules with equal ``leftrec`` bodies; the first one's body
    calls the second rule, so it must keep its own seeds."""
    return {name: leftrec(choice(seq(ref("b"), literal("x")), literal("y")))
            for name in "ab"}


def test_equal_leftrec_bodies_keep_their_own_nodes_and_parse_as_the_plain_graph():
    grammar = GrammarDef(leftrec_twins(), "a").freeze()
    plain = GrammarDef(leftrec_twins(), "a").freeze(specialise=False)
    a, b = grammar.rules["a"], grammar.rules["b"]
    assert type(a) is type(b) is LeftRec and a is not b
    # Everything under the two annotations is shared.
    assert a.children[0] is b.children[0]
    for text in ("y", "yx", "yxx", "x", ""):
        got, want = run_parse(grammar, text), run_parse(plain, text)
        assert (got.success, got.end_position, got.error) == (
            want.success, want.end_position, want.error), text
    # ``a`` is ``b x | y`` and ``b`` eats every ``x``, so ``a`` takes only ``y``.
    assert run_parse(grammar, "y").success
    assert not run_parse(grammar, "yx").success


def test_two_freezes_share_no_node():
    gdef = examply_def()
    first, second = gdef.freeze(), gdef.freeze()
    assert not {id(p) for p in frozen_nodes(first)} & {id(p) for p in frozen_nodes(second)}


def test_a_cycle_through_a_shared_body_is_named_by_its_references():
    rules = {
        "a": choice(seq(ref("c"), literal("x")), literal("y")),
        "b": choice(seq(ref("c"), literal("x")), literal("y")),
        "c": choice(ref("a"), ref("b")),
    }
    with pytest.raises(ConfigurationError) as info:
        GrammarDef(rules, "c").freeze()
    cycle = str(info.value).split(": ", 1)[1].split(" -> ")
    assert set(cycle) == {"c", "a"}


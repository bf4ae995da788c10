"""Left recursion: seed growing at parse time, cycle checking at freeze."""

import random

import pytest

from txpeg.combinators import (
    AstNode,
    build,
    capture,
    char_pred,
    choice,
    collect,
    literal,
    node,
    not_,
    one_more,
    opt,
    seq,
    zero_more,
)
from txpeg.core import ConfigurationError, ParseContext
from txpeg.demos.expr import expr_grammar
from txpeg.grammar import GrammarDef, ref, run_parse
from txpeg.leftrec import leftrec
from txpeg.states import StackState

from support import fold_left_chain


def digits():
    return capture(one_more(char_pred(str.isdigit, "digit")))


def num():
    return build(digits(), 1, node("num"))


def left_expr_grammar():
    rules = {
        "expr": leftrec(choice(
            build(seq(ref("expr"), literal("-"), ref("num")), 2, node("sub")),
            ref("num"),
        )),
        "num": num(),
    }
    return GrammarDef(rules, "expr").freeze()


def right_list_grammar():
    # Right-leaning oracle grammar: collects the flat operand list and
    # leaves association to the caller.
    rules = {
        "chain": collect(seq(digits(), zero_more(seq(literal("-"), digits())))),
    }
    return GrammarDef(rules, "chain").freeze()


def shape(value):
    if isinstance(value, AstNode):
        return (value.kind,) + tuple(shape(c) for c in value.children)
    return value


def test_left_assoc_basic():
    outcome = run_parse(left_expr_grammar(), "1-2-3")
    assert outcome.success
    (tree,) = outcome.ast
    assert shape(tree) == (
        "sub",
        ("sub", ("num", "1"), ("num", "2")),
        ("num", "3"),
    )


def test_single_operand():
    outcome = run_parse(left_expr_grammar(), "42")
    assert outcome.success
    (tree,) = outcome.ast
    assert shape(tree) == ("num", "42")


def test_spans_cover_left_nesting():
    outcome = run_parse(left_expr_grammar(), "10-2-33")
    assert outcome.success
    (tree,) = outcome.ast
    assert tree.span == (0, 7)
    inner, right = tree.children
    assert inner.span == (0, 4)
    assert right.span == (5, 7)


def test_chains_match_fold_left_oracle():
    rng = random.Random(4)
    grammar = left_expr_grammar()
    oracle = right_list_grammar()
    make = lambda a, b: ("sub", a, b)
    leaf = lambda s: ("num", s)
    for n in range(1, 9):
        for _ in range(12):
            operands = [str(rng.randrange(100)) for _ in range(n)]
            text = "-".join(operands)
            got = run_parse(grammar, text)
            assert got.success, text
            flat = run_parse(oracle, text)
            assert flat.success and flat.ast == [operands]
            assert shape(got.ast[0]) == fold_left_chain(operands, make, leaf)


def test_mixed_operators_stay_left_assoc():
    rules = {
        "expr": leftrec(choice(
            build(seq(ref("expr"), literal("-"), ref("num")), 2, node("sub")),
            build(seq(ref("expr"), literal("+"), ref("num")), 2, node("add")),
            ref("num"),
        )),
        "num": num(),
    }
    grammar = GrammarDef(rules, "expr").freeze()
    outcome = run_parse(grammar, "1+2-3+4")
    assert outcome.success
    assert shape(outcome.ast[0]) == (
        "add",
        ("sub", ("add", ("num", "1"), ("num", "2")), ("num", "3")),
        ("num", "4"),
    )


def test_failure_reports_operand_not_internals():
    outcome = run_parse(left_expr_grammar(), "1-2-x")
    assert not outcome.success
    assert outcome.error.position == 4
    assert "blocked" not in outcome.error.message
    # Deepest failure: the missing operand after the second minus.
    assert outcome.error.message == "expected digit"
    assert outcome.error.column == 5


def test_no_base_case_fails_cleanly():
    outcome = run_parse(left_expr_grammar(), "x")
    assert not outcome.success
    assert outcome.error.position == 0


def test_leftrec_not_at_root():
    # The recursive rule sits under a prefix, so seeds grow at offset 2.
    rules = {
        "top": seq(literal("= "), ref("expr")),
        "expr": leftrec(choice(
            build(seq(ref("expr"), literal("-"), ref("num")), 2, node("sub")),
            ref("num"),
        )),
        "num": num(),
    }
    grammar = GrammarDef(rules, "top").freeze()
    outcome = run_parse(grammar, "= 7-8-9")
    assert outcome.success
    assert shape(outcome.ast[0]) == (
        "sub",
        ("sub", ("num", "7"), ("num", "8")),
        ("num", "9"),
    )


def test_unannotated_cycle_rejected():
    rules = {
        "expr": choice(
            build(seq(ref("expr"), literal("-"), ref("num")), 2, node("sub")),
            ref("num"),
        ),
        "num": num(),
    }
    with pytest.raises(ConfigurationError) as info:
        GrammarDef(rules, "expr").freeze()
    assert "expr" in str(info.value)


def test_right_recursion_accepted():
    rules = {
        "expr": choice(
            build(seq(ref("num"), literal("-"), ref("expr")), 2, node("sub")),
            ref("num"),
        ),
        "num": num(),
    }
    grammar = GrammarDef(rules, "expr").freeze()
    outcome = run_parse(grammar, "1-2-3")
    assert outcome.success
    assert shape(outcome.ast[0]) == (
        "sub",
        ("num", "1"),
        ("sub", ("num", "2"), ("num", "3")),
    )


def test_nullable_prefix_counts_as_left_call():
    # opt() can match nothing, so the recursive call can land on the
    # entry position even though something syntactically precedes it.
    rules = {
        "expr": choice(
            seq(opt(literal("+")), ref("expr"), literal("!")),
            ref("num"),
        ),
        "num": num(),
    }
    with pytest.raises(ConfigurationError):
        GrammarDef(rules, "expr").freeze()


def test_consuming_prefix_breaks_left_call():
    rules = {
        "expr": choice(
            seq(literal("+"), ref("expr")),
            ref("num"),
        ),
        "num": num(),
    }
    grammar = GrammarDef(rules, "expr").freeze()
    assert run_parse(grammar, "++3").success


def test_mutual_cycle_through_annotation_accepted():
    rules = {
        "a": leftrec(choice(seq(ref("b"), literal("x")), literal("a"))),
        "b": choice(seq(ref("a"), literal("y")), literal("b")),
    }
    GrammarDef(rules, "a").freeze()


def test_mutual_cycle_without_annotation_rejected():
    rules = {
        "a": choice(seq(ref("b"), literal("x")), literal("a")),
        "b": choice(seq(ref("a"), literal("y")), literal("b")),
    }
    with pytest.raises(ConfigurationError) as info:
        GrammarDef(rules, "a").freeze()
    message = str(info.value)
    assert "a" in message and "b" in message


def test_inner_unguarded_cycle_still_detected():
    # The outer rule is annotated, but a second cycle lives entirely
    # inside the body and never passes through the annotation.
    rules = {
        "outer": leftrec(choice(
            seq(ref("outer"), literal("+"), ref("inner")),
            ref("inner"),
        )),
        "inner": choice(
            seq(ref("inner"), literal("*"), ref("num")),
            ref("num"),
        ),
        "num": num(),
    }
    with pytest.raises(ConfigurationError) as info:
        GrammarDef(rules, "outer").freeze()
    assert "inner" in str(info.value)


def test_each_growth_round_reinstates_the_ast_stack_once(monkeypatch):
    # Every round after the seed re-runs the body, whose left-recursive
    # call merges the seed: one merge per round, plus the final replay.
    # Rewinding a round hands the AST stack its entry version once, not
    # once per value the round pushed and popped.
    calls = {"restore": 0, "merge": 0}
    cell_restore, merge = StackState.cell_restore, ParseContext.merge

    def counted_restore(cell, snapshot):
        calls["restore"] += 1
        cell_restore(cell, snapshot)

    def counted_merge(ctx, delta):
        calls["merge"] += 1
        merge(ctx, delta)

    monkeypatch.setattr(StackState, "cell_restore", counted_restore)
    monkeypatch.setattr(ParseContext, "merge", counted_merge)
    out = run_parse(expr_grammar(), "-".join(map(str, range(41))))
    assert out.success
    rounds = calls["merge"] - 1
    assert rounds == 41
    assert calls["restore"] <= rounds + 2


def _mutual_growth_grammar():
    # r0 and r2 are one rule under two names; r1 calls both inside its own
    # growth rounds.
    r0 = r2 = leftrec(choice(
        seq(ref("r1"), capture(seq(capture(seq(ref("r1"), literal("ab"))), literal("ab")))),
        choice(choice(ref("r0"), literal("a"), char_pred(lambda c: c == "a")),
               char_pred(str.isalpha), char_pred(str.isdigit)),
    ))
    r1 = leftrec(choice(
        seq(ref("r0"), not_(ref("r2")), literal("ab"), char_pred(str.isdigit)),
        char_pred(str.isalpha),
    ))
    return GrammarDef({"r0": r0, "r1": r1, "r2": r2}, "r2").freeze()


def _snapshots(grammar, text):
    lines = []
    run_parse(grammar, text, trace=lines.append)
    return sum(line.startswith("snapshot ") for line in lines)


@pytest.mark.xfail(strict=True, reason=(
    "mutually left-recursive rules that call each other inside their growth "
    "rounds take work exponential in the input (CHANGES.md, FOUND: on "
    "LeftRec.parse): 31, 139, 571 and 2,299 snapshots on a, ab, aba, abab"))
def test_mutual_left_recursion_grows_at_most_linearly():
    grammar = _mutual_growth_grammar()
    assert _snapshots(grammar, "abab") <= 3 * _snapshots(grammar, "ab")

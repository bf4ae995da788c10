"""FIRST sets at freeze, and the shortcuts they allow on the frozen copy:
a ``not_`` that skips a child which cannot start at the next character,
a ``choice`` that tries only the alternatives which can, and a
``zero_more`` or ``one_more`` of a ``char_pred`` that scans in one loop."""

import pytest

from txpeg.combinators import (
    DEFAULT_WHITESPACE, Choice, ahead, char_pred, choice, literal, not_, one_more,
    opt, predicate, seq, zero_more,
)
from txpeg.core import ASCII, ContractViolationError, ParseContext, Parser
from txpeg.demos.examply import KEYWORDS, examply_grammar
from txpeg.demos.expr import expr_grammar
from txpeg.demos.macro import composed_grammar
from txpeg.demos.smoke import tags_grammar
from txpeg.grammar import GrammarDef, ref, run_parse
from txpeg.leftrec import leftrec

from support import Counting


#: The keys of a frozen ``choice`` or ``not_`` table: the ASCII characters
#: and ``""``, the end of input.
KEYS = ASCII | {""}


def guarded_chars(guard) -> frozenset:
    """The keys at which a frozen ``not_`` still calls its child: those
    whose entry in its table is not empty."""
    assert set(guard.dispatch) == KEYS
    return frozenset(key for key, alts in guard.dispatch.items() if alts)


def test_the_examply_keyword_guard_tests_exactly_the_keyword_initials():
    grammar = examply_grammar()
    # iden_ref = build(seq(not_(choice(keyword...)), capture(...), ws))
    guard = grammar.rules["iden_ref"].children[0].children[0]
    assert type(guard).__name__ == "Not"
    assert guarded_chars(guard) == {k[0] for k in KEYWORDS}


def test_a_nullable_child_is_never_skipped():
    # macro_atom = seq(not_(newline()), ...): newline consumes nothing.
    guard = composed_grammar().rules["macro_atom"].children[0]
    assert type(guard).__name__ == "Not"
    assert guarded_chars(guard) == KEYS
    # opt("a") has a known FIRST set, {"a"}, but matches "b" too, empty.
    rules = {"top": seq(not_(opt(literal("a"))), char_pred(str.isalpha, "letter"))}
    grammar = GrammarDef(rules, "top").freeze()
    assert guarded_chars(grammar.rules["top"].children[0]) == KEYS
    assert not run_parse(grammar, "b").success


def test_a_parser_without_first_is_unknown_and_still_called():
    assert Parser().first(lambda p: frozenset(), lambda p: False) is None
    child = Counting(literal("a"))
    rules = {"top": seq(not_(child), char_pred(str.isalpha, "letter"))}
    grammar = GrammarDef(rules, "top").freeze()
    frozen_child = grammar.rules["top"].children[0].children[0]
    assert guarded_chars(grammar.rules["top"].children[0]) == KEYS
    assert run_parse(grammar, "b").success
    assert not run_parse(grammar, "a").success
    # The frozen copy shares the counting list with the original.
    assert frozen_child.calls is child.calls == [0, 0]


def test_a_known_child_is_not_called_where_it_cannot_start():
    child = Counting(literal("a"))
    child.first = lambda child_first, nullable: frozenset("a")
    rules = {"top": seq(not_(child), char_pred(str.isalpha, "letter"))}
    grammar = GrammarDef(rules, "top").freeze()
    assert run_parse(grammar, "b").success
    assert child.calls == []
    assert not run_parse(grammar, "a").success
    assert child.calls == [0]


def test_a_non_ascii_next_character_falls_through_and_still_parses():
    outcome = run_parse(examply_grammar(), "val élan: Int = 1\n")
    assert outcome.success
    assert outcome.ast[0].children[0] == "élan"
    # A child with no ASCII character in its FIRST set is still called
    # at a non-ASCII one.
    child = Counting(literal("é"))
    child.first = lambda child_first, nullable: frozenset()
    grammar = GrammarDef({"top": seq(not_(child), literal("é"))}, "top").freeze()
    assert not run_parse(grammar, "é").success
    assert child.calls == [0]


def test_a_char_pred_that_accepts_nul_never_matches_at_end_of_input():
    nul = char_pred(lambda c: c == "\x00", "nul")
    grammar = GrammarDef({"top": seq(literal("a"), not_(nul))}, "top").freeze()
    assert guarded_chars(grammar.rules["top"].children[1]) == {"\x00"}
    assert run_parse(grammar, "a").success
    assert not run_parse(grammar, "a\x00").success
    anything = zero_more(char_pred(lambda c: True, "anything"))
    grammar = GrammarDef({"top": anything}, "top").freeze()
    assert grammar.rules["top"].scan is not None
    outcome = run_parse(grammar, "ab")
    assert outcome.success
    assert outcome.end_position == 2      # at the end of input, as unfrozen


def test_a_cyclic_rule_under_not_is_unknown():
    rules = {
        "top": seq(not_(ref("sum")), char_pred(str.isalpha, "letter")),
        "sum": leftrec(choice(seq(ref("sum"), literal("+"), literal("1")),
                              literal("1"))),
    }
    grammar = GrammarDef(rules, "top").freeze()
    assert guarded_chars(grammar.rules["top"].children[0]) == KEYS
    assert run_parse(grammar, "x").success
    assert not run_parse(grammar, "1").success


def test_the_scan_loop_records_the_failure_where_the_run_ends():
    digits = zero_more(char_pred(str.isdigit, "digit"))
    grammar = GrammarDef({"top": digits}, "top").freeze()
    assert grammar.rules["top"].scan is str.isdigit
    ctx = ParseContext("12y")
    assert grammar.root_parser.parse(ctx) is True
    assert ctx.position == 2
    assert ctx.furthest_failure() == (2, "expected digit")


def test_one_more_scans_too_and_fails_as_its_char_pred_would():
    digits = one_more(char_pred(str.isdigit, "digit"))
    grammar = GrammarDef({"top": digits}, "top").freeze()
    assert grammar.rules["top"].scan is str.isdigit
    ctx = ParseContext("12y")
    assert grammar.root_parser.parse(ctx) is True
    assert (ctx.position, ctx.furthest_failure()) == (2, (2, "expected digit"))
    ctx = ParseContext("y")
    r = grammar.root_parser.parse(ctx)
    assert not r
    assert (ctx.position, ctx.furthest_failure()) == (0, (0, "expected digit"))
    # Muted, a run that ends records no failure, and one that never starts
    # fails as the char_pred would, recording nothing either.
    ctx = ParseContext("12y")
    ctx.muted += 1
    ctx.fail = lambda position, message: pytest.fail("built a muted failure")
    assert grammar.root_parser.parse(ctx) is True
    ctx = ParseContext("y")
    ctx.muted += 1
    r = grammar.root_parser.parse(ctx)
    assert (r, ctx.position) == (False, 0)
    assert ctx.furthest_failure() is None


class Unhashable:
    __hash__ = None

    def __call__(self, c):
        return int(c) > 3


@pytest.mark.parametrize("pred", [lambda c: int(c) > 3, Unhashable()],
                         ids=["function", "unhashable"])
def test_a_predicate_that_raises_on_some_characters_leaves_first_unknown(pred):
    rules = {"top": seq(not_(char_pred(pred, "digit over 3")),
                        char_pred(str.isdigit, "digit"))}
    grammar = GrammarDef(rules, "top").freeze()
    assert guarded_chars(grammar.rules["top"].children[0]) == KEYS
    assert run_parse(grammar, "2").success
    assert run_parse(grammar, "5").error.message == "unexpected digit over 3"


def test_freeze_leaves_the_shared_default_whitespace_alone():
    child = DEFAULT_WHITESPACE.children[0]
    before = (type(DEFAULT_WHITESPACE), dict(vars(DEFAULT_WHITESPACE)),
              type(child), dict(vars(child)))
    for make in (examply_grammar, composed_grammar, expr_grammar, tags_grammar):
        grammar = make()
        assert grammar.whitespace is not DEFAULT_WHITESPACE
        assert grammar.whitespace.scan is str.isspace
    assert DEFAULT_WHITESPACE.children[0] is child
    assert (type(DEFAULT_WHITESPACE), vars(DEFAULT_WHITESPACE),
            type(child), vars(child)) == before
    assert "scan" not in vars(DEFAULT_WHITESPACE)


# ---------------------------------------------------------------------------
# Choice dispatch.


def frozen_top(root):
    return GrammarDef({"top": root}, "top").freeze().root_parser


def test_every_dispatch_entry_keeps_the_alternatives_in_order():
    top = frozen_top(choice(literal("ab"), char_pred(str.isalpha, "letter"),
                            literal("b"), literal("ac")))
    ab, letter, b, ac = top.children
    assert top.dispatch["a"] == (ab, letter, ac)
    assert top.dispatch["b"] == (letter, b)
    assert top.dispatch["z"] == (letter,)
    assert top.dispatch["1"] == ()
    assert set(top.dispatch) == KEYS
    for alts in top.dispatch.values():
        assert list(alts) == sorted(alts, key=top.children.index)


def test_nullable_and_unknown_alternatives_are_in_every_entry():
    unknown = Counting(literal("u"))
    top = frozen_top(choice(literal("a"), unknown, opt(literal("b")), literal("c")))
    a, unknown, nullable, c = top.children
    assert all(unknown in alts and nullable in alts for alts in top.dispatch.values())
    assert top.dispatch["a"] == (a, unknown, nullable)
    assert top.dispatch["c"] == (unknown, nullable, c)
    assert top.dispatch["\x00"] == (unknown, nullable)


def test_a_frozen_opt_does_not_call_a_child_that_cannot_start():
    # opt(e) is choice(e, <empty>): frozen, it dispatches on e's FIRST set.
    calls = []

    def counting(ctx):
        calls.append(ctx.position)
        return True

    root = opt(seq(predicate(counting), literal("x")))
    for specialise, called in ((True, []), (False, [0])):
        calls.clear()
        grammar = GrammarDef({"top": root}, "top").freeze(specialise=specialise)
        ctx = ParseContext("y")
        assert grammar.root_parser.parse(ctx) is True and ctx.position == 0
        assert calls == called


def test_a_non_ascii_next_character_tries_every_alternative():
    first = Counting(literal("é"))
    first.first = lambda child_first, nullable: frozenset()
    second = Counting(literal("x"))
    second.first = lambda child_first, nullable: frozenset("x")
    top = frozen_top(choice(first, second))
    assert top.dispatch["x"] == (top.children[1],)
    assert top.dispatch["e"] == ()
    ctx = ParseContext("é")
    assert top.parse(ctx) is True
    ctx = ParseContext("ü")
    r = top.parse(ctx)
    assert (r, ctx.furthest_failure()) == (False, (0, "no alternative matched"))
    assert first.calls == [0, 0] and second.calls == [0]


def test_a_choice_whose_alternatives_are_all_skipped_fails_at_its_position():
    a, b = Counting(literal("a")), Counting(literal("b"))
    for child, char in ((a, "a"), (b, "b")):
        child.first = lambda child_first, nullable, char=char: frozenset(char)
    top = frozen_top(seq(literal("x"), choice(a, b)))
    ctx = ParseContext("xz")
    r = top.parse(ctx)
    assert not r
    assert ctx.position == 0
    assert ctx.furthest_failure() == (1, "no alternative matched")
    assert a.calls == b.calls == []
    plain = GrammarDef({"top": seq(literal("x"), choice(a, b))}, "top").freeze(specialise=False)
    ctx = ParseContext("xz")
    assert not plain.root_parser.parse(ctx)
    assert ctx.furthest_failure() == (1, "no alternative matched")
    assert a.calls == b.calls == [1]


def test_freeze_gives_no_dispatch_table_to_the_shared_choice():
    alternatives = choice(literal("a"), literal("b"))
    rules = {"top": seq(alternatives, alternatives)}
    grammar = GrammarDef(rules, "top").freeze()
    assert "dispatch" not in vars(alternatives)
    assert Choice.dispatch == {}
    twin = grammar.root_parser.children[0]
    assert twin is not alternatives and twin.dispatch["a"] == (twin.children[0],)
    assert run_parse(grammar, "ba").success
    ctx = ParseContext("ba")
    assert rules["top"].parse(ctx) is True and ctx.position == 2


def test_the_left_recursive_alternative_of_expr_is_tried_at_every_character():
    grammar = expr_grammar()
    alternatives = grammar.rules["expression"].children[0]
    assert type(alternatives).__name__ == "Choice"
    recursive, number = alternatives.children
    assert set(alternatives.dispatch) == KEYS
    for char, alts in alternatives.dispatch.items():
        assert alts == ((recursive, number) if char.isdigit() else (recursive,))


def test_examply_statements_skip_the_alternatives_that_cannot_start():
    grammar = examply_grammar()
    # statement = seq(aligned(), choice(ref(declaration), seq(expression, newline)))
    alternatives = grammar.rules["statement"].children[1]
    declaration, expression = alternatives.children
    assert alternatives.dispatch["1"] == alternatives.dispatch['"'] == (expression,)
    assert alternatives.dispatch["v"] == (declaration, expression)
    body = grammar.rules["declaration_body"]
    assert [alt.name for alt in body.dispatch["v"]] == ["val_decl", "var_decl"]
    assert [alt.name for alt in body.dispatch["a"]] == ["alias_decl"]
    assert [alt.name for alt in body.dispatch["c"]] == ["class_decl"]
    assert body.dispatch["x"] == ()


def test_an_ahead_counts_what_it_looks_at_in_its_first_set():
    # Plain, ``ahead`` records its child's failure at 1, past the entry;
    # a choice that skipped the first alternative would hide it.
    root = choice(seq(ahead(seq(literal("a"), literal("b"))), literal("c")),
                  literal("a"))
    records = []
    for specialise in (True, False):
        grammar = GrammarDef({"top": root}, "top").freeze(specialise=specialise)
        ctx = ParseContext("ax")
        assert grammar.root_parser.parse(ctx) is True
        records.append(ctx.furthest_failure())
    assert records == [(1, "expected 'b'")] * 2


def test_a_choice_skipped_inside_a_successful_ahead_changes_no_error():
    # Plain, ``literal("x")`` records a failure at 1 inside the lookahead,
    # which a frozen choice skips at "b"; the parse then fails at 0.
    rules = {"top": seq(ahead(seq(literal("a"), choice(literal("x"), literal("b")))),
                        literal("c"))}
    for specialise in (True, False):
        r = run_parse(GrammarDef(rules, "top").freeze(specialise=specialise), "ab")
        assert (r.success, r.error.position, r.error.message) == (False, 0, "expected 'c'")


def test_a_frozen_skip_may_pass_over_a_parser_whose_plain_run_raises():
    # The seq's FIRST set is {a, b}, so at "c" the frozen choice skips it;
    # plain, it reaches the one_more, whose first iteration is empty.
    ab = char_pred(lambda c: c in "ab", "ab")
    rules = {"top": choice(seq(not_(literal("a")), choice(ref("r1"), literal("b")), ab)),
             "r1": one_more(opt(ab))}
    outcome = run_parse(GrammarDef(rules, "top").freeze(), "c")
    assert not outcome.success
    assert (outcome.error.position, outcome.error.message) == (0, "no alternative matched")
    with pytest.raises(ContractViolationError,
                       match="OneMore iteration succeeded without consuming input"):
        run_parse(GrammarDef(rules, "top").freeze(specialise=False), "c")

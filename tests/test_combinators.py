"""Combinator behavior: matching, backtracking, AST effects, guards."""

import importlib
import pkgutil
import sys

import pytest

import txpeg
from txpeg.combinators import (
    AstNode,
    AstStack,
    ahead,
    and_do,
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
    opt_value,
    perform,
    predicate,
    seq,
    until,
    whitespace,
    word,
    zero_more,
)
from txpeg.core import (
    ContractViolationError, ParseContext, Parser, TracedContext,
)
from txpeg.demos.examply import examply_grammar
from txpeg.demos.smoke import tags_grammar
from txpeg.grammar import GrammarDef, run_parse
from txpeg.states import StackState


class Marks(StackState):
    pass


def ctx_for(text, *cells):
    return ParseContext(text, cells=cells)


def test_literal_matches_exact_string():
    ctx = ctx_for("abcd")
    assert literal("ab").parse(ctx)
    assert ctx.position == 2
    r = literal("zz").parse(ctx)
    assert not r
    assert ctx.furthest_failure() == (2, "expected 'zz'")
    assert ctx.position == 2


def test_empty_literal_matches_anywhere():
    ctx = ctx_for("")
    assert literal("").parse(ctx)
    assert ctx.position == 0


def test_char_pred_matches_single_char():
    ctx = ctx_for("7x")
    assert char_pred(str.isdigit, "digit").parse(ctx)
    assert ctx.position == 1
    assert not char_pred(str.isdigit, "digit").parse(ctx)


def test_char_pred_rejects_end_of_input_by_default():
    ctx = ctx_for("")
    r = char_pred(str.isdigit, "digit").parse(ctx)
    assert not r
    assert ctx.position == 0


def test_char_pred_never_matches_at_end_of_input():
    nul = char_pred(lambda c: c == "\x00", "nul")
    ctx = ctx_for("")
    assert not nul.parse(ctx)
    assert ctx.position == 0
    # A NUL inside the input still matches.
    ctx = ctx_for("\x00")
    assert nul.parse(ctx)
    assert ctx.position == 1
    assert not nul.parse(ctx)


def test_a_scan_stops_at_end_of_input():
    line = capture(zero_more(char_pred(lambda c: c != "\n", "non-newline")))
    grammar = GrammarDef({"top": seq(literal("#"), line)}, "top").freeze()
    outcome = run_parse(grammar, "#abc")
    assert (outcome.success, outcome.ast, outcome.end_position) == (True, ["abc"], 4)
    # A frozen not_ after the scan reads the character where the scan stopped.
    grammar = GrammarDef({"top": seq(literal("#"), line, not_(literal("x")))},
                         "top").freeze()
    outcome = run_parse(grammar, "#abc")
    assert (outcome.success, outcome.ast, outcome.end_position) == (True, ["abc"], 4)


@pytest.mark.parametrize("make", [literal, word])
def test_a_literal_ending_in_nul_never_matches_at_end_of_input(make):
    nul = make("\x00")
    grammar = GrammarDef({"top": seq(literal("a"), nul)}, "top").freeze()
    outcome = run_parse(grammar, "a")
    assert not outcome.success
    assert (outcome.end_position, outcome.error.position) == (0, 1)
    # A frozen not_ or choice after it reads the character it stopped at.
    for tail in (not_(literal("x")), choice(literal("x"), literal("y"))):
        grammar = GrammarDef({"top": seq(literal("a"), nul, tail)}, "top").freeze()
        assert not run_parse(grammar, "a").success
    ctx = ctx_for("a")
    assert not seq(literal("a"), make("\x00")).parse(ctx)
    assert ctx.position == 0


@pytest.mark.parametrize("make", [literal, word])
def test_a_nul_inside_the_input_still_matches_a_literal(make):
    grammar = GrammarDef({"top": seq(literal("a"), make("\x00"), not_(literal("x")))},
                         "top").freeze()
    outcome = run_parse(grammar, "a\x00")
    assert (outcome.success, outcome.end_position) == (True, 2)
    ctx = ctx_for("a\x00b")
    assert make("a\x00b").parse(ctx)
    assert ctx.position == 3


def test_seq_runs_children_in_order():
    ctx = ctx_for("abcd")
    assert seq(literal("ab"), literal("cd")).parse(ctx)
    assert ctx.position == 4


def test_seq_failure_restores_position_and_cells():
    marks = Marks()
    ctx = ctx_for("abxx", marks)
    p = seq(and_do(literal("ab"), lambda c: marks.push("got")), literal("cd"))
    r = p.parse(ctx)
    assert not r
    assert ctx.position == 0
    assert marks.values() == []
    # The recorded failure points at the failing child, deeper than entry.
    assert ctx.furthest_failure() == (2, "expected 'cd'")


def test_choice_takes_first_match():
    ctx = ctx_for("ba")
    assert choice(literal("a"), literal("b")).parse(ctx)
    assert ctx.position == 1


def test_choice_failure_sits_at_entry_with_furthest_recorded():
    ctx = ctx_for("abX")
    p = choice(seq(literal("ab"), literal("c")), literal("z"))
    r = p.parse(ctx)
    assert not r
    assert ctx.position == 0
    # The deepest child failure is what diagnostics should surface.
    assert ctx.furthest_failure()[0] == 2


def test_choice_winner_leaves_no_trace_of_losers():
    marks = Marks()
    ctx = ctx_for("b", marks)
    loser = seq(perform(lambda c: marks.push("loser")), literal("a"))
    winner = and_do(literal("b"), lambda c: marks.push("winner"))
    assert choice(loser, winner).parse(ctx)
    assert marks.values() == ["winner"]


def test_opt_succeeds_without_match():
    ctx = ctx_for("xyz")
    assert opt(literal("a")).parse(ctx)
    assert ctx.position == 0
    assert opt(literal("x")).parse(ctx)
    assert ctx.position == 1


def test_zero_more_consumes_all_matches():
    ctx = ctx_for("aaab")
    assert zero_more(literal("a")).parse(ctx)
    assert ctx.position == 3
    assert zero_more(literal("z")).parse(ctx)
    assert ctx.position == 3


def test_one_more_requires_first_match():
    ctx = ctx_for("baa")
    r = one_more(literal("a")).parse(ctx)
    assert not r
    ctx.position = 1
    assert one_more(literal("a")).parse(ctx)
    assert ctx.position == 3


def test_repetition_guard_catches_empty_iterations():
    ctx = ctx_for("aa")
    with pytest.raises(ContractViolationError):
        zero_more(opt(literal("a"))).parse(ctx)


@pytest.mark.parametrize("make", [one_more, lambda p: until(p, literal(";"))],
                         ids=["one_more", "until"])
def test_repetition_guard_catches_zero_width_iterations(make):
    ctx = ctx_for("ab")
    with pytest.raises(ContractViolationError):
        make(literal("")).parse(ctx)


def test_repetition_guard_catches_a_push_undone_by_a_pop():
    marks = Marks()
    ctx = ctx_for("ab", marks)
    # The iteration logs two changes on the trail, yet leaves the position
    # and every cell as they were.
    p = seq(perform(lambda c: marks.push("x")), perform(lambda c: marks.pop()))
    with pytest.raises(ContractViolationError):
        zero_more(p).parse(ctx)


def test_repetition_guard_catches_an_equal_value_popped_and_pushed_again():
    # Each iteration leaves a fresh top link holding the value it popped,
    # on the same link below it.  Steering cells are compared by content,
    # so that is no progress, and the guard refuses the first iteration.
    marks = Marks("a")
    ctx = ctx_for("x", marks)
    calls = [0]

    def swap(c):
        calls[0] += 1
        if calls[0] > 100:
            raise Endless
        marks.push(marks.pop())

    with pytest.raises(ContractViolationError, match="changing a cell that steers"):
        seq(zero_more(perform(swap)), literal("x")).parse(ctx)
    assert calls[0] == 1


def test_a_deep_run_of_equal_pushes_is_progress_told_apart_by_depth():
    # Each iteration pushes a value equal to the one below it.  The new top
    # differs from the old in depth, which links compare first, so the
    # guard does not recurse down the equal values below.
    marks = Marks()
    ctx = ctx_for("x", marks)
    depth = 3 * sys.getrecursionlimit()
    grow = seq(predicate(lambda c: marks.size < depth, "short"),
               perform(lambda c: marks.push("a")))
    assert seq(zero_more(grow), literal("x")).parse(ctx)
    assert marks.size == depth


def test_repetition_with_state_only_progress_is_allowed():
    marks = Marks()
    ctx = ctx_for("ab", marks)
    stop = [0]

    def bounded_push(c):
        stop[0] += 1
        marks.push(stop[0])

    p = seq(perform(bounded_push), predicate(lambda c: marks.size < 3))
    assert zero_more(p).parse(ctx)
    # Each iteration changed a cell, so the guard stays quiet; the final
    # failed iteration rolled its push back.
    assert marks.values() == [2, 1]


class Endless(Exception):
    """Raised by an iteration that has run far past any input."""


def test_a_zero_width_capture_in_a_repetition_is_refused():
    # A push onto the AST stack is output, not progress: the stack does not
    # steer, so the empty iteration is refused rather than repeated.
    calls = [0]

    def count(ctx):
        calls[0] += 1
        if calls[0] > 100:
            raise Endless

    ctx = ctx_for("b")
    with pytest.raises(ContractViolationError):
        zero_more(seq(perform(count), capture(opt(literal("a"))))).parse(ctx)


@pytest.mark.parametrize("specialise", [True, False], ids=["frozen", "plain"])
@pytest.mark.parametrize("repeat", [zero_more, one_more, lambda p: until(p, literal("c"))],
                         ids=["zero_more", "one_more", "until"])
def test_every_repetition_refuses_an_empty_capture_under_both_freezes(repeat, specialise):
    grammar = GrammarDef({"top": repeat(capture(opt(literal("a"))))}, "top").freeze(
        specialise=specialise)
    with pytest.raises(ContractViolationError, match="changing a cell that steers"):
        run_parse(grammar, "b")


def test_ahead_is_state_neutral_on_success():
    marks = Marks()
    ctx = ctx_for("abc", marks)
    p = ahead(seq(capture(literal("ab")), perform(lambda c: marks.push("x"))))
    assert p.parse(ctx)
    assert ctx.position == 0
    assert ctx.ast.size == 0
    assert marks.values() == []


def test_ahead_propagates_failure():
    ctx = ctx_for("abc")
    assert not ahead(literal("zz")).parse(ctx)
    assert ctx.position == 0


def test_a_successful_ahead_leaves_the_failure_record_as_it_found_it():
    ctx = ctx_for("ab")
    ctx.fail(0, "before")
    # The child records "expected 'x'" at 1 on its way to success.
    assert ahead(seq(literal("a"), choice(literal("x"), literal("b")))).parse(ctx)
    assert ctx.furthest_failure() == (0, "before")
    # A failing one keeps its child's failure.
    assert not ahead(seq(literal("a"), literal("x"))).parse(ctx)
    assert ctx.furthest_failure() == (1, "expected 'x'")


def test_not_inverts_and_stays_neutral():
    ctx = ctx_for("ab")
    assert not_(literal("z")).parse(ctx)
    assert ctx.position == 0
    r = not_(capture(literal("a"))).parse(ctx)
    assert not r
    assert ctx.position == 0
    assert ctx.ast.size == 0


class Raises(Parser):
    """A custom parser that breaks the contract every time it runs."""

    def parse(self, ctx):
        raise ContractViolationError("raised on purpose")


def test_the_mute_counter_survives_a_raising_probe():
    ctx = ctx_for("ab")
    with pytest.raises(ContractViolationError):
        not_(Raises()).parse(ctx)
    assert ctx.muted == 0
    grammar = GrammarDef({"top": whitespace()}, "top", whitespace=Raises()).freeze()
    ctx = ParseContext("ab", whitespace=grammar.whitespace)
    with pytest.raises(ContractViolationError):
        grammar.root_parser.parse(ctx)
    assert ctx.muted == 0


@pytest.mark.parametrize("repeat", [zero_more, one_more])
def test_a_frozen_scanning_whitespace_is_skipped_by_its_scan_alone(repeat):
    # The scan runs unmuted and builds no failure: the skip ignores its
    # outcome, so muting it would change nothing.
    mutes = []
    ctx = None

    def blank(c):
        if ctx is not None:
            mutes.append(ctx.muted)
        return c in " \t"

    top = seq(whitespace(), word("a"), literal(";"))
    grammar = GrammarDef({"top": top}, "top",
                         whitespace=repeat(char_pred(blank, "blank"))).freeze()
    ops = []
    ctx = TracedContext(" \ta \t;", ops.append, whitespace=grammar.whitespace)
    fail = ctx.fail
    failures = []

    def spy(position, message):
        failures.append(position)
        return fail(position, message)

    ctx.fail = spy
    assert grammar.whitespace.scan is blank
    assert grammar.root_parser.parse(ctx)
    assert ctx.position == 6
    assert failures == []
    # The only transaction operation is the sequence's own snapshot.
    assert [line.split()[0] for line in ops] == ["snapshot"]
    assert mutes and set(mutes) == {0}


def test_a_custom_whitespace_still_runs_muted():
    mutes = []

    def note(ctx):
        mutes.append(ctx.muted)
        return True

    # No char_test: the whitespace parser runs muted, failures and all.
    grammar = GrammarDef({"top": word("a")}, "top",
                         whitespace=seq(predicate(note), literal("#"))).freeze()
    ctx = ParseContext("ab", whitespace=grammar.whitespace)
    assert grammar.root_parser.parse(ctx)
    assert ctx.position == 1
    assert mutes == [1]
    assert ctx.furthest_failure() is None

    def boom(ctx):
        raise ValueError("raised on purpose")

    grammar = GrammarDef({"top": word("a")}, "top", whitespace=predicate(boom)).freeze()
    ctx = ParseContext("ab", whitespace=grammar.whitespace)
    with pytest.raises(ValueError):
        grammar.root_parser.parse(ctx)
    assert ctx.muted == 0


def test_until_tries_terminator_first_and_keeps_its_effects():
    marks = Marks()
    ctx = ctx_for(";", marks)
    term = and_do(literal(";"), lambda c: marks.push("end"))
    p = until(capture(literal("a")), term)
    assert p.parse(ctx)
    assert ctx.position == 1
    assert marks.values() == ["end"]
    assert ctx.ast.size == 0


def test_until_collects_items_then_terminator():
    ctx = ctx_for("aa;")
    p = until(capture(literal("a")), literal(";"))
    assert p.parse(ctx)
    assert ctx.position == 3
    assert ctx.ast.values() == ["a", "a"]


def test_until_failure_rewinds_matched_items():
    marks = Marks()
    ctx = ctx_for("aax", marks)
    item = and_do(capture(literal("a")), lambda c: marks.push("i"))
    r = until(item, literal(";")).parse(ctx)
    assert not r
    assert ctx.position == 0
    assert ctx.ast.size == 0
    assert marks.values() == []


def test_word_skips_trailing_whitespace():
    ctx = ctx_for("val  x")
    assert word("val").parse(ctx)
    assert ctx.position == 5


def test_whitespace_uses_context_override():
    ctx = ParseContext("..a", whitespace=zero_more(literal(".")))
    assert whitespace().parse(ctx)
    assert ctx.position == 2


def test_predicate_checks_without_consuming():
    ctx = ctx_for("ab")
    assert predicate(lambda c: True).parse(ctx)
    assert ctx.position == 0
    r = predicate(lambda c: False, "wanted something else").parse(ctx)
    assert not r
    assert ctx.furthest_failure() == (0, "wanted something else")


def test_predicate_message_built_from_context_at_failure():
    ctx = ctx_for("ab")
    ctx.position = 1
    r = predicate(lambda c: False,
                  lambda c: f"stuck at {c.position}").parse(ctx)
    assert not r
    assert ctx.furthest_failure() == (1, "stuck at 1")


def test_perform_and_and_do():
    marks = Marks()
    ctx = ctx_for("ab", marks)
    assert perform(lambda c: marks.push(1)).parse(ctx)
    assert and_do(literal("a"), lambda c: marks.push(2)).parse(ctx)
    assert marks.values() == [2, 1]
    r = and_do(literal("zz"), lambda c: marks.push(3)).parse(ctx)
    assert not r
    assert marks.values() == [2, 1]


def test_capture_pushes_matched_text():
    ctx = ctx_for("hello world")
    assert capture(one_more(char_pred(str.isalpha, "letter"))).parse(ctx)
    assert ctx.ast.peek() == "hello"


def test_collect_gathers_in_push_order():
    ctx = ctx_for("ab")
    ctx.ast.push("preexisting")
    p = collect(seq(capture(literal("a")), capture(literal("b"))))
    assert p.parse(ctx)
    assert ctx.ast.pop() == ["a", "b"]
    assert ctx.ast.pop() == "preexisting"


def test_collect_empty_match_pushes_empty_list():
    ctx = ctx_for("z")
    assert collect(zero_more(capture(literal("a")))).parse(ctx)
    assert ctx.ast.pop() == []


def test_build_makes_node_with_span():
    ctx = ctx_for("1-2")
    p = build(seq(capture(literal("1")), literal("-"), capture(literal("2"))),
              2, node("Pair"))
    assert p.parse(ctx)
    made = ctx.ast.pop()
    assert made == AstNode("Pair", ("1", "2"), span=(0, 3))


def test_build_arity_violation_raises():
    ctx = ctx_for("1")
    p = build(capture(literal("1")), 2, node("Pair"))
    with pytest.raises(ContractViolationError,
                       match="build needs 2 values but the child pushed 1"):
        p.parse(ctx)


def test_build_and_collect_replace_on_the_ast_stack_without_logging():
    # A snapshot's second field is the trail length, and its last the AST
    # stack's top: the AST stack rides in the snapshot, not on the trail,
    # so the replacement logs nothing and one restore rewinds it.
    three = seq(capture(literal("a")), capture(literal("b")), capture(literal("c")))
    cases = [
        (build(three, 2, node("Pair")), [AstNode("Pair", ("b", "c"), (0, 3)), "a", "below"]),
        (collect(three), [["a", "b", "c"], "below"]),
    ]
    for replacing, stacked in cases:
        ctx = ctx_for("abc")
        ctx.ast.push("below")
        snap = ctx.snapshot()
        assert replacing.parse(ctx)
        assert ctx.snapshot()[1] == snap[1] == 0
        assert ctx.ast.values() == stacked
        ctx.restore(snap)
        assert (ctx.position, ctx.ast.values()) == (0, ["below"])
        assert ctx.snapshot() == snap


def test_build_failure_propagates_cleanly():
    ctx = ctx_for("9")
    p = build(capture(literal("1")), 1, node("One"))
    assert not p.parse(ctx)
    assert ctx.ast.size == 0


def test_opt_value_pushes_value_or_none():
    ctx = ctx_for("x")
    assert opt_value(capture(literal("x"))).parse(ctx)
    assert ctx.ast.pop() == "x"
    ctx2 = ctx_for("y")
    assert opt_value(capture(literal("x"))).parse(ctx2)
    assert ctx2.ast.pop() is None


@pytest.mark.parametrize("make", [
    capture,
    lambda x: collect(capture(x)),
    lambda x: build(capture(x), 1, node("One")),
    lambda x: opt_value(capture(x)),
], ids=["capture", "collect", "build", "opt_value"])
def test_ast_parsers_run_on_a_bare_context(make):
    # Every context owns its AST stack: no cell is registered for it.
    ctx = ParseContext("x")
    assert make(literal("x")).parse(ctx)
    assert (ctx.position, ctx.ast.size) == (1, 1)
    assert ctx.ast is ctx.state(AstStack)


def test_opt_value_demands_exactly_one_push():
    ctx = ctx_for("ab")
    with pytest.raises(ContractViolationError):
        opt_value(seq(capture(literal("a")), capture(literal("b")))).parse(ctx)


def test_nested_backtracking_restores_deep_state():
    marks = Marks()
    ctx = ctx_for("aab", marks)
    inner = seq(
        and_do(literal("a"), lambda c: marks.push("one")),
        and_do(literal("a"), lambda c: marks.push("two")),
        literal("z"),
    )
    outer = choice(inner, literal("aab"))
    assert outer.parse(ctx)
    assert ctx.position == 3
    assert marks.values() == []


def test_word_keeps_whitespace_failures_out_of_the_diagnostic():
    # The scanner matches "  " and then fails deeper, on "x"; that probe
    # must not claim the furthest-failure record.
    ws = zero_more(seq(literal("  "), literal("x")))
    ctx = ParseContext("a  y", whitespace=ws)
    assert word("a").parse(ctx)
    assert ctx.position == 1
    assert ctx.furthest_failure() is None


def _trail_lengths_per_iteration(monkeypatch, grammar, text):
    """The trail length at every repetition step of one parse."""
    seen = []
    end_iteration = ParseContext.end_iteration

    def spy(ctx, entry, step, parser):
        end_iteration(ctx, entry, step, parser)
        seen.append(ctx.snapshot()[1])

    monkeypatch.setattr(ParseContext, "end_iteration", spy)
    assert run_parse(grammar, text).success
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("grammar, item", [
    (tags_grammar, "<a><b></b></a>"),
    (examply_grammar, "val v: Int = 1\n"),
], ids=["tags", "examply"])
def test_trail_does_not_grow_with_the_number_of_items(monkeypatch, grammar, item):
    g = grammar()

    def text(n):
        body = item * n
        return f"<r>{body}</r>" if grammar is tags_grammar else body

    few = _trail_lengths_per_iteration(monkeypatch, g, text(5))
    many = _trail_lengths_per_iteration(monkeypatch, g, text(200))
    assert len(many) > len(few) > 0
    assert max(many) == max(few)


def _parser_classes():
    """Every ``Parser`` subclass that txpeg and its demos define."""
    for info in pkgutil.walk_packages(txpeg.__path__, "txpeg."):
        importlib.import_module(info.name)
    found, todo = set(), [Parser]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return sorted((c for c in found if c.__module__.startswith("txpeg.")),
                  key=lambda c: (c.__module__, c.__qualname__))


def test_no_parse_method_allocates_a_closure_cell():
    # A variable that a failure-message lambda closes over becomes a cell,
    # made on every call, the success path included; a default argument
    # is bound only when the lambda is made.
    classes = _parser_classes()
    assert {"Literal", "CharPred", "Not", "Indent", "Dedent"} <= {
        c.__name__ for c in classes}
    assert [(c.__qualname__, c.__dict__["parse"].__code__.co_cellvars)
            for c in classes
            if "parse" in c.__dict__ and c.__dict__["parse"].__code__.co_cellvars] == []

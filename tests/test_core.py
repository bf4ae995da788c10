"""Parse context tests: registry, failures, aggregate transactions."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpeg.combinators import (
    AstStack,
    build,
    capture,
    char_pred,
    choice,
    literal,
    node,
    one_more,
    perform,
    seq,
    until,
    word,
    zero_more,
)
from txpeg.core import (
    AggregateDelta,
    ConfigurationError,
    ContractViolationError,
    ParseContext,
    Parser,
    StateCell,
    TracedContext,
)
from txpeg.grammar import GrammarDef, ref, run_parse
from txpeg.leftrec import leftrec
from txpeg.states import CopyState, InertState, MapState, MonotonicStack, StackState
from support import Checked, FuzzStack, TransactionViolation, check_folds, enumerate_logs


class AStack(StackState):
    pass


class BCounter(CopyState):
    pass


class CNotes(InertState):
    def __init__(self):
        self.content = "built"


def test_text_is_the_callers_string_itself():
    text = "".join(["a", "b"])      # built at run time, so not interned
    ctx = ParseContext(text)
    assert ctx.text is text
    assert ctx.input_length == 2
    assert ctx.position == 0


def test_empty_input_is_the_empty_string():
    text = ""
    ctx = ParseContext(text)
    assert ctx.text is text
    assert ctx.input_length == 0


@pytest.mark.parametrize("text", [b"ab", bytearray(b"ab"), None, ["a", "b"]])
def test_a_context_refuses_text_that_is_not_a_str(text):
    name = type(text).__name__
    with pytest.raises(TypeError, match=f"not {name}$"):
        ParseContext(text)
    with pytest.raises(TypeError, match=f"not {name}$"):
        TracedContext(text, print)


def test_state_lookup_by_class():
    a = AStack()
    ctx = ParseContext("x", cells=[a, BCounter(n=0)])
    assert ctx.state(AStack) is a
    with pytest.raises(ConfigurationError):
        ctx.state(MonotonicStack)


def test_duplicate_cell_class_rejected():
    with pytest.raises(ConfigurationError):
        ParseContext("x", cells=[AStack(), AStack()])


class _CountsItsMessage(Parser):
    """A failing parser's message is built by its ``expected``; this one
    counts each build."""

    def __init__(self):
        self.builds = 0

    def expected(self):
        self.builds += 1
        return "built"


def test_failure_message_is_lazy():
    cause = _CountsItsMessage()
    ctx = ParseContext("x")
    assert ctx.fail(0, cause) is False
    assert cause.builds == 0
    assert ctx.furthest_failure() == (0, "built")
    assert cause.builds == 1


def test_furthest_failure_keeps_deepest():
    ctx = ParseContext("abcdef")
    ctx.fail(2, "first")
    ctx.fail(5, "deeper")
    ctx.fail(3, "shallower again")
    assert ctx.furthest_failure() == (5, "deeper")
    # Same position: the latest message wins.
    ctx.fail(5, "later at same depth")
    assert ctx.furthest_failure() == (5, "later at same depth")


def test_furthest_failure_survives_restore():
    ctx = ParseContext("abc", cells=[AStack()])
    snap = ctx.snapshot()
    ctx.position = 2
    ctx.fail(2, "deep")
    ctx.restore(snap)
    assert ctx.position == 0
    assert ctx.furthest_failure() == (2, "deep")


def test_snapshot_restore_round_trip():
    stack = AStack()
    counter = BCounter(n=0)
    ctx = ParseContext("abcdef", cells=[stack, counter])
    stack.push("keep")
    snap = ctx.snapshot()
    ctx.position = 4
    stack.push("drop")
    counter.set("n", 9)
    ctx.restore(snap)
    assert ctx.position == 0
    assert stack.values() == ["keep"]
    assert counter.get("n") == 0


def test_diff_merge_reproduces_state():
    stack = AStack()
    ctx = ParseContext("abcdef", cells=[stack])
    snap = ctx.snapshot()
    ctx.position = 3
    stack.push("x")
    delta = ctx.diff(snap)
    assert delta.end_position == 3
    ctx.restore(snap)
    ctx.merge(delta)
    assert ctx.position == 3
    assert stack.values() == ["x"]


def test_foreign_snapshot_rejected():
    ctx1 = ParseContext("a", cells=[AStack()])
    ctx2 = ParseContext("a", cells=[AStack()])
    snap = ctx1.snapshot()
    with pytest.raises(ContractViolationError):
        ctx2.restore(snap)
    with pytest.raises(ContractViolationError):
        ctx2.diff(snap)
    delta = ctx1.diff(snap)
    with pytest.raises(ContractViolationError):
        ctx2.merge(delta)


def test_trace_logs_every_transaction_op():
    lines: list = []
    ctx = TracedContext("ab", lines.append, cells=[AStack()])
    snap = ctx.snapshot()
    delta = ctx.diff(snap)
    ctx.restore(snap)
    ctx.merge(delta)
    ops = [line.split()[0] for line in lines]
    assert ops == ["snapshot", "diff", "restore", "merge"]
    assert all("AStack" in line for line in lines)


def test_inert_cell_is_never_visited(monkeypatch):
    def refuse(*args):
        raise AssertionError("the context visited an inert cell")

    for op in ("cell_snapshot", "cell_restore", "cell_diff", "cell_merge"):
        monkeypatch.setattr(InertState, op, refuse)
    notes, stack = CNotes(), AStack()
    ctx = ParseContext("abcdef", cells=[notes, stack])
    snap = ctx.snapshot()
    ctx.position = 3
    stack.push("x")
    notes.content = "rewritten"
    delta = ctx.diff(snap)
    ctx.restore(snap)
    assert (ctx.position, stack.values(), notes.content) == (0, [], "rewritten")
    ctx.merge(delta)
    assert (ctx.position, stack.values()) == (3, ["x"])
    # Nor does the progress check that closes an iteration.
    step = ctx.snapshot()
    stack.push("y")
    stack.pop()
    notes.content = "again"
    with pytest.raises(ContractViolationError):
        ctx.end_iteration(step, step, stack)
    assert ctx.state(CNotes) is notes


def test_traced_snapshot_round_trips_like_untraced():
    lines: list = []
    seen = []
    for trace in (None, lines.append):
        stack, counter = AStack(), BCounter(n=0)
        cells = [CNotes(), stack, counter]
        ctx = (ParseContext("abcdef", cells) if trace is None
               else TracedContext("abcdef", trace, cells))
        stack.push("keep")
        snap = ctx.snapshot()
        ctx.position = 4
        stack.push("drop")
        counter.set("n", 9)
        delta = ctx.diff(snap)
        ctx.restore(snap)
        restored = (ctx.position, stack.values(), counter.get("n"))
        ctx.merge(delta)
        merged = (ctx.position, stack.values(), counter.get("n"))
        # The snapshot is (position, trail length, trail, AST top).  It
        # marks the trail after its one entry, the "keep" push as (cell,
        # prior version); the inert cell is never logged.
        seen.append((type(ctx), len(snap), snap[1], restored, merged))
    plain, traced = seen
    assert (plain[0], traced[0]) == (ParseContext, TracedContext)
    assert plain[1:] == traced[1:] == (4, 2, (0, ["keep"], 0), (4, ["drop", "keep"], 9))
    assert [line.split()[0] for line in lines] == ["snapshot", "diff", "restore", "merge"]
    assert all(line.split()[2] == "CNotes" for line in lines)


def test_an_iteration_that_writes_only_inert_cells_makes_no_progress():
    notes, stack = CNotes(), AStack()
    ctx = ParseContext("ab", cells=[notes, stack])
    snap = ctx.snapshot()
    notes.content = "touched"
    with pytest.raises(ContractViolationError):
        ctx.end_iteration(snap, snap, stack)
    stack.push("x")
    ctx.end_iteration(snap, snap, stack)

    # A repetition whose body only writes an inert cell makes no progress.
    def touch(ctx):
        ctx.state(CNotes).content += "!"

    with pytest.raises(ContractViolationError):
        zero_more(perform(touch)).parse(ctx)


def test_an_inert_cell_joins_no_trail_and_leaves_the_o1_close_in_reach(monkeypatch):
    notes, stack = CNotes(), AStack()
    ctx = ParseContext("aaaa", cells=[notes, stack])
    assert notes._trail is None
    notes.record()
    assert ctx.snapshot()[1] == 0
    counts = check_folds(monkeypatch)
    item = seq(literal("a"), perform(lambda c: c.state(AStack).push("a")))
    assert zero_more(item).parse(ctx)
    assert stack.values() == ["a"] * 4
    # The first iteration folds; each later one finds the stack held.
    assert (counts["fold"], counts["fast"]) == (1, 3)


def test_an_until_whose_terminator_logs_and_fails_keeps_the_trail_bounded(monkeypatch):
    # The terminator pushes and then fails before each item; its seq
    # rewinds the push, so no entry of it is left between the iterations.
    def push(tag):
        return perform(lambda c: c.state(AStack).push(tag))

    def count(ctx):
        counter = ctx.state(BCounter)
        counter.set("n", counter.get("n") + 1)

    loop = until(seq(literal("a"), push("item"), perform(count)),
                 seq(push("probe"), literal("!")))
    longest = []
    for n in (5, 200):
        counts = check_folds(monkeypatch)
        ctx = ParseContext("a" * n + "!", cells=[AStack(), BCounter(n=0)])
        assert loop.parse(ctx)
        assert ctx.state(AStack).values() == ["probe"] + ["item"] * n
        assert ctx.state(BCounter).get("n") == n
        assert (counts["fold"], counts["fast"]) == (1, n - 1)
        longest.append(counts["trail"])
        monkeypatch.undo()
    assert longest[0] == longest[1] == 4


def test_foreign_snapshot_rejected_without_live_cells():
    ctx1 = ParseContext("ab", cells=[CNotes()])
    ctx2 = ParseContext("ab")
    snap = ctx1.snapshot()
    for op in (ctx2.restore, ctx2.diff):
        with pytest.raises(ContractViolationError):
            op(snap)
    with pytest.raises(ContractViolationError):
        ctx2.merge(ctx1.diff(snap))


def test_context_tracks_model_under_interleaving():
    # Drive a context (one monotonic stack plus the position) and the log
    # model through every op sequence of length <= 6, comparing observable
    # state after each step.  "replay" is the canonical diff/restore/merge
    # round trip; "rewind" is a plain restore.
    ops = ("push_a", "push_b", "advance", "snapshot", "rewind", "replay")

    def replay_log(log):
        vals, pos = [], 0
        for change in log:
            if change == "advance":
                pos += 1
            else:
                vals.append(change)
        vals.reverse()
        return vals, pos

    checked = 0
    for n in range(7):
        for seq in itertools.product(ops, repeat=n):
            stack = AStack()
            ctx = ParseContext("x" * 8, cells=[stack])
            ctx_snap = ctx.snapshot()
            log: tuple = ()
            log_snap: tuple = ()
            for op in seq:
                if op == "push_a":
                    stack.push("a")
                    log += ("a",)
                elif op == "push_b":
                    stack.push("b")
                    log += ("b",)
                elif op == "advance":
                    ctx.position += 1
                    log += ("advance",)
                elif op == "snapshot":
                    ctx_snap = ctx.snapshot()
                    log_snap = log
                elif op == "rewind":
                    ctx.restore(ctx_snap)
                    log = log_snap
                else:
                    delta = ctx.diff(ctx_snap)
                    ctx.restore(ctx_snap)
                    ctx.merge(delta)
                    suffix = log[len(log_snap):]
                    log = log_snap + suffix
                vals, pos = replay_log(log)
                assert stack.values() == vals
                assert ctx.position == pos
            checked += 1
    assert checked == sum(len(ops) ** n for n in range(7))


def test_enumerate_logs_counts():
    assert len(enumerate_logs(("a", "b", "c"), 5)) == 364


# ---------------------------------------------------------------------------
# The undo trail.


def test_untouched_cells_are_never_restored(monkeypatch):
    stack, counter = AStack(), BCounter(n=0)
    ctx = ParseContext("abcdef", cells=[stack, counter])
    snap = ctx.snapshot()
    stack.push("x")
    restored = []
    monkeypatch.setattr(BCounter, "cell_restore",
                        lambda self, s: restored.append(s))
    ctx.restore(snap)
    assert (stack.values(), restored) == ([], [])


def test_restoring_a_snapshot_past_the_trail_end_is_refused():
    stack = AStack()
    ctx = ParseContext("abc", cells=[stack])
    outer = ctx.snapshot()
    stack.push("x")
    inner = ctx.snapshot()
    ctx.restore(outer)
    # ``inner`` was taken after ``outer``; rewinding to ``outer`` ended it.
    for op in (ctx.restore, ctx.diff):
        with pytest.raises(ContractViolationError):
            op(inner)
    assert stack.values() == []


def test_diff_sees_each_cell_as_it_was_at_the_snapshot():
    stack, counter = AStack(), BCounter(n=0)
    ctx = ParseContext("abcdef", cells=[stack, counter])
    snap = ctx.snapshot()
    for n in range(1, 4):
        counter.set("n", n)
        stack.push(n)
    stack.pop()
    delta = ctx.diff(snap)
    ctx.restore(snap)
    assert (stack.values(), counter.get("n")) == ([], 0)
    ctx.merge(delta)
    assert (stack.values(), counter.get("n")) == ([2, 1], 3)


def test_loop_folding_keeps_every_older_snapshot_restorable():
    stack, counter = AStack(), BCounter(n=0)
    ctx = ParseContext("aaaa", cells=[stack, counter])
    stack.push("before")
    outer = ctx.snapshot()

    def bump(ctx):
        stack.push(ctx.position)
        counter.set("n", counter.get("n") + 1)

    item = seq(literal("a"), perform(bump))
    assert zero_more(item).parse(ctx)
    assert (stack.values(), counter.get("n")) == ([4, 3, 2, 1, "before"], 4)
    # Four iterations, folded to one entry per cell.
    assert ctx.snapshot()[1] - outer[1] == 4
    ctx.restore(outer)
    assert (ctx.position, stack.values(), counter.get("n")) == (0, ["before"], 0)


class Tally(StateCell):
    """A custom cell outside the strategies: logs through ``record``."""

    def __init__(self):
        self.count = 0

    def bump(self):
        self.record()
        self.count += 1

    def cell_snapshot(self):
        return self.count

    def cell_restore(self, snapshot):
        self.count = snapshot

    def cell_diff(self, snapshot):
        return self.count

    def cell_merge(self, delta):
        self.count = delta


def test_custom_cell_records_its_prior_version_before_a_change():
    tally = Tally()
    tally.bump()  # not registered yet: nothing is logged
    ctx = ParseContext("ab", cells=[tally])
    snap = ctx.snapshot()
    tally.bump()
    tally.bump()
    assert (snap[1], ctx.snapshot()[1]) == (0, 4)
    ctx.restore(snap)
    assert tally.count == 1


class Level(StateCell):
    """A custom cell with only the two required operations."""

    def __init__(self):
        self.level = 0

    def raise_to(self, level):
        self.record()
        self.level = level

    def cell_snapshot(self):
        return self.level

    def cell_restore(self, snapshot):
        self.level = snapshot


def test_cell_with_only_snapshot_and_restore_round_trips():
    level = Level()
    ctx = ParseContext("ab", cells=[level])
    snap = ctx.snapshot()
    ctx.position = 1
    level.raise_to(3)
    delta = ctx.diff(snap)
    ctx.restore(snap)
    assert (ctx.position, level.level) == (0, 0)
    ctx.merge(delta)
    assert (ctx.position, level.level) == (1, 3)
    ctx.restore(snap)
    assert (ctx.position, level.level) == (0, 0)


def test_merge_logs_exactly_the_cells_the_delta_carries():
    stack, counter = AStack(), BCounter(n=0)
    ctx = ParseContext("abc", cells=[stack, counter])
    snap = ctx.snapshot()
    stack.push("x")
    stack.push("y")
    delta = ctx.diff(snap)
    assert [cell for cell, _ in delta.cells] == [stack]
    ctx.restore(snap)
    counter.set("n", 5)
    before = ctx.snapshot()
    ctx.merge(delta)
    # One (cell, prior version) entry, the stack's; the counter keeps the
    # value it was given after the diff.
    assert ctx.snapshot()[1] - before[1] == 2
    assert (stack.values(), counter.get("n")) == (["y", "x"], 5)
    ctx.restore(before)
    assert (stack.values(), counter.get("n")) == ([], 5)


class Flag(CopyState):
    def __init__(self):
        super().__init__(up=False)


def test_merging_a_seed_keeps_what_the_body_did_before_recursing():
    # The body raises the flag before its left-recursive call, and the seed
    # that call merges (a bare number) never touched the flag, so merging
    # it must leave the flag raised.
    def raise_flag(ctx):
        ctx.state(Flag).set("up", True)

    seen = []
    number = build(capture(one_more(char_pred(str.isdigit, "digit"))), 1, node("num"))
    rules = {
        "top": seq(ref("e"), perform(lambda ctx: seen.append(ctx.state(Flag).get("up")))),
        "e": leftrec(choice(
            build(seq(perform(raise_flag), ref("e"), word("-"), number), 2, node("sub")),
            number,
        )),
    }
    grammar = GrammarDef(rules, "top", cells=(Flag,)).freeze()
    out = run_parse(grammar, "1-2-3")
    assert out.success
    assert seen == [True]


# -- a growth round: diff, restore, merge -----------------------------------

class RFields(CopyState):
    pass


class RPlain(StackState):
    pass


class RGraft(MonotonicStack):
    pass


class RNames(MapState):
    pass


def _round_ctx():
    return ParseContext("abcdefgh", cells=[RFields(n=0), RPlain(), RGraft(),
                                           RNames(), Tally(), CNotes()])


def _apply(ctx, ops, floor):
    """Run ``ops`` on every strategy, never popping ``RGraft`` below
    ``floor`` entries (the precondition of its graftable diff)."""
    fields, plain, graft, names, tally = (ctx.state(c) for c in
                                          (RFields, RPlain, RGraft, RNames, Tally))
    inner = []
    for op, arg in ops:
        if op == 0:
            fields.set("n", arg)
        elif op == 1:
            plain.push(arg)
        elif op == 2:
            plain.pop()
        elif op == 3:
            graft.push(arg)
        elif op == 4 and graft.size > floor:
            graft.pop()
        elif op == 5:
            graft.replace_above(max(floor, graft.size - arg), lambda *v: v)
        elif op == 6:
            names.put(arg % 2, arg)
        elif op == 7:
            names.remove(arg % 2)
        elif op == 8:
            tally.bump()
        elif op == 9:
            ctx.position = 2 * arg
        elif arg % 2 == 0 or not inner:
            inner.append(ctx.snapshot())
        else:
            ctx.restore(inner.pop())


def _contents(ctx):
    return (ctx.position, ctx.state(RFields).cell_snapshot(),
            ctx.state(RPlain).values(), ctx.state(RGraft).values(),
            dict(ctx.state(RNames).content()), ctx.state(Tally).count)


_ops = st.lists(st.tuples(st.integers(0, 10), st.integers(0, 3)), max_size=25)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_ops, _ops)
def test_diff_then_restore_rewinds_and_merge_replays(before, during):
    ctx = _round_ctx()
    _apply(ctx, before, 0)
    snap = ctx.snapshot()
    at_snap = _contents(ctx)
    _apply(ctx, during, ctx.state(RGraft).size)
    done = _contents(ctx)
    delta = ctx.diff(snap)
    ctx.restore(snap)
    assert _contents(ctx) == at_snap
    assert ctx.snapshot()[1] == snap[1]
    ctx.merge(delta)
    assert _contents(ctx) == done


def test_diff_refuses_stale_and_foreign_snapshots():
    ctx, other = _round_ctx(), _round_ctx()
    snap = ctx.snapshot()
    ctx.state(Tally).bump()
    stale = ctx.snapshot()
    ctx.restore(snap)
    with pytest.raises(ContractViolationError, match="stale"):
        ctx.diff(stale)
    with pytest.raises(ContractViolationError, match="different context"):
        other.diff(snap)
    assert ctx.diff(snap).cells == ()


def test_a_traced_diff_then_restore_reports_each_in_order():
    lines: list = []
    tally = Tally()
    ctx = TracedContext("ab", lines.append, cells=[tally])
    snap = ctx.snapshot()
    ctx.position = 1
    tally.bump()
    delta = ctx.diff(snap)
    ctx.restore(snap)
    # The diff line reads the state before the rewind.
    assert [line.split()[:2] for line in lines] == [
        ["snapshot", "pos=0"], ["diff", "pos=1"], ["restore", "pos=0"]]
    assert (delta.end_position, ctx.position, tally.count) == (1, 0, 0)


# -- the AST stack, saved in each snapshot --------------------------------


class LoggedAst(AstStack):
    """An AST stack that lives on the trail, as every other cell does: a
    subclass is not ``ctx.ast``, so the snapshot does not carry its top."""


def _ast_ctx(*cells):
    return ParseContext("abcdefgh", cells=[*cells, RFields(n=0)])


def _step(ctx, ast, op, arg, live, loops):
    """Apply one operation to ``ctx``; ``live`` holds the snapshots that are
    still valid, oldest first, and ``loops`` each running repetition as the
    indexes of its entry and step snapshots in ``live``, outermost first.
    Returns whether the operation raised ContractViolationError."""
    if op == 0:
        ast.push(arg)
    elif op == 1:
        ast.pop()
    elif op == 2:
        ast.replace_above(max(0, ast.size - arg), lambda *v: v)
    elif op == 3:
        ast.truncate(max(0, ast.size - arg))
    elif op == 4:
        ctx.position = 2 * arg
    elif op == 5:
        fields = ctx.state(RFields)
        fields.set("n", fields.get("n") + 1)
    elif op == 6:
        live.append(ctx.snapshot())
    elif op == 7:
        loops.append((len(live), len(live)))
        live.append(ctx.snapshot())
    elif not live:
        pass
    elif op in (8, 9, 10):
        i = len(live) - 1 - arg % len(live)
        snap = live[i]
        try:
            if op == 8:
                ctx.restore(snap)
            elif op == 9:
                ctx.merge(ctx.diff(snap))
            else:
                d = ctx.diff(snap)
                ctx.restore(snap)
                ctx.merge(d)
        except ContractViolationError as e:
            assert "no longer reachable" in str(e)
            return True
        # A restore to a snapshot keeps it and drops every newer one, and
        # with them each repetition whose step they held.
        keep = i + 1 if op != 9 else len(live)
        del live[keep:]
        loops[:] = [loop for loop in loops if loop[1] < keep]
    elif op == 11 and loops:
        entry, step = loops[-1]
        try:
            ctx.end_iteration(live[entry], live[step], "loop")
        except ContractViolationError as e:
            assert "without consuming input" in str(e)
            return True
        # The fold invalidates every snapshot taken inside the iteration.
        del live[step:]
        live.append(ctx.snapshot())
    return False


_ast_ops = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 3)), max_size=40)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_ast_ops)
def test_the_ast_stack_in_the_snapshot_matches_one_on_the_trail(ops):
    logged = LoggedAst()
    register, trailed = _ast_ctx(), _ast_ctx(logged)
    exact = register.ast
    assert trailed.ast is not logged
    state = {register: ([], []), trailed: ([], [])}
    for op, arg in ops:
        raised = [_step(ctx, ast, op, arg, *state[ctx])
                  for ctx, ast in ((register, exact), (trailed, logged))]
        assert raised[0] == raised[1]
        assert exact.values() == logged.values()
        assert register.position == trailed.position
        assert register.state(RFields).get("n") == trailed.state(RFields).get("n")
    # Only the subclass logs on the trail.
    assert all(cell is not exact for cell in register._trail[::2])


def test_restore_rewinds_the_ast_stack_popped_below_the_snapshot():
    ctx = ParseContext("ab")
    ast = ctx.ast
    ast.push("a")
    ast.push("b")
    snap = ctx.snapshot()
    ast.pop()
    ast.pop()
    ast.push("c")
    ctx.restore(snap)
    assert ast.values() == ["b", "a"]
    assert ctx._trail == []


def test_diff_refuses_an_ast_stack_popped_below_the_snapshot():
    ctx = ParseContext("ab")
    ast = ctx.ast
    ast.push("a")
    ast.push("b")
    snap = ctx.snapshot()
    ast.pop()
    ast.push("c")
    ctx.position = 1
    with pytest.raises(ContractViolationError, match="stack snapshot no longer reachable"):
        ctx.diff(snap)
    assert (ctx.position, ast.values()) == (1, ["c", "a"])


def test_a_refused_diff_leaves_the_logged_cells_as_they_are():
    # Past the snapshot the trail holds an entry, so the refusal comes
    # after the cell part is built, and leaves the trail as it was.
    tally = Tally()
    ctx = ParseContext("ab", cells=[tally])
    ctx.ast.push("a")
    snap = ctx.snapshot()
    tally.bump()
    ctx.ast.pop()
    ctx.ast.push("c")
    with pytest.raises(ContractViolationError, match="stack snapshot no longer reachable"):
        ctx.diff(snap)
    assert (tally.count, len(ctx._trail), ctx.ast.values()) == (1, 2, ["c"])


def test_a_seed_merged_onto_its_own_base_shares_the_diffed_links():
    ctx = ParseContext("ab")
    ctx.ast.push("a")
    entry = ctx.snapshot()
    ctx.ast.push("b")
    ctx.ast.push("c")
    diffed = ctx.ast._top
    delta = ctx.diff(entry)
    ctx.restore(entry)
    assert ctx.ast.values() == ["a"]
    ctx.merge(delta)
    assert ctx.ast._top is diffed and ctx.ast.values() == ["c", "b", "a"]


def test_a_hand_built_delta_merges_as_nothing_pushed():
    # A delta built without an AST segment carries the empty one, whatever
    # the stack holds when it is merged.
    ctx = ParseContext("abcdef")
    ctx.ast.push("a")
    top = ctx.ast._top
    ctx.ast.cell_merge(AggregateDelta(5, (), []).ast)
    assert ctx.ast._top is top
    ctx.merge(AggregateDelta(5, (), ctx._trail))
    assert ctx.position == 5 and ctx.ast._top is top


def test_a_context_without_an_ast_stack_runs_every_transaction():
    # The context registers no AstStack cell; the one it owns never moves.
    tally = Tally()
    ctx = ParseContext("ab", cells=[tally])
    entry = ctx.snapshot()
    tally.bump()
    ctx.restore(entry)
    assert (ctx.position, tally.count) == (0, 0)
    ctx.position = 1
    tally.bump()
    delta = ctx.diff(entry)
    ctx.restore(entry)
    ctx.merge(delta)
    assert (ctx.position, tally.count, ctx.ast.values()) == (1, 1, [])
    step = ctx.snapshot()
    ctx.position = 2
    ctx.end_iteration(entry, step, "loop")
    delta = ctx.diff(entry)
    ctx.restore(entry)
    assert (ctx.position, tally.count) == (0, 0)
    # Nothing was pushed: the AST segment's base is its top.
    assert delta.ast[0] is delta.ast[1]
    ctx.merge(delta)
    assert (ctx.position, tally.count, ctx.ast.size) == (2, 1, 0)
    # Each context owns its AST stack, so none keeps another's output.
    other = ParseContext("a")
    assert capture(literal("a")).parse(other)
    assert other.ast is not ctx.ast and ctx.ast.values() == [] and other.ast.values() == ["a"]


class _Relink(Parser):
    """Swap the stack's top for an equal but fresh link, then fail,
    without a word to the trail: a broken transaction that leaves the
    stack's content as it was."""

    def __init__(self, stack):
        self.stack = stack

    def parse(self, ctx):
        depth, value, below = self.stack._top
        self.stack._top = (depth, value, below)
        return False


@pytest.mark.parametrize("cell", ["registered", "ast"])
def test_the_fuzz_check_reports_an_equal_but_fresh_top_link(cell):
    stack = FuzzStack("a")
    ctx = ParseContext("", [stack])
    ctx.ast.push("b")
    target = stack if cell == "registered" else ctx.ast
    with pytest.raises(TransactionViolation):
        Checked(_Relink(target)).parse(ctx)

"""Parse context tests: registry, failures, aggregate transactions."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpeg.combinators import (
    build,
    capture,
    char_pred,
    choice,
    literal,
    node,
    one_more,
    perform,
    seq,
    word,
    zero_more,
)
from txpeg.core import (
    ConfigurationError,
    ContractViolationError,
    Failure,
    ParseContext,
    SENTINEL,
    SUCCESS,
    StateCell,
    TracedContext,
)
from txpeg.grammar import GrammarDef, ref, run_parse
from txpeg.leftrec import leftrec
from txpeg.states import CopyState, InertState, MapState, MonotonicStack, StackState
from support import enumerate_logs


class AStack(StackState):
    pass


class BCounter(CopyState):
    pass


class CNotes(InertState):
    def __init__(self):
        self.content = "built"


def test_text_gains_sentinel():
    ctx = ParseContext("ab")
    assert ctx.text == "ab" + SENTINEL
    assert ctx.input_length == 2
    assert ctx.position == 0


def test_empty_input_is_just_sentinel():
    ctx = ParseContext("")
    assert ctx.text == SENTINEL
    assert ctx.input_length == 0


def test_state_lookup_by_class():
    a = AStack()
    ctx = ParseContext("x", cells=[a, BCounter(n=0)])
    assert ctx.state(AStack) is a
    with pytest.raises(ConfigurationError):
        ctx.state(MonotonicStack)


def test_duplicate_cell_class_rejected():
    with pytest.raises(ConfigurationError):
        ParseContext("x", cells=[AStack(), AStack()])


def test_success_is_singleton_truthy_result():
    assert SUCCESS.ok
    f = Failure(3, "nope")
    assert not f.ok
    assert f.position == 3
    assert f.message == "nope"


def test_failure_message_is_lazy():
    calls = []

    def build():
        calls.append(1)
        return "built"

    f = Failure(0, build)
    assert not calls
    assert f.message == "built"
    assert f.message == "built"
    assert len(calls) == 1


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
        # The snapshot marks the trail after its one entry, the "keep"
        # push as (cell, prior version); the inert cell is never logged.
        seen.append((type(ctx), len(snap), snap[1], restored, merged))
    plain, traced = seen
    assert (plain[0], traced[0]) == (ParseContext, TracedContext)
    assert plain[1:] == traced[1:] == (3, 2, (0, ["keep"], 0), (4, ["drop", "keep"], 9))
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
    assert zero_more(item).parse(ctx).ok
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


# -- retract: diff then restore, in one walk ---------------------------------

class RFields(CopyState):
    pass


class RPlain(StackState):
    pass


class RGraft(MonotonicStack):
    pass


class RNames(MapState):
    pass


def _retract_ctx():
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
def test_retract_is_diff_then_restore(before, during):
    composed, fused = _retract_ctx(), _retract_ctx()
    deltas = []
    for ctx in (composed, fused):
        _apply(ctx, before, 0)
        snap = ctx.snapshot()
        _apply(ctx, during, ctx.state(RGraft).size)
        if ctx is composed:
            delta = ctx.diff(snap)
            ctx.restore(snap)
        else:
            delta = ctx.retract(snap)
        deltas.append(delta)
    assert _contents(fused) == _contents(composed)
    assert fused.snapshot()[1] == composed.snapshot()[1]
    # A StackState delta is a node of its own context: compare the deltas
    # by what they carry, then by what merging them back leaves.
    shapes = [(d.end_position, [type(c) for c, _ in d.cells]) for d in deltas]
    assert shapes[0] == shapes[1]
    composed.merge(deltas[0])
    fused.merge(deltas[1])
    assert _contents(fused) == _contents(composed)
    assert fused.snapshot()[1] == composed.snapshot()[1]


def test_retract_refuses_stale_and_foreign_snapshots():
    ctx, other = _retract_ctx(), _retract_ctx()
    snap = ctx.snapshot()
    ctx.state(Tally).bump()
    stale = ctx.snapshot()
    ctx.restore(snap)
    with pytest.raises(ContractViolationError, match="stale"):
        ctx.retract(stale)
    with pytest.raises(ContractViolationError, match="different context"):
        other.retract(snap)
    assert ctx.retract(snap).cells == ()


def test_traced_retract_reports_its_diff_and_restore():
    lines: list = []
    tally = Tally()
    ctx = TracedContext("ab", lines.append, cells=[tally])
    snap = ctx.snapshot()
    ctx.position = 1
    tally.bump()
    delta = ctx.retract(snap)
    assert [line.split()[0] for line in lines] == ["snapshot", "diff", "restore"]
    assert (delta.end_position, ctx.position, tally.count) == (1, 0, 0)

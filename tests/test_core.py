"""Parse context tests: registry, failures, aggregate transactions."""

import itertools

import pytest

from txpeg.combinators import literal, perform, seq, zero_more
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
from txpeg.states import CopyState, InertState, MonotonicStack, StackState
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
    ctx = ParseContext("ab", cells=[AStack()], trace=lines.append)
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
    assert ctx.unchanged_since(ctx.snapshot())
    assert ctx.state(CNotes) is notes


def test_traced_snapshot_round_trips_like_untraced():
    lines: list = []
    seen = []
    for trace in (None, lines.append):
        stack, counter = AStack(), BCounter(n=0)
        ctx = ParseContext("abcdef", cells=[CNotes(), stack, counter], trace=trace)
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


def test_unchanged_since_catches_progress_only_in_inert_cells():
    notes, stack = CNotes(), AStack()
    ctx = ParseContext("ab", cells=[notes, stack])
    snap = ctx.snapshot()
    notes.content = "touched"
    assert ctx.unchanged_since(snap)
    stack.push("x")
    assert not ctx.unchanged_since(snap)

    # A repetition whose body only writes an inert cell makes no progress.
    def touch(ctx):
        ctx.state(CNotes).content += "!"

    with pytest.raises(ContractViolationError):
        zero_more(perform(touch)).parse(ctx)


def test_foreign_snapshot_rejected_without_live_cells():
    ctx1 = ParseContext("ab", cells=[CNotes()])
    ctx2 = ParseContext("ab")
    snap = ctx1.snapshot()
    for op in (ctx2.restore, ctx2.diff, ctx2.unchanged_since):
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
    for op in (ctx.restore, ctx.diff, ctx.unchanged_since):
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
    assert not ctx.unchanged_since(snap)
    ctx.restore(snap)
    assert ctx.unchanged_since(snap)


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

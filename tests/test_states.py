"""Cell strategy tests: unit behavior plus simulation against the model."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpeg.combinators import perform, zero_more
from txpeg.core import ContractViolationError, ParseContext, TracedContext
from txpeg.demos.namespaces import TypeRecord, TypeStack
from txpeg.states import (
    BOTTOM,
    CopyState,
    InertState,
    MapState,
    MonotonicStack,
    StackState,
)
from support import simulate_cell_against_model


# -- CopyState --------------------------------------------------------------

def test_copy_state_round_trip():
    c = CopyState(n=0)
    s = c.cell_snapshot()
    c.set("n", 3)
    d = c.cell_diff(s)
    c.cell_restore(s)
    assert c.get("n") == 0
    c.cell_merge(d)
    assert c.get("n") == 3


def test_copy_state_snapshot_is_isolated():
    c = CopyState(n=1)
    s = c.cell_snapshot()
    c.set("n", 9)
    assert s["n"] == 1


# -- StackState -------------------------------------------------------------

def test_stack_push_pop_peek():
    s = StackState()
    assert s.pop() is None
    assert s.peek() is None
    assert s.peek(default=0) == 0
    s.push("a")
    s.push("b")
    assert s.peek() == "b"
    assert s.size == 2
    assert s.values() == ["b", "a"]
    assert s.pop() == "b"
    assert s.pop() == "a"
    assert s.pop() is None


def test_stack_iterates_top_first_without_copying():
    s = StackState("a", "b", "c")
    assert list(s) == s.values() == ["c", "b", "a"]
    walk = iter(s)
    assert next(walk) == "c"
    assert "b" in s and "z" not in s
    assert list(StackState()) == []


def test_stack_restore_rewinds():
    s = StackState("a")
    snap = s.cell_snapshot()
    s.push("b")
    s.push("c")
    s.cell_restore(snap)
    assert s.values() == ["a"]


def test_stack_merge_replaces_whole():
    s = StackState("a")
    snap = s.cell_snapshot()
    s.push("b")
    d = s.cell_diff(snap)
    s.cell_restore(snap)
    s.push("x")
    s.cell_merge(d)
    # Delta captured the whole list; the x branch is gone.
    assert s.values() == ["b", "a"]


# -- MonotonicStack ---------------------------------------------------------

def test_monotonic_diff_is_pushed_elements():
    s = MonotonicStack()
    s.push("c")
    snap = s.cell_snapshot()
    s.push("b")
    s.push("a")
    d = s.cell_diff(snap)
    s.cell_restore(snap)
    assert s.values() == ["c"]
    s.cell_merge(d)
    assert s.values() == ["a", "b", "c"]
    # Only the pushed elements travel: grafted elsewhere, "c" stays behind.
    other = MonotonicStack("z")
    other.cell_merge(d)
    assert other.values() == ["a", "b", "z"]


def test_monotonic_merge_regrafts():
    s = MonotonicStack()
    s.push("c")
    snap = s.cell_snapshot()
    s.push("b")
    s.push("a")
    d = s.cell_diff(snap)
    s.cell_restore(snap)
    s.push("x")
    s.cell_merge(d)
    assert s.values() == ["a", "b", "x", "c"]


def test_monotonic_diff_rejects_popped_snapshot():
    s = MonotonicStack()
    s.push("a")
    snap = s.cell_snapshot()
    s.pop()
    s.push("b")
    with pytest.raises(ContractViolationError):
        s.cell_diff(snap)


def test_monotonic_helpers():
    s = MonotonicStack()
    for v in ("a", "b", "c"):
        s.push(v)
    assert s.at(0) == "c"
    assert s.at(2) == "a"
    assert s.at(5) is None
    assert s.values() == ["c", "b", "a"]
    s.truncate(1)
    assert s.values() == ["a"]
    s.push("z")
    s.truncate(1)
    assert s.values() == ["a"]


# -- The shared bottom -----------------------------------------------------

def _bound(stack):
    ctx = ParseContext("", [stack])
    return ctx, ctx._trail


def test_at_on_or_past_the_bottom_is_none():
    s = MonotonicStack("a", "b")
    assert [s.at(k) for k in range(5)] == ["b", "a", None, None, None]
    assert [MonotonicStack().at(k) for k in range(3)] == [None, None, None]


def test_pop_and_peek_on_an_empty_stack_log_nothing():
    s = StackState()
    _, trail = _bound(s)
    assert (s.pop(), s.peek(), s.peek("none")) == (None, None, "none")
    assert s.cell_snapshot() is BOTTOM and trail == []


def test_truncate_to_zero_leaves_the_bottom():
    s = MonotonicStack("a", "b", "c")
    _, trail = _bound(s)
    top = s.cell_snapshot()
    s.truncate(0)
    assert s.cell_snapshot() is BOTTOM and s.size == 0
    assert trail == [s, top]
    s.truncate(0)
    assert len(trail) == 2


def test_replace_above_zero_builds_on_the_bottom():
    s = MonotonicStack("a", "b")
    assert s.replace_above(0, lambda *v: v) == ("a", "b")
    assert s.values() == [("a", "b")] and s.cell_snapshot()[2] is BOTTOM
    empty = MonotonicStack()
    assert empty.replace_above(0, lambda *v: v) == ()
    assert (empty.values(), empty.size) == ([()], 1)


def test_cell_diff_from_the_empty_version():
    s = MonotonicStack()
    snap = s.cell_snapshot()
    empty = s.cell_diff(snap)
    s.push("x")
    s.cell_merge(empty)
    assert s.values() == ["x"]
    s.cell_restore(snap)
    s.push("a")
    s.push("b")
    delta = s.cell_diff(snap)
    s.cell_restore(snap)
    assert s.cell_snapshot() is BOTTOM
    s.cell_merge(delta)
    assert (s.values(), s.size) == (["b", "a"], 2)


def test_type_lookup_after_a_restore_to_the_empty_version():
    types = TypeStack()
    ctx = ParseContext("", [types])
    snap = ctx.snapshot()
    types.push(TypeRecord("A"))
    types.push(TypeRecord("B", ("P",)))
    assert types.find("A") == TypeRecord("A")
    ctx.restore(snap)
    assert (types.find("A"), types.find("B")) == (None, None)
    types.push(TypeRecord("B"))
    assert types.find("B") == TypeRecord("B")


# -- MapState ---------------------------------------------------------------

def test_map_state_round_trip():
    m = MapState()
    m.put("k", 1)
    snap = m.cell_snapshot()
    m.put("k", 2)
    m.put("j", 3)
    d = m.cell_diff(snap)
    m.cell_restore(snap)
    assert m.get("k") == 1 and m.get("j") is None
    m.cell_merge(d)
    assert m.get("k") == 2 and m.get("j") == 3


def test_map_state_versions_are_independent():
    m = MapState()
    m.put("a", 1)
    snap = m.cell_snapshot()
    m.remove("a")
    assert snap.get("a") == 1
    assert m.get("a") is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcdefgh"),
                          st.integers(0, 9),
                          st.booleans())))
def test_map_state_matches_dict(ops):
    m = MapState()
    ref: dict = {}
    for key, value, deleting in ops:
        if deleting:
            m.remove(key)
            ref.pop(key, None)
        else:
            m.put(key, value)
            ref[key] = value
        assert m.size == len(ref)
        assert dict(m.content()) == ref
    for key in "abcdefgh":
        assert m.get(key, "absent") == ref.get(key, "absent")
        assert (key in m) == (key in ref)


def test_map_state_remove_of_an_absent_key_logs_nothing():
    m = MapState()
    ctx = ParseContext("", cells=[m])
    m.put("a", 1)
    mark = ctx.snapshot()[1]
    m.remove("b")
    assert ctx.snapshot()[1] == mark
    assert m.get("a") == 1 and m.size == 1


def test_a_repetition_that_only_removes_an_absent_key_violates_the_contract():
    m = MapState()
    m.put("a", 1)
    ctx = ParseContext("x", cells=[m])
    with pytest.raises(ContractViolationError):
        zero_more(perform(lambda c: m.remove("b"))).parse(ctx)


def test_map_state_content_is_read_only():
    m = MapState()
    m.put("a", 1)
    view = m.content()
    with pytest.raises(TypeError):
        view["a"] = 2
    with pytest.raises(TypeError):
        del view["a"]
    assert m.get("a") == 1


class Tally(CopyState):
    pass


class Names(MapState):
    pass


def test_the_dict_cells_look_the_same_from_outside():
    tally, names = Tally(n=0), Names()
    lines: list = []
    ctx = TracedContext("", lines.append, cells=[tally, names])
    ctx.restore(ctx.snapshot())
    assert lines == ["snapshot pos=0 Tally(n=0) Names(size=0) AstStack(depth=0)",
                     "restore pos=0 Tally(n=0) Names(size=0) AstStack(depth=0)"]
    # One trail entry is two slots: the cell and its prior version.
    mark = ctx.snapshot()[1]
    tally.set("n", 1)
    assert ctx.snapshot()[1] == mark + 2
    names.put("k", 1)
    assert ctx.snapshot()[1] == mark + 4
    with pytest.raises(TypeError):
        MapState(x=1)


# -- InertState -------------------------------------------------------------

class _Holder(InertState):
    def __init__(self):
        self.entries: list = []


def test_inert_state_survives_restore():
    h = _Holder()
    snap = h.cell_snapshot()
    h.entries.append("kept")
    h.cell_restore(snap)
    assert h.entries == ["kept"]
    h.cell_merge(h.cell_diff(snap))
    assert h.entries == ["kept"]


# -- simulation against the log model --------------------------------------

def _stack_replay(log):
    vals: list = []
    for op, arg in log:
        if op == "push":
            vals.append(arg)
        elif vals:
            vals.pop()
    vals.reverse()
    return vals  # top first, same as StackState.values()


def _stack_mutations():
    return [
        (("push", 1), lambda c: c.push(1)),
        (("push", 2), lambda c: c.push(2)),
        (("pop", None), lambda c: c.pop()),
    ]


def _monotonic_precondition(prefix, suffix):
    # The snapshot stays reachable iff the depth never dips below its
    # taking point afterwards (pop on empty is a no-op and stays at 0).
    depth = 0
    for op, _ in prefix:
        depth = depth + 1 if op == "push" else max(depth - 1, 0)
    at_snapshot = depth
    low = depth
    for op, _ in suffix:
        depth = depth + 1 if op == "push" else max(depth - 1, 0)
        low = min(low, depth)
    return low >= at_snapshot


def test_stack_state_tracks_model():
    stats = simulate_cell_against_model(
        StackState, _stack_mutations(), _stack_replay,
        observe=lambda c: c.values(), max_len=6,
    )
    assert stats["runs"] == 7108


def test_monotonic_stack_tracks_model():
    stats = simulate_cell_against_model(
        MonotonicStack, _stack_mutations(), _stack_replay,
        observe=lambda c: c.values(), max_len=6,
        diff_precondition=_monotonic_precondition,
    )
    assert stats["runs"] == 7108


def test_copy_state_tracks_model():
    def replay(log):
        fields: dict = {}
        for name, value in log:
            fields[name] = value
        return fields

    stats = simulate_cell_against_model(
        CopyState,
        [(("x", 1), lambda c: c.set("x", 1)),
         (("x", 2), lambda c: c.set("x", 2)),
         (("y", 3), lambda c: c.set("y", 3))],
        replay,
        observe=lambda c: c.cell_snapshot(),
        max_len=6,
    )
    assert stats["runs"] == 7108


def test_map_state_tracks_model():
    def replay(log):
        ref: dict = {}
        for op, key, value in log:
            if op == "put":
                ref[key] = value
            else:
                ref.pop(key, None)
        return ref

    stats = simulate_cell_against_model(
        MapState,
        [(("put", "k1", 1), lambda c: c.put("k1", 1)),
         (("put", "k2", 2), lambda c: c.put("k2", 2)),
         (("del", "k1", None), lambda c: c.remove("k1"))],
        replay,
        observe=lambda c: dict(c.content().items()),
        max_len=6,
    )
    assert stats["runs"] == 7108


def test_inert_state_is_operation_transparent():
    # Interleave transactional ops arbitrarily between mutations; content
    # must match running the mutations alone.
    ops = ["m1", "m2", "snap", "restore", "cycle"]
    checked = 0
    for n in range(7):
        for seq in itertools.product(ops, repeat=n):
            h = _Holder()
            snap = h.cell_snapshot()
            expected: list = []
            for op in seq:
                if op == "m1":
                    h.entries.append(1)
                    expected.append(1)
                elif op == "m2":
                    h.entries.append(2)
                    expected.append(2)
                elif op == "snap":
                    snap = h.cell_snapshot()
                elif op == "restore":
                    h.cell_restore(snap)
                else:
                    h.cell_merge(h.cell_diff(snap))
                assert h.entries == expected
            checked += 1
        if checked > 5000:
            break
    assert checked > 0

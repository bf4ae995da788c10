"""Shared harnesses for the test suite.

Everything heavyweight that both the unit tests and the acceptance suite
need lives here: exhaustive law checking for the log model, the cell
simulation driver, the random-tree transactionality fuzzer, and the small
independent oracles (column counter, left-fold expression builder, the
full fold of a repetition's iteration).
"""

from __future__ import annotations

import collections
import itertools
import operator
import random
from typing import Callable, Iterable, Sequence

from txpeg.combinators import (
    Ahead,
    Not,
    build,
    capture,
    char_pred,
    choice,
    collect,
    end_of_input,
    literal,
    node,
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
from txpeg.core import ParseContext, Parser
from txpeg.grammar import RuleRef
from txpeg.leftrec import leftrec
from txpeg.states import CopyState, MapState, StackState
from txpeg.logmodel import (
    ModelError,
    ModelParser,
    model_apply_change,
    model_call,
    model_diff,
    model_merge,
    model_restore,
    model_snapshot,
)


def enumerate_logs(alphabet: Sequence, max_len: int) -> list[tuple]:
    """All change logs over ``alphabet`` of length 0..max_len."""
    logs: list[tuple] = []
    for n in range(max_len + 1):
        logs.extend(itertools.product(alphabet, repeat=n))
    return logs


def check_log_model_laws(alphabet=("a", "b", "c"), max_len=5) -> dict:
    """Exhaustively verify the log model's algebra.

    Returns a small stats dict so callers can report coverage.  Raises
    AssertionError on the first divergence.
    """
    states = enumerate_logs(alphabet, max_len)
    checks = 0

    # Snapshot is the identity; restore returns the snapshot unchanged.
    for st in states:
        assert model_snapshot(st) == st
        checks += 1
    for sn in states:
        for st in states:
            assert model_restore(sn, st) == sn
            checks += 1

    # applyChange appends exactly one change.
    for st in states:
        for c in alphabet:
            assert model_apply_change(c, st) == st + (c,)
            checks += 1

    # diff recovers what was applied since a snapshot, and the
    # diff/restore/merge cycle reproduces the state.  A non-prefix
    # snapshot must be rejected.
    for st in states:
        for k in range(len(st) + 1):
            sn = st[:k]
            d = model_diff(sn, st)
            assert d == st[k:]
            assert model_merge(d, model_restore(sn, st)) == st
            checks += 2
        assert model_diff(st, st) == ()
        checks += 1
    for sn in states:
        for st in states:
            if st[: len(sn)] != sn:
                try:
                    model_diff(sn, st)
                except ModelError:
                    pass
                else:
                    raise AssertionError(f"diff accepted non-prefix {sn!r} of {st!r}")
                checks += 1

    # Merge appends; merging two deltas in turn equals merging their
    # concatenation.
    deltas = enumerate_logs(alphabet, 2)
    for st in states:
        for d1 in deltas:
            assert model_merge(d1, st) == st + d1
            checks += 1
            for d2 in deltas:
                assert model_merge(d2, model_merge(d1, st)) == model_merge(d1 + d2, st)
                checks += 1

    # Invocation: failure is a no-op, success folds the trace left to
    # right, an empty trace is the identity.  Cross-checked against a
    # naive loop over the same transforms.
    prim: list[Callable] = [lambda s, c=c: model_apply_change(c, s) for c in alphabet]
    prim.append(lambda s: s[:-1] if s else s)          # rewind one change
    prim.append(lambda s: model_merge((alphabet[0],), s))
    traces: list[tuple] = [()]
    traces += [(t,) for t in prim]
    traces += list(itertools.product(prim, repeat=2))
    for st in states:
        for tr in traces:
            p_ok = ModelParser(result=lambda s: True, trace=lambda s, tr=tr: tr)
            p_no = ModelParser(result=lambda s: False, trace=lambda s, tr=tr: tr)
            expect = st
            for t in tr:
                expect = t(expect)
            assert model_call(p_ok, st) == expect
            assert model_call(p_no, st) == st
            checks += 2

    return {"states": len(states), "checks": checks}


def simulate_cell_against_model(make_cell, mutations, replay, observe,
                                max_len: int = 6,
                                diff_precondition=None) -> dict:
    """Drive a cell and the log model through every mutation sequence.

    ``mutations`` is a list of (change label, cell mutator) pairs; the same
    labels feed ``replay``, which turns a change log into reference
    content, and ``observe`` extracts comparable content from the cell.
    For every sequence of length 0..max_len and every split point, the
    harness snapshots at the split, finishes the sequence (checking content
    against the log after each step), then runs diff / restore / merge on
    both sides and demands identical content throughout.

    ``diff_precondition(prefix, suffix)`` may declare a cell diff invalid
    for a given history; the harness then insists the cell raises.
    """
    runs = 0
    checks = 0
    labels = [m[0] for m in mutations]
    by_label = dict(mutations)
    for n in range(max_len + 1):
        for seq in itertools.product(labels, repeat=n):
            for split in range(n + 1):
                cell = make_cell()
                log: tuple = ()
                for label in seq[:split]:
                    by_label[label](cell)
                    log = model_apply_change(label, log)
                    assert observe(cell) == replay(log)
                    checks += 1
                snap_c = cell.cell_snapshot()
                snap_l = model_snapshot(log)
                for label in seq[split:]:
                    by_label[label](cell)
                    log = model_apply_change(label, log)
                    assert observe(cell) == replay(log)
                    checks += 1
                final = observe(cell)
                ok = diff_precondition is None or diff_precondition(seq[:split], seq[split:])
                if not ok:
                    try:
                        cell.cell_diff(snap_c)
                    except Exception:
                        runs += 1
                        continue
                    raise AssertionError(
                        f"diff accepted a broken history: {seq!r} split {split}"
                    )
                d_c = cell.cell_diff(snap_c)
                d_l = model_diff(snap_l, log)
                cell.cell_restore(snap_c)
                log = model_restore(snap_l, log)
                assert observe(cell) == replay(log)
                cell.cell_merge(d_c)
                log = model_merge(d_l, log)
                assert observe(cell) == replay(log) == final
                checks += 3
                runs += 1
    return {"runs": runs, "checks": checks}


def full_fold(trail: list, entry_mark: int, mark: int) -> list:
    """The trail that the full fold of ``ParseContext.end_iteration``
    leaves, computed on a copy: the entries up to ``mark``, then each
    iteration entry whose cell holds none from ``entry_mark`` on."""
    held = set(map(id, trail[entry_mark:mark:2]))
    kept = []
    for cell, prior in zip(trail[mark::2], trail[mark + 1::2]):
        if id(cell) not in held:
            held.add(id(cell))
            kept += (cell, prior)
    return trail[:mark] + kept


def check_folds(monkeypatch) -> collections.Counter:
    """Make every ``ParseContext.end_iteration`` check that it leaves the
    trail that :func:`full_fold` gives, entry by entry by identity.

    Returns a counter that each call bumps under ``"fast"`` when the
    iteration's entries were dropped without a walk, else ``"fold"``;
    ``"trail"`` keeps the longest trail left by any call.
    """
    counts: collections.Counter = collections.Counter()
    end_iteration = ParseContext.end_iteration

    def checked(ctx, entry, step, parser):
        trail, mark = ctx._trail, step[1]
        expected = full_fold(trail, entry[1], mark)
        fast = mark - entry[1] == ctx._all_held
        end_iteration(ctx, entry, step, parser)
        assert len(trail) == len(expected), (fast, parser)
        assert all(map(operator.is_, trail, expected)), (fast, parser)
        counts["fast" if fast else "fold"] += 1
        counts["trail"] = max(counts["trail"], len(trail))

    monkeypatch.setattr(ParseContext, "end_iteration", checked)
    return counts


def column_after(prefix: str, tab: int = 4) -> int:
    """Independent column counter: width of a whitespace prefix.

    Walks the prefix one character at a time, advancing a column counter;
    a tab jumps to the next multiple of ``tab``.  Used as the oracle for
    the indentation map's tab expansion.
    """
    col = 0
    for ch in prefix:
        if ch == "\t":
            col += tab - (col % tab)
        else:
            col += 1
    return col


def fold_left_chain(operands: Sequence[str], make: Callable, leaf: Callable):
    """Left-fold a flat operand chain into a nested binary structure.

    ``[1, 2, 3]`` becomes ``make(make(leaf(1), leaf(2)), leaf(3))``: the
    expected shape of a left-associative operator chain.
    """
    acc = leaf(operands[0])
    for x in operands[1:]:
        acc = make(acc, leaf(x))
    return acc


# ---------------------------------------------------------------------------
# Transactionality fuzzing.


class FuzzCounter(CopyState):
    """Copy-strategy cell the fuzzer mutates."""

    def __init__(self):
        super().__init__(n=0)


class FuzzStack(StackState):
    """Stack-strategy cell the fuzzer mutates."""


class FuzzMap(MapState):
    """Map-strategy cell the fuzzer mutates."""


class TransactionViolation(AssertionError):
    """A parser broke the all-or-nothing discipline."""


class _Version:
    """A stack's version, its top link, compared by identity: a parser
    that leaves an equal but fresh link has still changed the stack."""

    __slots__ = ("top",)

    def __init__(self, top):
        self.top = top

    def __eq__(self, other):
        return self.top is other.top


def _observe(ctx):
    # The left-recursion seeds sit outside the trail, so they are compared
    # as a copy: failures and lookahead must leave them as found too.
    cells = (*ctx._cells, ctx.ast)
    versions = tuple(_Version(c.cell_snapshot()) if isinstance(c, StackState)
                     else c.cell_snapshot() for c in cells)
    return (ctx.position, versions, dict(ctx.seeds))


class Counting(Parser):
    """Runs its child and counts the calls, by position; states no FIRST
    set.  A frozen copy shares the list with the original."""

    def __init__(self, child):
        self.children = (child,)
        self.calls = []

    def parse(self, ctx):
        self.calls.append(ctx.position)
        return self.children[0].parse(ctx)


class Checked(Parser):
    """Transparent wrapper asserting the transaction contract.

    Every failure must leave the observable aggregate state exactly as it
    was on entry; parsers flagged ``neutral`` (lookahead) must leave it
    untouched on success as well.
    """

    tally = 0
    neutral_tally = 0

    def __init__(self, child: Parser, neutral: bool = False):
        self.children = (child,)
        self.neutral = neutral

    def parse(self, ctx):
        before = _observe(ctx)
        r = self.children[0].parse(ctx)
        Checked.tally += 1
        if self.neutral:
            Checked.neutral_tally += 1
        if not r and _observe(ctx) != before:
            raise TransactionViolation(
                f"failure of {self.children[0]!r} mutated state")
        if r and self.neutral and _observe(ctx) != before:
            raise TransactionViolation(
                f"lookahead {self.children[0]!r} leaked state")
        return r


def _bump(ctx):
    cell = ctx.state(FuzzCounter)
    cell.set("n", cell.get("n") + 1)


def _spush(value):
    return lambda ctx: ctx.state(FuzzStack).push(value)


def _apush(value):
    return lambda ctx: ctx.ast.push(value)


def _mput(key):
    return lambda ctx: ctx.state(FuzzMap).put(("fuzz", key), key)


def _counter_even(ctx):
    return ctx.state(FuzzCounter).get("n") % 2 == 0


def _position_even(ctx):
    return ctx.position % 2 == 0


def _consuming_terminal(rng):
    return rng.choice([
        lambda: char_pred(str.isdigit, "digit"),
        lambda: char_pred(str.isalpha, "letter"),
        lambda: char_pred(lambda c: c == "a", "'a'"),
        lambda: literal("a"),
        lambda: literal("ab"),
        lambda: literal("1"),
        lambda: word("b"),
    ])()


def _effect_leaf(rng):
    return perform(rng.choice([
        _bump,
        _spush(rng.randrange(8)),
        _apush(rng.randrange(8)),
        _mput(rng.randrange(8)),
    ]))


def _gen_leftrec(rng, depth, wrap):
    base = _gen_consuming(rng, depth, wrap)
    suffix = _gen_consuming(rng, depth, wrap)
    self_ref = RuleRef("self")
    body = wrap(choice(
        wrap(seq(wrap(self_ref), suffix, _effect_leaf(rng))),
        base,
    ))
    node = wrap(leftrec(body))
    self_ref.target = node
    return node


def _gen_plain_consuming(rng, depth, wrap):
    """Consuming and AST-silent: pushes nothing, so it can sit under
    combinators that demand an exact push count."""
    if depth <= 0:
        return wrap(_consuming_terminal(rng))
    pick = rng.randrange(4)
    if pick == 0:
        return wrap(seq(_gen_plain_consuming(rng, depth - 1, wrap),
                        _gen_plain_consuming(rng, depth - 1, wrap)))
    if pick == 1:
        return wrap(choice(_gen_plain_consuming(rng, depth - 1, wrap),
                           _gen_plain_consuming(rng, depth - 1, wrap)))
    if pick == 2:
        return wrap(one_more(_gen_plain_consuming(rng, depth - 1, wrap)))
    return wrap(_consuming_terminal(rng))


def _gen_consuming(rng, depth, wrap):
    """A parser that always moves the position when it succeeds; safe as
    a repetition body."""
    if depth <= 0:
        return wrap(_consuming_terminal(rng))
    pick = rng.randrange(8)
    if pick == 0:
        return wrap(seq(_gen_consuming(rng, depth - 1, wrap),
                        _gen_any(rng, depth - 1, wrap)))
    if pick == 1:
        return wrap(choice(_gen_consuming(rng, depth - 1, wrap),
                           _gen_consuming(rng, depth - 1, wrap)))
    if pick == 2:
        return wrap(capture(_gen_consuming(rng, depth - 1, wrap)))
    if pick == 3:
        return wrap(one_more(_gen_consuming(rng, depth - 1, wrap)))
    if pick == 4:
        return wrap(until(_gen_consuming(rng, depth - 1, wrap),
                          _gen_consuming(rng, depth - 1, wrap)))
    if pick == 5:
        return wrap(build(capture(_gen_consuming(rng, depth - 1, wrap)),
                          1, node("fz")))
    if pick == 6 and depth >= 2:
        return _gen_leftrec(rng, depth - 1, wrap)
    return wrap(_consuming_terminal(rng))


def _gen_any(rng, depth, wrap):
    if depth <= 0:
        if rng.random() < 0.5:
            return wrap(_consuming_terminal(rng))
        return wrap(rng.choice([
            lambda: _effect_leaf(rng),
            lambda: predicate(_counter_even, "even counter"),
            lambda: predicate(_position_even, "even position"),
            lambda: whitespace(),
            lambda: end_of_input(),
        ])())
    pick = rng.randrange(12)
    if pick == 0:
        return wrap(seq(*[_gen_any(rng, depth - 1, wrap)
                          for _ in range(rng.randrange(2, 4))]))
    if pick == 1:
        return wrap(choice(*[_gen_any(rng, depth - 1, wrap)
                             for _ in range(rng.randrange(2, 4))]))
    if pick == 2:
        return wrap(opt(_gen_any(rng, depth - 1, wrap)))
    if pick == 3:
        return wrap(zero_more(_gen_consuming(rng, depth - 1, wrap)))
    if pick == 4:
        return wrap(one_more(_gen_consuming(rng, depth - 1, wrap)))
    if pick == 5:
        return wrap(until(_gen_consuming(rng, depth - 1, wrap),
                          _gen_any(rng, depth - 1, wrap)))
    if pick == 6:
        return wrap(Ahead(_gen_any(rng, depth - 1, wrap)), neutral=True)
    if pick == 7:
        return wrap(Not(_gen_any(rng, depth - 1, wrap)), neutral=True)
    if pick == 8:
        return wrap(collect(_gen_any(rng, depth - 1, wrap)))
    if pick == 9:
        return wrap(opt_value(build(
            capture(_gen_plain_consuming(rng, depth - 1, wrap)),
            1, node("fz"))))
    if pick == 10 and depth >= 2:
        return _gen_leftrec(rng, depth - 1, wrap)
    return _gen_consuming(rng, depth, wrap)


def _gen_input(rng, max_len):
    n = rng.randrange(max_len + 1)
    return "".join(rng.choice("aab1b2 \n") for _ in range(n))


def fuzz_transactionality(trees=10500, max_depth=6, max_input=32,
                          seed=20260822) -> dict:
    """Random combinator trees over random inputs, with every node
    wrapped in :class:`Checked`.

    Raises :class:`TransactionViolation` on the first contract break;
    otherwise returns run statistics.
    """
    rng = random.Random(seed)
    wrap = Checked
    Checked.tally = 0
    Checked.neutral_tally = 0
    outcomes = {"success": 0, "failure": 0}
    for _ in range(trees):
        root = _gen_any(rng, max_depth, wrap)
        ctx = ParseContext(_gen_input(rng, max_input),
                           cells=[FuzzCounter(), FuzzStack(), FuzzMap()])
        r = root.parse(ctx)
        outcomes["success" if r else "failure"] += 1
    return {
        "trees": trees,
        "checks": Checked.tally,
        "lookahead_checks": Checked.neutral_tally,
        **outcomes,
    }

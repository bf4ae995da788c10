"""Random grammars parse alike frozen as usual and frozen plain.

Every freeze-time rewrite, the sharing of equal subgraphs and each
class's ``specialise``, must leave the outcome of every parse as it is
under ``freeze(specialise=False)``.  The bundled grammars check that in
``test_freeze_differential.py``; here each Hypothesis example seeds the
drawing of a small grammar of ``literal``, ``char_pred``, ``seq``,
``choice``, ``ahead``, ``not_``, ``opt``, ``zero_more``, ``one_more``,
``capture``, ``leftrec`` and rule references, nested up to four deep, and
of short inputs over a small alphabet; every rule is tried as the root.
The leaves come from a small shared pool, and a rule may repeat an
earlier rule's body, so equal subtrees and equal rule bodies recur and the
shared graph differs from the plain one.

A second arm draws the grammars the same way and then swaps some leaves
for state: a leaf followed by a push of its last character onto a
registered ``StackState``, or a leaf preceded by a ``predicate`` on the
top of that stack.  A rollback that leaves a push behind, or takes back
too much, then changes what a later test sees or what the cell holds
when the parse ends, and the arm compares that too.

A third arm keeps only the grammars of the second that both freezes
refuse for a left-call cycle without a ``leftrec``: it wraps the cycle's
first rule in one and freezes again, so the left recursion that the
other arms drop is compared too.

Three things excuse a pair: a grammar whose left recursion is not
annotated fails both freezes alike, and the third arm annotates it; an
input on which the plain run raises ``ContractViolationError`` is
skipped, since a frozen grammar may skip the parser that raises
(:meth:`txpeg.core.Parser.first`); and so is one whose plain run takes
more than ``BUDGET`` transaction operations, as nested left recursion
can take exponential time.  The frozen run does
a subset of the plain run's work, so it needs no budget of its own.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txpeg.cli import ast_to_data
from txpeg.combinators import (
    ahead, capture, char_pred, choice, literal, not_, one_more, opt, perform, predicate,
    seq, zero_more,
)
from txpeg.core import ConfigurationError, ContractViolationError
from txpeg.grammar import FrozenGrammar, GrammarDef, ref, run_parse
from txpeg.leftrec import leftrec
from txpeg.states import StackState


def _is_a(c: str) -> bool:
    return c == "a"


NAMES = ("r0", "r1", "r2")
LITERALS = ("a", "b", "ab", "ba")
PREDICATES = ((_is_a, "'a'"), (str.isalpha, "letter"), (str.isdigit, "digit"))
LEAVES = ([("literal", s) for s in LITERALS]
          + [("char_pred", i) for i in range(len(PREDICATES))]
          + [("ref", name) for name in NAMES])
UNARY = {"ahead": ahead, "not_": not_, "opt": opt, "zero_more": zero_more,
         "one_more": one_more, "leftrec": leftrec}
NARY = {"seq": seq, "choice": choice}
TOKENS = ("a", "b", "ab", "1", "é")
INPUTS = 6                  # per grammar and root
BUDGET = 2000               # transaction operations per plain run


class Pushed(StackState):
    """The state arm's cell: the last characters of the leaves that push."""


def _push_last(ctx) -> None:
    ctx.state(Pushed).push(ctx.text[ctx.position - 1])


# What the state arm's tests of the top expect; None is an empty cell.
TOP_VALUES = (None, "a", "b")
TOPS = {c: (lambda ctx, c=c: ctx.state(Pushed).peek() == c) for c in TOP_VALUES}


def _top_message(ctx) -> str:
    return f"top is {ctx.state(Pushed).peek()!r}"


def random_spec(rng: random.Random, depth: int) -> tuple:
    """A parser description nested at most ``depth`` deep, as tuples."""
    pick = rng.randrange(4) if depth else 0
    if pick == 0:
        return rng.choice(LEAVES)
    if pick == 1:
        return (rng.choice(sorted(NARY)),
                tuple(random_spec(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if pick == 2:
        return rng.choice(sorted(UNARY)), random_spec(rng, depth - 1)
    return "capture", (random_spec(rng, depth - 1), rng.choice(LITERALS))


def random_rule(rng: random.Random) -> tuple:
    """A rule body: a random description, or one of the shapes behind
    past differences.  Those are a left-recursive call of a rule, and a
    successful lookahead over a choice, with more to parse behind it."""
    pick = rng.randrange(3)
    if pick == 0:
        return random_spec(rng, 4)
    if pick == 1:
        call = ("seq", (("ref", rng.choice(NAMES)), random_spec(rng, 2)))
        return "leftrec", ("choice", (call, random_spec(rng, 2)))
    probe = ("seq", (rng.choice(LEAVES),
                     ("choice", (random_spec(rng, 1), random_spec(rng, 1)))))
    return "seq", (("ahead", probe), random_spec(rng, 1))


def random_grammar(rng: random.Random) -> dict:
    """Rule name -> description; each rule after the first may take the
    body of an earlier one."""
    specs: dict = {}
    for i, name in enumerate(NAMES):
        reuse = rng.randint(0, i)
        specs[name] = specs[NAMES[reuse]] if reuse < i else random_rule(rng)
    return specs


def build(spec):
    """Fresh parser objects for a description: equal descriptions give
    equal subgraphs, never the same objects."""
    kind, arg = spec
    if kind == "literal":
        return literal(arg)
    if kind == "char_pred":
        return char_pred(*PREDICATES[arg])
    if kind == "ref":
        return ref(arg)
    if kind == "push":
        # After consumed input, as a capture, so a repetition of it ends.
        return seq(build(arg), perform(_push_last))
    if kind == "top_is":
        top, leaf = arg
        return seq(predicate(TOPS[top], _top_message), build(leaf))
    if kind == "capture":
        # A capture that can match empty inside a repetition is refused
        # with a ContractViolationError, and only where the repetition
        # calls it: a frozen choice may skip what a plain one calls, so the
        # freezes could not be compared.  So a capture ends with a literal.
        return capture(seq(build(arg[0]), literal(arg[1])))
    if kind in NARY:
        return NARY[kind](*map(build, arg))
    return UNARY[kind](build(arg))


def with_state(specs: dict, rng: random.Random) -> dict:
    """The rules with each ``literal`` and ``char_pred`` leaf, as ``rng``
    draws, kept, followed by a push of its last character onto
    :class:`Pushed`, or preceded by a test of the top.  A rule that
    repeats an earlier body repeats its swap too."""
    def swap(spec):
        kind, arg = spec
        if kind in ("literal", "char_pred"):
            pick = rng.randrange(3)
            if pick == 0:
                return "push", spec
            if pick == 1:
                return "top_is", (rng.choice(TOP_VALUES), spec)
            return spec
        if kind == "ref":
            return spec
        if kind in NARY:
            return kind, tuple(map(swap, arg))
        if kind == "capture":
            return kind, (swap(arg[0]), arg[1])
        return kind, swap(arg)

    swapped: dict = {}
    for spec in specs.values():
        if id(spec) not in swapped:
            swapped[id(spec)] = swap(spec)
    return {name: swapped[id(spec)] for name, spec in specs.items()}


def freeze_both(specs: dict):
    """(frozen, plain) grammars of fresh objects, or None when both
    freezes refuse the grammar."""
    frozen = []
    for specialise in (True, False):
        rules = {name: build(spec) for name, spec in specs.items()}
        try:
            frozen.append(GrammarDef(rules, NAMES[0]).freeze(specialise=specialise))
        except ConfigurationError:
            frozen.append(None)
    if None in frozen:
        assert frozen == [None, None], specs
        return None
    return frozen


class OverBudget(Exception):
    pass


def outcome(grammar, text: str, budget=None) -> tuple:
    trace = None
    if budget is not None:
        ops = iter(range(budget))

        def trace(line):
            if next(ops, None) is None:
                raise OverBudget
    r = run_parse(grammar, text, trace=trace)
    error = None if r.error is None else (r.error.position, r.error.message)
    ast = None if r.ast is None else json.dumps(ast_to_data(r.ast))
    return r.success, r.end_position, error, ast


def rooted(grammar, root: str) -> FrozenGrammar:
    return FrozenGrammar(grammar.rules, root, grammar.whitespace, grammar.cell_factories)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_grammars_parse_alike_frozen_and_plain(seed):
    rng = random.Random(seed)
    specs = random_grammar(rng)
    grammars = freeze_both(specs)
    if grammars is None:
        return
    for root in NAMES:
        frozen, plain = (rooted(g, root) for g in grammars)
        for _ in range(INPUTS):
            text = "".join(rng.choice(TOKENS) for _ in range(rng.randrange(6)))
            try:
                want = outcome(plain, text, BUDGET)
            except (ContractViolationError, OverBudget):
                continue
            assert outcome(frozen, text) == want, (specs, root, text)


def state_outcome(grammar, text: str, budget=None) -> tuple:
    """:func:`outcome`, and what the parse left on its :class:`Pushed`."""
    cell = Pushed()
    grammar = FrozenGrammar(grammar.rules, grammar.root, grammar.whitespace,
                            (lambda: cell,))
    return outcome(grammar, text, budget), cell.values()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_grammars_with_state_parse_alike_frozen_and_plain(seed):
    # A push that a failed parser leaves behind, or takes back too far,
    # changes what a later test of the top sees, or what the parse leaves.
    rng = random.Random(seed)
    specs = with_state(random_grammar(rng), rng)
    grammars = freeze_both(specs)
    if grammars is None:
        return
    for root in NAMES:
        frozen, plain = (rooted(g, root) for g in grammars)
        for _ in range(INPUTS):
            text = "".join(rng.choice(TOKENS) for _ in range(rng.randrange(6)))
            try:
                want = state_outcome(plain, text, BUDGET)
            except (ContractViolationError, OverBudget):
                continue
            assert state_outcome(frozen, text) == want, (specs, root, text)


def annotated(specs: dict):
    """(specs, frozen, plain) for refused rules made to freeze: each time
    both freezes refuse a left-call cycle, the body of the first rule its
    message names, and of every rule that shares that body, is wrapped in
    ``leftrec``, at most three times; None if they still refuse."""
    for wraps in range(4):
        rules = {name: build(spec) for name, spec in specs.items()}
        try:
            GrammarDef(rules, NAMES[0]).freeze()
        except ConfigurationError as err:
            first = str(err).partition(": ")[2].split(" -> ")[0]
        else:
            return specs, *freeze_both(specs)
        if wraps == 3 or first not in specs:
            return None
        body = specs[first]
        wrapped = ("leftrec", body)
        specs = {name: wrapped if spec is body else spec for name, spec in specs.items()}


def without_message(state: tuple) -> tuple:
    """A :func:`state_outcome` with the error's message dropped."""
    (success, end, error, ast), pushed = state
    return (success, end, error and error[0], ast), pushed


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_grammars_with_annotated_cycles_parse_alike_frozen_and_plain(seed):
    """The stateful arm's grammars that both freezes refuse, with their
    cycles annotated (:func:`annotated`).  The error message is not
    compared, only its position: where a frozen ``opt`` skips a child by
    its FIRST set, a blocked left-recursive call can record its message
    where the plain run keeps the skipped child's
    (``test_failure_record.py`` pins it as a strict xfail)."""
    rng = random.Random(seed)
    specs = with_state(random_grammar(rng), rng)
    if freeze_both(specs) is not None:
        return
    got = annotated(specs)
    if got is None:
        return
    specs, *grammars = got
    for root in NAMES:
        frozen, plain = (rooted(g, root) for g in grammars)
        for _ in range(INPUTS):
            text = "".join(rng.choice(TOKENS) for _ in range(rng.randrange(6)))
            try:
                want = state_outcome(plain, text, BUDGET)
            except (ContractViolationError, OverBudget):
                continue
            assert without_message(state_outcome(frozen, text)) == without_message(want), (
                specs, root, text)


def test_a_successful_lookahead_keeps_no_failure_a_skipped_choice_would_record():
    # Plain, the choice tries ``b`` at offset 1 before ``a`` matches; frozen,
    # it skips ``b`` there.  Either way the error is where ``b`` fails, at 0.
    specs = {name: ("seq", (("ahead", ("seq", (("literal", "a"),
                                              ("choice", (("literal", "b"),
                                                          ("literal", "a")))))),
                            ("literal", "b")))
             for name in NAMES}
    frozen, plain = freeze_both(specs)
    assert outcome(frozen, "aa") == outcome(plain, "aa") == (
        False, 0, (0, "expected 'b'"), None)


def test_both_freezes_name_a_cycle_from_the_same_rule():
    # Seed 228 draws r0 and r1 with one body, which the specialised freeze
    # shares, and r1 -> r2 -> r1 as its only left-call cycle: the two
    # graphs order their nodes differently, and both must start the name
    # at r1, the cycle's first rule in grammar order.
    specs = random_grammar(random.Random(228))
    messages = set()
    for specialise in (True, False):
        rules = {name: build(spec) for name, spec in specs.items()}
        with pytest.raises(ConfigurationError) as err:
            GrammarDef(rules, NAMES[0]).freeze(specialise=specialise)
        messages.add(str(err.value))
    assert messages == {"left-recursive cycle without a leftrec annotation: r1 -> r2 -> r1"}

"""The furthest-failure record: a failure returns ``False`` and allocates
nothing, and a message built from the parse state is built only for a
failure that the record takes."""

from pathlib import Path

import pytest

from txpeg.combinators import choice, literal, not_, opt, perform, predicate, seq
from txpeg.core import ContractViolationError, ParseContext, Parser
from txpeg.demos.examply import examply_cells, examply_rules
from txpeg.demos.indent import IndentStack, dedent, indent
from txpeg.demos.smoke import RunTally, TagStack, anbncn_rules, tags_rules
from txpeg.grammar import GrammarDef, ref, run_parse
from txpeg.leftrec import leftrec
from txpeg.states import StackState

FIXTURE = Path(__file__).parent.parent / "fixtures" / "examply" / "accept" / "ctor_anon_body.examply"

# name -> (rules, root, cells, an input the grammar accepts)
ACCEPTED = {
    "tags": (tags_rules, "element", (TagStack,), "<a><bc></bc><d><e></e></d></a>"),
    "anbncn": (anbncn_rules, "balanced", (RunTally,), "aaaabbbbcccc"),
    "examply": (examply_rules, "program", examply_cells(), FIXTURE.read_text()),
}


@pytest.mark.parametrize("specialise", [True, False], ids=["frozen", "plain"])
@pytest.mark.parametrize("name", ACCEPTED)
def test_a_successful_parse_builds_no_failure(name, specialise, monkeypatch):
    rules, root, cells, text = ACCEPTED[name]
    grammar = GrammarDef(rules(), root, cells=cells).freeze(specialise=specialise)
    built = []
    _count_message_builds(built, monkeypatch)
    assert run_parse(grammar, text).success
    assert built == []
    # The count works: reading the record builds its parser's message.
    ctx = ParseContext(text)
    ctx.fail(0, literal("x"))
    assert ctx.furthest_failure() == (0, "expected 'x'") and len(built) == 1


def _count_message_builds(built, monkeypatch):
    """Append to ``built`` each time a failure's message is built: a call
    of any parser class's ``expected``."""
    todo = [Parser]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if "expected" in vars(cls):
            monkeypatch.setattr(cls, "expected", _counted(vars(cls)["expected"], built))


def _counted(build, built):
    def counted(*args):
        built.append(build)
        return build(*args)
    return counted


class Marks(StackState):
    pass


def test_a_predicate_builds_its_message_once_and_only_when_recorded():
    marks = Marks()
    calls = []

    def message(ctx):
        calls.append((ctx.position, marks.values()))
        return "not here"

    check = seq(perform(lambda c: marks.push("in")), predicate(lambda c: False, message))
    ctx = ParseContext("ab", cells=[marks])
    # Muted, by hand or under not_: never called.
    ctx.muted += 1
    assert check.parse(ctx) is False
    ctx.muted -= 1
    assert not_(check).parse(ctx)
    assert calls == [] and ctx.furthest_failure() is None
    # Behind the record: never called.
    ctx.fail(1, "further on")
    assert check.parse(ctx) is False
    assert calls == [] and ctx.furthest_failure() == (1, "further on")
    # Taken by the record: called once, while the seq's push is in place.
    ctx.position = 1
    assert check.parse(ctx) is False
    assert calls == [(1, ["in"])]
    assert (ctx.position, marks.values()) == (1, [])
    assert ctx.furthest_failure() == (1, "not here")
    assert ctx.furthest_failure() == (1, "not here")
    assert calls == [(1, ["in"])]


class Width(int):
    """A block width that counts how often a message formats it."""

    formatted: list

    def __format__(self, spec):
        self.formatted.append(int(self))
        return int.__format__(self, spec)


@pytest.mark.parametrize("check, sign", [(indent(), ">"), (dedent(), "<")],
                         ids=["indent", "dedent"])
def test_indent_and_dedent_build_their_message_only_when_recorded(check, sign):
    # Both lines are 4 deep, so neither check passes on either line.
    ctx = ParseContext("    a\n    b\n", cells=[IndentStack()])
    width = Width(4)
    width.formatted = []
    ctx.state(IndentStack).push(width)
    ctx.muted += 1
    assert check.parse(ctx) is False
    ctx.muted -= 1
    assert not_(check).parse(ctx)
    ctx.fail(3, "further on")
    assert check.parse(ctx) is False
    assert width.formatted == [] and ctx.furthest_failure() == (3, "further on")
    ctx.position = 6
    assert check.parse(ctx) is False
    assert width.formatted == [4]
    assert ctx.furthest_failure() == (6, f"expecting indentation {sign} 4 positions")
    assert ctx.state(IndentStack).peek() == 4 and width.formatted == [4]


@pytest.mark.parametrize("specialise", [True, False], ids=["frozen", "plain"])
def test_a_blocked_left_recursive_call_is_reported_when_nothing_was_recorded(specialise):
    rules = {"a": leftrec(seq(ref("a"), literal("x")))}
    grammar = GrammarDef(rules, "a").freeze(specialise=specialise)
    error = run_parse(grammar, "x").error
    assert (error.line, error.column, error.message) == (
        1, 1, "left-recursive invocation blocked")


# A left-recursive rule entered after a "b", where its blocked call lies
# past every failure recorded so far.
BLOCKED_AFTER_B = {"a": leftrec(seq(ref("a"), literal("x")))}


@pytest.mark.parametrize("specialise", [True, False], ids=["frozen", "plain"])
def test_a_blocked_left_recursive_call_past_the_record_is_reported(specialise):
    rules = dict(BLOCKED_AFTER_B, s=choice(seq(literal("b"), ref("a")), literal("q")))
    grammar = GrammarDef(rules, "s").freeze(specialise=specialise)
    error = run_parse(grammar, "bz").error
    assert (error.line, error.column, error.message) == (
        1, 2, "left-recursive invocation blocked")


@pytest.mark.parametrize("specialise", [True, False], ids=["frozen", "plain"])
def test_a_blocked_left_recursive_call_keeps_a_record_at_its_position(specialise):
    rules = dict(BLOCKED_AFTER_B, s=choice(seq(literal("b"), literal("q")),
                                           seq(literal("b"), ref("a"))))
    grammar = GrammarDef(rules, "s").freeze(specialise=specialise)
    error = run_parse(grammar, "bz").error
    assert (error.line, error.column, error.message) == (1, 2, "expected 'q'")


@pytest.mark.xfail(strict=True, reason=(
    "a blocked left-recursive call is recorded only behind the record, so "
    "the failure of a child that a frozen opt skips by its FIRST set no "
    "longer keeps it out (CHANGES.md, FOUND: on LeftRec's blocked call)"))
def test_a_blocked_call_behind_a_skipped_opt_reports_alike_frozen_and_plain():
    # Plain, the opt records "expected 'ba'" at 0 before the blocked call;
    # frozen, it skips "ba" at "a", and the blocked call is recorded there.
    rules = {"r": leftrec(seq(opt(literal("ba")), ref("r"), literal("x")))}
    messages = {run_parse(GrammarDef(rules, "r").freeze(specialise=specialise),
                          "a").error.message
                for specialise in (True, False)}
    assert len(messages) == 1, messages


class Unrecorded(Parser):
    """Returns False without recording its failure, against the protocol."""

    def parse(self, ctx):
        return False


def test_a_parse_that_fails_with_nothing_recorded_raises():
    grammar = GrammarDef({"top": Unrecorded()}, "top").freeze()
    with pytest.raises(ContractViolationError, match="without recording a failure"):
        run_parse(grammar, "x")

"""Grammar assembly: reference resolution, freezing, and the driver."""

import gc
import re
import weakref
from dataclasses import dataclass

import pytest

from txpeg.combinators import (
    AstStack, build, capture, char_pred, choice, literal, node, perform, seq, word,
    zero_more,
)
from txpeg.core import (
    ConfigurationError, ContractViolationError, ParseContext, Parser,
)
from txpeg.demos.examply import examply_cells, examply_grammar
from txpeg.demos.expr import expr_grammar, expr_rules
from txpeg.demos.macro import composed_grammar, composed_rules, macro_grammar, macro_rules
from txpeg.demos.smoke import TagStack, anbncn_grammar, tags_grammar, tags_rules
from txpeg.grammar import FrozenGrammar, GrammarDef, RuleRef, line_col, ref, run_parse
from txpeg.leftrec import leftrec
from txpeg.states import BOTTOM, CopyState


def test_refs_resolve_and_parse():
    rules = {
        "top": seq(ref("a"), ref("b")),
        "a": capture(literal("x")),
        "b": capture(literal("y")),
    }
    grammar = GrammarDef(rules, "top").freeze()
    outcome = run_parse(grammar, "xy")
    assert outcome.success
    assert outcome.ast == ["x", "y"]
    assert outcome.end_position == 2


def test_missing_rule_is_configuration_error():
    rules = {"top": seq(ref("nope"))}
    with pytest.raises(ConfigurationError) as info:
        GrammarDef(rules, "top").freeze()
    assert "nope" in str(info.value)
    assert "top" in str(info.value)  # defined-rule listing


def test_missing_root_is_configuration_error():
    with pytest.raises(ConfigurationError):
        GrammarDef({"a": literal("x")}, "root").freeze()


def test_unfrozen_ref_refuses_to_parse():
    rules = {"top": ref("top")}  # never frozen
    grammar_less = rules["top"]
    from txpeg.core import ParseContext
    with pytest.raises(ContractViolationError):
        grammar_less.parse(ParseContext("x"))


def test_freeze_twice_is_harmless():
    rules = {"top": seq(ref("a")), "a": literal("x")}
    gdef = GrammarDef(rules, "top")
    first = gdef.freeze()
    second = gdef.freeze()
    assert first.root_parser is not second.root_parser
    assert run_parse(first, "x").success
    assert run_parse(second, "x").success


def test_freezing_a_composition_leaves_an_earlier_grammar_working():
    guest = macro_rules()
    alone = GrammarDef(guest, "macro_file").freeze()
    GrammarDef(composed_rules(guest=guest), "program",
               cells=examply_cells()).freeze()
    outcome = run_parse(alone, "macro m = a b\n")
    assert outcome.success
    assert outcome.ast[0].kind == "macro"


def test_freeze_leaves_the_rule_objects_unbound():
    gdef = GrammarDef(composed_rules(), "program", cells=examply_cells())
    gdef.freeze()
    seen: set = set()
    refs = []
    stack = list(gdef.rules.values())
    while stack:
        p = stack.pop()
        if id(p) in seen:
            continue
        seen.add(id(p))
        if isinstance(p, RuleRef):
            refs.append(p)
        stack.extend(p.children)
    assert refs
    assert all(r.target is None for r in refs)


@pytest.mark.parametrize("rules", [
    {"a": choice(ref("b"), literal("x")), "b": ref("a")},
    {"a": choice(seq(ref("b"), literal("x")), literal("a")),
     "b": choice(seq(ref("a"), literal("y")), literal("b"))},
])
def test_cycle_diagnostic_names_only_rules(rules):
    with pytest.raises(ConfigurationError) as info:
        GrammarDef(rules, "a").freeze()
    message = str(info.value)
    assert "ref(" not in message
    cycle = message.split(": ", 1)[1].split(" -> ")
    assert set(cycle) == {"a", "b"}


@dataclass
class Text(Parser):
    """Matches its text.  As a dataclass it compares by value, and so has
    no hash."""

    text: str

    def parse(self, ctx):
        if not ctx.text.startswith(self.text, ctx.position):
            return ctx.fail(ctx.position, f"expected {self.text!r}")
        ctx.position += len(self.text)
        return True

    def nullable(self, child_nullable) -> bool:
        return not self.text


def test_a_parser_that_compares_by_value_freezes_both_ways():
    # The choice has a FIRST set to dispatch on, from its captures, and
    # keeps the Text children at every character, since their sets are
    # unknown.
    rules = {"top": seq(
        choice(Text("ab"), capture(literal("c")), Text("d"), capture(literal("e"))),
        Text("!"),
    )}
    frozen = [GrammarDef(rules, "top").freeze(specialise=s) for s in (True, False)]
    for text in ["ab!", "c!", "d!", "e!", "x!", "ab", "c", ""]:
        specialised, plain = (run_parse(g, text) for g in frozen)
        assert ((specialised.success, specialised.ast, specialised.end_position,
                 specialised.error)
                == (plain.success, plain.ast, plain.end_position, plain.error)), text
    assert run_parse(frozen[0], "c!").ast == ["c"]


@pytest.mark.parametrize("specialise", [True, False], ids=["specialised", "plain"])
@pytest.mark.parametrize("rules, shown", [
    ({"top": seq(literal("a"), "b")}, "'b' of type str"),
    ({"top": seq(literal("a"), ref("b")), "b": None}, "None of type NoneType"),
], ids=["str", "none"])
def test_a_value_that_is_not_a_parser_is_a_configuration_error(rules, shown,
                                                              specialise):
    with pytest.raises(ConfigurationError) as info:
        GrammarDef(rules, "top").freeze(specialise=specialise)
    assert str(info.value) == f"grammar holds {shown}, not a Parser"


class AnyChar(Parser):
    """One character of anything; keeps the default nullability."""

    def parse(self, ctx):
        if ctx.position >= ctx.input_length:
            return ctx.fail(ctx.position, "expected a character")
        ctx.position += 1
        return True


class ConsumingAnyChar(AnyChar):
    def nullable(self, child_nullable) -> bool:
        return False


def test_class_nullable_hook_decides_the_recursion_check():
    def rules(prefix):
        return {"expr": choice(seq(prefix, ref("expr")), literal("."))}

    grammar = GrammarDef(rules(ConsumingAnyChar()), "expr").freeze()
    assert run_parse(grammar, "ab.").success
    # The default says a childless parser may consume nothing, so the
    # same grammar has an unannotated left call.
    with pytest.raises(ConfigurationError):
        GrammarDef(rules(AnyChar()), "expr").freeze()


def test_full_match_required_by_default():
    grammar = GrammarDef({"top": literal("ab")}, "top").freeze()
    outcome = run_parse(grammar, "abc")
    assert not outcome.success
    assert outcome.error.message == "expected end of input"
    assert (outcome.error.line, outcome.error.column) == (1, 3)


def test_partial_match_allowed_on_request():
    grammar = GrammarDef({"top": literal("ab")}, "top").freeze()
    outcome = run_parse(grammar, "abc", partial=True)
    assert outcome.success
    assert outcome.end_position == 2


def test_error_location_is_one_based_across_lines():
    grammar = GrammarDef(
        {"top": seq(literal("ab\n"), literal("cd\n"), literal("ef\n"))},
        "top",
    ).freeze()
    outcome = run_parse(grammar, "ab\ncd\nxf\n")
    assert not outcome.success
    assert outcome.error.position == 6
    assert (outcome.error.line, outcome.error.column) == (3, 1)


def test_line_col_mapping():
    text = "ab\ncd"
    assert line_col(text, 0) == (1, 1)
    assert line_col(text, 2) == (1, 3)
    assert line_col(text, 3) == (2, 1)
    assert line_col(text, 5) == (2, 3)
    assert line_col("", 0) == (1, 1)


def test_leading_whitespace_consumed():
    grammar = GrammarDef({"top": word("hi")}, "top").freeze()
    outcome = run_parse(grammar, "   hi  ")
    assert outcome.success


def test_custom_whitespace_respected():
    # Spaces only: newlines are significant and must be matched explicitly.
    spaces = zero_more(char_pred(lambda c: c == " ", "space"))
    rules = {"top": seq(word("a"), word("b"))}
    grammar = GrammarDef(rules, "top", whitespace=spaces).freeze()
    assert run_parse(grammar, "a  b").success
    assert not run_parse(grammar, "a\nb").success


class Counter(CopyState):
    def __init__(self):
        super().__init__(count=0)


def test_cells_fresh_per_parse():
    seen = []

    def probe_and_bump(ctx):
        cell = ctx.state(Counter)
        seen.append(cell.get("count"))
        cell.set("count", cell.get("count") + 1)

    rules = {"top": seq(perform(probe_and_bump), literal("x"))}
    grammar = GrammarDef(rules, "top", cells=(Counter,)).freeze()
    assert run_parse(grammar, "x").success
    assert run_parse(grammar, "x").success
    # Each parse built its own cell: the counter never carries over.
    assert seen == [0, 0]


def test_trace_reaches_context():
    lines = []
    grammar = GrammarDef({"top": seq(literal("a"), literal("b"))}, "top").freeze()
    run_parse(grammar, "ab", trace=lines.append)
    assert any(line.startswith("snapshot") for line in lines)


def test_a_perform_after_the_left_call_sees_the_seed_in_force():
    # Each growth round re-enters "expression" on the seed of the round
    # before; the in-flight map holds that seed, not the blocked marker.
    seen = []
    rules = expr_rules()
    rules["expression"] = leftrec(choice(
        build(seq(ref("expression"),
                  perform(lambda ctx: seen.append(
                      [getattr(s, "end_position", "blocked")
                       for s in ctx.seeds.values()])),
                  word("-"), ref("number")), 2, node("sub")),
        ref("number"),
    ))
    outcome = run_parse(GrammarDef(rules, "expression").freeze(), "1-2-3")
    assert outcome.success
    assert seen == [[1], [3], [5]]


@pytest.mark.parametrize("text, ok", [("1-2-3", True), ("-", False)])
def test_no_seed_stays_in_flight_after_a_leftrec_parse(text, ok):
    ctx = ParseContext(text)
    assert expr_grammar().root_parser.parse(ctx) is ok
    assert ctx.seeds == {}


def test_trace_lines_of_a_leftrec_parse_list_only_the_ast_stack():
    lines: list = []
    assert run_parse(expr_grammar(), "1-2-3", trace=lines.append).success
    assert lines
    assert all(re.fullmatch(r"\w+ pos=\d+ AstStack\(depth=\d+\)", line)
               for line in lines)


def test_a_traced_leftrec_parse_runs_the_plain_diff_and_restore(monkeypatch):
    calls = []
    for op in ("diff", "restore"):
        def counted(self, snap, op=op, plain=getattr(ParseContext, op)):
            calls.append(op)
            return plain(self, snap)

        monkeypatch.setattr(ParseContext, op, counted)
    lines: list = []
    assert run_parse(expr_grammar(), "1-2-3", trace=lines.append).success
    traced = calls.copy()
    # Each growth round is a diff, then a restore, each traced once.
    for op in ("diff", "restore"):
        assert traced.count(op) == sum(line.startswith(op + " ") for line in lines)
    calls.clear()
    assert run_parse(expr_grammar(), "1-2-3").success
    assert 0 < calls.count("diff") == traced.count("diff")


def nested_tags(depth: int) -> str:
    return "<a>" * depth + "</a>" * depth


def nested_funs(depth: int) -> str:
    lines = ["    " * d + f"fun f{d}(): Int" for d in range(depth)]
    return "\n".join(lines + ["    " * depth + "val x: Int = 1"]) + "\n"


@pytest.mark.parametrize("grammar, text", [
    (tags_grammar, nested_tags(400)),
    (examply_grammar, nested_funs(80)),
], ids=["tags", "examply"])
def test_deep_nesting_fails_with_a_located_error(grammar, text):
    # Past Python's recursion limit: a failed outcome, not a RecursionError.
    outcome = run_parse(grammar(), text)
    assert not outcome.success
    err = outcome.error
    assert err.message == "input nests too deeply"
    assert 0 < err.position <= len(text)
    assert (err.line, err.column) == line_col(text, err.position)


@pytest.mark.parametrize("text, message", [
    (nested_tags(3), None),
    (nested_tags(3) + "x", "expected end of input"),
    (nested_tags(400), "input nests too deeply"),
], ids=["success", "failure", "too-deep"])
def test_a_finished_parse_frees_its_cells_by_reference_count(text, message):
    # A logging cell points at the trail, and the trail holds the cell, so
    # with the cycle collector off the cell dies only if run_parse breaks
    # that cycle.  Each input leaves entries on the trail when it ends.
    made = []

    def factory():
        cell = TagStack()
        made.append(weakref.ref(cell))
        return cell

    grammar = GrammarDef(tags_rules(), "element", cells=(factory,)).freeze()
    enabled = gc.isenabled()
    gc.disable()
    try:
        outcome = run_parse(grammar, text)
        assert [cell() for cell in made] == [None]
    finally:
        if enabled:
            gc.enable()
    assert (outcome.error and outcome.error.message) == message


class _SeesTheAstStack(Parser):
    """Succeeds at once, keeping the context it ran in; a frozen copy keeps
    it in the same list."""

    def __init__(self):
        self.seen = []

    def parse(self, ctx):
        self.seen.append(ctx)
        return True


@pytest.mark.parametrize("factory", [
    examply_grammar, expr_grammar, tags_grammar, anbncn_grammar, macro_grammar,
    composed_grammar,
])
def test_the_ast_attribute_is_the_registered_ast_stack(factory):
    grammar = factory()
    probe = _SeesTheAstStack()
    rules = {**grammar.rules, "probe": probe}
    run_parse(FrozenGrammar(rules, "probe", grammar.whitespace, grammar.cell_factories),
              "", partial=True)
    [ctx] = probe.seen
    assert ctx.ast is ctx.state(AstStack)


def test_registering_the_exact_ast_stack_is_a_duplicate():
    with pytest.raises(ConfigurationError, match="duplicate state cell class AstStack"):
        ParseContext("", [AstStack()])
    grammar = GrammarDef({"top": literal("")}, "top", cells=(AstStack,)).freeze()
    with pytest.raises(ConfigurationError, match="duplicate state cell class AstStack"):
        run_parse(grammar, "")


class _OwnAstStack(AstStack):
    pass


def test_a_registered_ast_stack_subclass_is_a_cell_of_its_own():
    probe = _SeesTheAstStack()
    run_parse(GrammarDef({"top": probe}, "top", cells=(_OwnAstStack,)).freeze(), "")
    [ctx] = probe.seen
    assert type(ctx.ast) is AstStack and ctx.ast is ctx.state(AstStack)
    assert ctx.state(_OwnAstStack) is not ctx.ast
    # The subclass logs on the trail, as any MonotonicStack does; the
    # context's own stack logs nothing.
    own = _OwnAstStack()
    ctx = ParseContext("", [own])
    snap = ctx.snapshot()
    own.push("a")
    assert ctx._trail == [own, BOTTOM]
    ctx.ast.push("b")
    assert len(ctx._trail) == 2
    ctx.restore(snap)
    assert (own.values(), ctx.ast.values(), ctx._trail) == ([], [], [])

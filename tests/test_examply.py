"""Indentation machinery, namespace machinery, and the language built
on top of them."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import token_outcomes
from support import column_after

from txpeg.combinators import (
    AstNode, Capture, Collect, perform, seq,
)
from txpeg.core import ConfigurationError, ContractViolationError, ParseContext
from txpeg.demos import indent as indent_module
from txpeg.demos.examply import examply_cells, examply_grammar, examply_rules
from txpeg.demos.indent import (
    IndentEntry,
    IndentStack,
    _width,
    aligned,
    build_indent_table,
    dedent,
    indent,
    newline,
)
from txpeg.demos.namespaces import (
    EnclosingClasses,
    TypeRecord,
    TypeStack,
    class_def,
    is_type,
    new_type,
    priv_of,
    scoped,
)
from txpeg.demos.macro import composed_rules
from txpeg.grammar import GrammarDef, ParseOutcome, run_parse
from txpeg.states import StackState


def fail_msg(ctx):
    """The message of the furthest failure recorded in ``ctx``."""
    return ctx.furthest_failure()[1]


# ---------------------------------------------------------------------------
# Indentation table.


def test_tab_expansion_matches_column_oracle():
    # Every space/tab prefix up to length 11.
    for n in range(12):
        for prefix in itertools.product(" \t", repeat=n):
            prefix = "".join(prefix)
            entries, _ = build_indent_table(prefix + "x")
            assert entries[0].count == column_after(prefix), prefix


def test_indent_table_shape():
    entries, starts = build_indent_table("a\n  b\n\tc\n")
    assert starts == [0, 2, 6, 9]
    assert entries[0] == IndentEntry(0, 0)
    assert entries[1] == IndentEntry(2, 4)
    assert entries[2] == IndentEntry(4, 7)
    # The empty final line after the trailing newline.
    assert entries[3] == IndentEntry(0, 9)


def _width_matches(text, pos, entry):
    # The width of the line holding pos, and whether its indentation ends
    # at the entry's end and nowhere else.
    count, end = entry
    got = (_width(text, pos), _width(text, pos, end), _width(text, pos, end + 1))
    return got == (count, count, -1)


def test_entry_lookup_spans_whole_lines():
    text = "  ab\n    cd\n"
    entries, _ = build_indent_table(text)
    assert entries == [IndentEntry(2, 2), IndentEntry(4, 9), IndentEntry(0, 12)]
    for offset in range(0, 5):
        assert _width_matches(text, offset, entries[0]), offset
    for offset in range(5, 12):
        assert _width_matches(text, offset, entries[1]), offset
    assert _width_matches(text, 12, entries[2])


def _random_indent_text(rng):
    # Lines of blanks and "x", some blank or with trailing blanks, an inner
    # NUL now and then, and a final newline only sometimes.
    lines = []
    for _ in range(rng.randrange(1, 8)):
        line = "".join(rng.choice(" \t") for _ in range(rng.randrange(0, 7)))
        if rng.random() < 0.7:
            line += "".join(rng.choice("x x\t\x00") for _ in range(rng.randrange(1, 5)))
        lines.append(line)
    return "\n".join(lines) + ("\n" if rng.random() < 0.5 else "")


def _table_oracle(parser_name, entries, text, pos, top):
    # What each check does with the reference table: (ok, stack after).
    entry = entries[text.count("\n", 0, pos)]
    at_end = pos >= len(text)
    if parser_name == "newline":
        return at_end or entry.end == pos, top
    if parser_name == "aligned":
        return at_end or (entry.end == pos and entry.count == (top or 0)), top
    if parser_name == "indent":
        ok = entry.count > (top or 0)
        return ok, entry.count if ok else top
    ok = at_end or entry.count < (top or 0)
    return ok, None if ok else top


def test_indentation_read_from_the_text_matches_the_reference_table():
    parsers = {"newline": newline(), "aligned": aligned(),
               "indent": indent(), "dedent": dedent()}
    rng = random.Random(24)
    for _ in range(300):
        text = _random_indent_text(rng)
        ctx = _indent_ctx(text)
        entries, _ = build_indent_table(ctx.text)
        stack = ctx.state(IndentStack)
        # Every offset, the end of input included.
        for pos in range(len(text) + 1):
            line = ctx.text.count("\n", 0, pos)
            assert _width_matches(ctx.text, pos, entries[line]), (text, pos)
            for top in (None, 1, 2, 4, 5, 8):
                for name, parser in parsers.items():
                    while stack.size:
                        stack.pop()
                    if top is not None:
                        stack.push(top)
                    ctx.position = pos
                    r = parser.parse(ctx)
                    want_ok, want_top = _table_oracle(name, entries, text, pos, top)
                    assert r is want_ok, (name, text, pos, top)
                    assert ctx.position == pos
                    if not r:
                        assert ctx.furthest_failure()[0] == pos
                    assert stack.peek() == want_top, (name, text, pos, top)


def test_an_examply_context_allocates_no_indent_table():
    text = "".join(" " * (i % 9) + "\t" * (i % 2) + f"x{i}\n" for i in range(10_000))
    cells = [factory() for factory in examply_cells()]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ctx = ParseContext(text, cells=cells)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # The context keeps the caller's text with no copy, and nothing is
    # built per line: the checks read each line's indentation from it.
    assert after - before < 1024
    assert ctx.text is text


def test_the_indent_map_name_is_the_stack():
    # The name survives for the bench tracer; registered beside the stack,
    # it is the same cell class, so the context refuses it.
    assert indent_module.IndentMap is IndentStack
    assert "IndentMap" not in indent_module.__all__
    with pytest.raises(ConfigurationError, match="duplicate state cell class IndentStack"):
        ParseContext("", cells=[indent_module.IndentMap(), IndentStack()])


def _indent_ctx(text):
    # No set-up parse: the checks read the indentation from the text.
    return ParseContext(text, cells=[IndentStack()])


def test_indent_pushes_only_deeper_lines():
    ctx = _indent_ctx("a\n    b\n")
    ctx.position = 6
    assert indent().parse(ctx)
    assert ctx.state(IndentStack).peek() == 4

    ctx.position = 0
    r = indent().parse(ctx)
    assert not r
    assert "indentation > 4" in fail_msg(ctx)


def test_dedent_pops_on_shallower_line_or_eof():
    ctx = _indent_ctx("    a\nb\n")
    ctx.state(IndentStack).push(4)
    ctx.position = 6
    assert dedent().parse(ctx)
    assert ctx.state(IndentStack).peek() is None

    ctx.state(IndentStack).push(4)
    ctx.position = 4
    r = dedent().parse(ctx)
    assert not r
    assert "indentation < 4" in fail_msg(ctx)

    ctx.position = len("    a\nb\n")
    assert dedent().parse(ctx)


def test_newline_only_at_content_starts():
    ctx = _indent_ctx("ab\n  cd")
    ok_positions = {0, 5, 7}
    for pos in range(8):
        ctx.position = pos
        assert newline().parse(ctx) is (pos in ok_positions), pos


def test_aligned_requires_matching_width():
    ctx = _indent_ctx("ab\n    cd\n")
    ctx.position = 0
    assert aligned().parse(ctx)
    ctx.position = 7
    r = aligned().parse(ctx)
    assert not r
    assert "indentation = 0" in fail_msg(ctx)

    ctx.state(IndentStack).push(4)
    assert aligned().parse(ctx)
    ctx.position = 8          # mid-token is never aligned
    assert not aligned().parse(ctx)
    ctx.position = ctx.input_length
    assert aligned().parse(ctx)


# ---------------------------------------------------------------------------
# Namespace machinery.


def _ns_ctx():
    return ParseContext("", cells=[TypeStack(), EnclosingClasses()])


def _push_name(name):
    return perform(lambda ctx: ctx.ast.push(name))


def test_is_type_and_priv_of_prefer_the_top():
    ctx = _ns_ctx()
    types = ctx.state(TypeStack)
    types.push(TypeRecord("T", (TypeRecord("old"),)))
    types.push(TypeRecord("T", (TypeRecord("new"),)))
    assert is_type(ctx, "T")
    assert not is_type(ctx, "U")
    assert priv_of(ctx, "T") == (TypeRecord("new"),)
    assert priv_of(ctx, "U") == ()


def test_new_type_plain_and_alias_modes():
    ctx = _ns_ctx()
    types = ctx.state(TypeStack)
    types.push(TypeRecord("Foo", (TypeRecord("x"),)))

    assert new_type(_push_name("Plain")).parse(ctx)
    assert types.peek() == TypeRecord("Plain", ())

    # Alias: the child pushes the new name, then the source name; the
    # record carries the source's private list.
    child = seq(_push_name("Bar"), _push_name("Foo"))
    assert new_type(child, alias=True).parse(ctx)
    assert types.peek() == TypeRecord("Bar", (TypeRecord("x"),))


def test_new_type_insists_on_a_string_name():
    ctx = _ns_ctx()
    with pytest.raises(ContractViolationError):
        new_type(_push_name(None)).parse(ctx)


def test_scoped_truncates_on_success_only():
    ctx = _ns_ctx()
    types = ctx.state(TypeStack)
    types.push(TypeRecord("Keep"))

    grows = perform(lambda c: c.state(TypeStack).push(TypeRecord("Tmp")))
    assert scoped(seq(grows, grows)).parse(ctx)
    assert types.size == 1 and types.peek() == TypeRecord("Keep")

    failing = seq(grows, _fail_parser())
    r = scoped(failing).parse(ctx)
    assert not r
    assert types.size == 1 and types.peek() == TypeRecord("Keep")


def _fail_parser():
    from txpeg.combinators import char_pred
    return char_pred(lambda c: False, "nothing")


def test_class_def_collects_body_types_as_private():
    # Hand-run of a class B : A whose body introduces I then J: the final
    # record is ("B", inherited + body records) and none of the body
    # records stay visible outside.
    ctx = _ns_ctx()
    types = ctx.state(TypeStack)
    types.push(TypeRecord("A", (TypeRecord("P"),)))
    types.push(TypeRecord("B"))          # placeholder pushed at the name
    ast = ctx.ast
    ast.push("B")
    ast.push("A")

    body = seq(new_type(_push_name("I")), new_type(_push_name("J")))
    assert class_def(body).parse(ctx)

    assert types.size == 2
    assert types.at(0) == TypeRecord(
        "B", (TypeRecord("P"), TypeRecord("I", ()), TypeRecord("J", ())))
    assert types.at(1).name == "A"
    assert ctx.state(EnclosingClasses).peek() is None


def test_class_def_without_superclass_adds_nothing_inherited():
    ctx = _ns_ctx()
    types = ctx.state(TypeStack)
    types.push(TypeRecord("B"))
    ast = ctx.ast
    ast.push("B")
    ast.push(None)

    assert class_def(new_type(_push_name("I"))).parse(ctx)
    assert types.at(0) == TypeRecord("B", (TypeRecord("I", ()),))


def test_class_def_replaces_placeholder_and_private_classes_in_one_change():
    # Besides what the body logs: the EnclosingClasses push and pop, and one
    # TypeStack change; a snapshot's second field is the trail length, two
    # slots an entry.
    ctx = _ns_ctx()
    types = ctx.state(TypeStack)
    types.push(TypeRecord("B"))
    ast = ctx.ast
    ast.push("B")
    ast.push(None)
    body = new_type(_push_name("I"))
    snap = ctx.snapshot()
    assert body.parse(ctx)
    by_body = ctx.snapshot()[1] - snap[1]
    ctx.restore(snap)
    assert class_def(body).parse(ctx)
    assert ctx.snapshot()[1] - snap[1] == by_body + 2 * 3
    assert types.values() == [TypeRecord("B", (TypeRecord("I"),))]


def test_class_def_rejects_enclosing_superclass():
    ctx = _ns_ctx()
    types = ctx.state(TypeStack)
    types.push(TypeRecord("Outer"))
    types.push(TypeRecord("Bad"))
    ctx.state(EnclosingClasses).push("Outer")
    ast = ctx.ast
    ast.push("Bad")
    ast.push("Outer")

    r = class_def(_push_name("unused")).parse(ctx)
    assert not r
    assert "cannot inherit from enclosing class 'Outer'" in fail_msg(ctx)
    # The placeholder and the types below survive untouched.
    assert types.size == 2 and types.at(0) == TypeRecord("Bad")


def test_class_def_restores_types_when_the_body_fails():
    ctx = _ns_ctx()
    types = ctx.state(TypeStack)
    types.push(TypeRecord("B"))
    ast = ctx.ast
    ast.push("B")
    ast.push(None)

    body = seq(new_type(_push_name("I")), _fail_parser())
    assert not class_def(body).parse(ctx)
    assert types.size == 1 and types.at(0) == TypeRecord("B")
    assert ctx.state(EnclosingClasses).peek() is None


# The type index: lookups must agree with shadowing over the whole stack
# (the topmost record of a name wins), whatever moved the stack's top.

_NAMES = "ABC"


def _scan(types, name):
    """The shadowing oracle: the first match walking down from the top."""
    return next((r for r in list(types) if r.name == name), None)


def _check_lookups(ctx):
    types = ctx.state(TypeStack)
    for name in _NAMES + "Z":
        expected = _scan(types, name)
        assert types.find(name) == expected
        assert is_type(ctx, name) == (expected is not None)
        assert priv_of(ctx, name) == (() if expected is None else expected.priv)


_type_ops = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(_NAMES), st.integers(0, 99)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("truncate"), st.integers(0, 8)),
    st.tuples(st.just("replace_above"), st.integers(0, 8), st.sampled_from(_NAMES)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"), st.integers(0, 7)),
    st.tuples(st.just("diff_restore_merge"),
              st.lists(st.tuples(st.sampled_from(_NAMES), st.integers(0, 99)),
                       max_size=4),
              st.integers(0, 3)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_type_ops, max_size=40))
def test_type_index_matches_a_scan_of_the_stack(ops):
    ctx = _ns_ctx()
    types = ctx.state(TypeStack)
    held = []
    _check_lookups(ctx)
    for op, *args in ops:
        if op == "push":
            name, tag = args
            types.push(TypeRecord(name, (TypeRecord(str(tag)),)))
        elif op == "pop":
            types.pop()
        elif op == "truncate":
            types.truncate(args[0])
        elif op == "replace_above":
            # As a class definition folds its private records into its own.
            size, name = args
            types.replace_above(size, lambda *records: TypeRecord(name, records))
        elif op == "snapshot":
            held.append(ctx.snapshot())
        elif op == "restore" and held:
            # Restoring a snapshot voids the ones taken after it.
            keep = args[0] % len(held) + 1
            del held[keep:]
            ctx.restore(held[-1])
        elif op == "diff_restore_merge":
            pushed, pops = args
            snap = ctx.snapshot()
            for name, tag in pushed:
                types.push(TypeRecord(name, (TypeRecord(str(tag)),)))
            _check_lookups(ctx)
            delta = ctx.diff(snap)
            ctx.restore(snap)
            _check_lookups(ctx)
            for _ in range(pops):
                types.pop()
            _check_lookups(ctx)
            ctx.merge(delta)
        _check_lookups(ctx)


def test_lookups_do_not_scan_the_stack(monkeypatch):
    ctx = _ns_ctx()
    types = ctx.state(TypeStack)
    for i in range(4000):
        types.push(TypeRecord(f"T{i}", (TypeRecord(f"P{i}"),)))
    start = ctx.snapshot()

    def no_scan(self):
        raise AssertionError("a type lookup walked the stack")

    monkeypatch.setattr(StackState, "__iter__", no_scan)
    assert is_type(ctx, "T0") and is_type(ctx, "T3999")
    assert not is_type(ctx, "T4000")
    assert priv_of(ctx, "T0") == (TypeRecord("P0"),)
    assert priv_of(ctx, "T4000") == ()

    # A push that shadows the bottom record, then the pop that unshadows it.
    types.push(TypeRecord("T0", (TypeRecord("inner"),)))
    assert priv_of(ctx, "T0") == (TypeRecord("inner"),)
    types.pop()
    assert priv_of(ctx, "T0") == (TypeRecord("P0"),)

    # A new name, then a restore that drops it again; a truncation far down.
    types.push(TypeRecord("Fresh"))
    assert is_type(ctx, "Fresh")
    ctx.restore(start)
    assert not is_type(ctx, "Fresh") and is_type(ctx, "T3999")
    types.truncate(10)
    assert is_type(ctx, "T9") and not is_type(ctx, "T10")
    assert priv_of(ctx, "T9") == (TypeRecord("P9"),)


# ---------------------------------------------------------------------------
# The language.


GRAMMAR = examply_grammar()


def accepts(text):
    return run_parse(GRAMMAR, text)


def rejects(text):
    out = run_parse(GRAMMAR, text)
    assert not out.success, f"unexpectedly accepted: {text!r}"
    return out.error


def kinds(values):
    out = []
    for v in values:
        if isinstance(v, AstNode):
            out.append((v.kind, kinds(v.children)))
        elif isinstance(v, list):
            out.append(kinds(v))
        else:
            out.append(v)
    return out


def test_declarations_and_expressions():
    out = accepts('val x: Int = 3\nvar s: String = "hi"\nx\n')
    assert out.success
    assert kinds(out.ast) == [
        ("val", ["x", "Int", ("int", ["3"])]),
        ("var", ["s", "String", ("str", ["hi"])]),
        ("ref", ["x"]),
    ]


def test_fun_with_params_and_body():
    out = accepts("fun add(a: Int, b: Int): Int\n    a\n    b\n")
    assert out.success
    assert kinds(out.ast) == [
        ("fun", ["add",
                 [("param", ["a", "Int"]), ("param", ["b", "Int"])],
                 "Int",
                 [("ref", ["a"]), ("ref", ["b"])]]),
    ]


def test_spans_on_a_small_program():
    out = accepts("val x: Int = 3\n")
    node = out.ast[0]
    assert node.span == (0, 15)
    assert node.children[2].span == (13, 14)


def test_call_versus_ctor_disambiguation():
    call = accepts("fun myFunction(): Int\n    val t: Int = 1\n"
                   "val a: Int = myFunction()\n    myFunction2()\n")
    ctor = accepts("class MyClass\n"
                   "val b: MyClass = MyClass()\n    val x: Int = 2\n")
    assert call.success and ctor.success
    call_expr = call.ast[1].children[2]
    ctor_expr = ctor.ast[1].children[2]
    assert call_expr.kind == "call"
    assert ctor_expr.kind == "ctor"
    # Same program shape, different node: the block hangs off the call as
    # statements but off the constructor as member declarations.
    assert kinds([call_expr]) == [
        ("call", ["myFunction", [], [("call", ["myFunction2", [], None])]])]
    assert kinds([ctor_expr]) == [
        ("ctor", ["MyClass", [], [("val", ["x", "Int", ("int", ["2"])])]])]


def test_the_constructor_identifier_is_captured_once(monkeypatch):
    # The type check reads the name the constructor call just parsed
    # instead of parsing it a second time inside a lookahead.
    text = "class A\nval x: A = A()\n"
    at = text.index("= A(") + 2
    calls = []
    parse = Capture.parse

    def counting(self, ctx):
        if ctx.position == at:
            calls.append(self)
        return parse(self, ctx)

    grammar = examply_grammar()
    monkeypatch.setattr(Capture, "parse", counting)
    out = run_parse(grammar, text)
    assert out.success
    assert kinds([out.ast[1].children[2]]) == [("ctor", ["A", [], None])]
    assert len(calls) == 1


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: ctor_call and func_call both parse the one arg_list "
    "after the same identifier, so a failed argument list is parsed again "
    "at every nesting level; a failure memo is to mend it"))
def test_a_near_miss_call_parses_each_argument_list_a_bounded_number_of_times(
        monkeypatch):
    calls = [0]
    parse = Collect.parse

    def counting(self, ctx):
        # In these inputs only an argument list starts at a "(".
        if ctx.text.startswith("(", ctx.position):
            calls[0] += 1
        return parse(self, ctx)

    grammar = examply_grammar()
    monkeypatch.setattr(Collect, "parse", counting)

    def arg_list_calls(n):
        # A missing comma after each argument: "A(A(1) y) y".
        calls[0] = 0
        text = "class A\nval x: A = " + "A(" * n + "1" + ") y" * n + "\n"
        assert not run_parse(grammar, text).success
        return calls[0]

    small, large = arg_list_calls(6), arg_list_calls(12)
    # Today 94 and 6,142 calls.  At most linear growth: twice the nesting
    # costs at most twice the calls, give or take one per level.
    assert large <= 2 * small + 12


def test_rule_imports_bring_a_type_into_scope():
    out = accepts("import util.pkg.Box\nval b: Box = Box()\n")
    assert out.success
    assert kinds(out.ast)[0] == ("import", ["util.pkg", "Box"])
    rejects("val b: Box = Box()\n")


def test_rule_single_segment_import_is_malformed():
    rejects("import Box\nval b: Box = Box()\n")


def test_rule_definition_before_use():
    assert accepts("class Later\nval b: Later = Later()\n").success
    err = rejects("val b: Later = Later()\nclass Later\n")
    assert "'Later' does not name a visible type" in err.message


def test_rule_class_declarations_nest_anywhere_declarations_do():
    out = accepts("fun f(): Int\n    class Local\n    val l: Local = Local()\n")
    assert out.success


def test_rule_lexical_scope_ends_with_the_block():
    rejects("fun f(): Int\n    class Local\nval l: Local = Local()\n")
    rejects("fun f(): Int\n    import util.pkg.Box\nval b: Box = Box()\n")
    assert accepts("fun f(): Int\n    import util.pkg.Box\n"
                   "    val b: Box = Box()\n").success


def test_rule_class_body_types_are_private():
    assert accepts("class Box\n    class Lid\n    val n: Int = 1\n"
                   "val b: Box = Box()\n").success
    rejects("class Box\n    class Lid\nval l: Lid = Lid()\n")


def test_rule_subclass_sees_superclass_privates():
    assert accepts("class Base\n    class Inner\n"
                   "class Sub : Base\n    val i: Inner = Inner()\n").success
    # Transitively, through a chain of two.
    assert accepts("class A\n    class P\n"
                   "class B : A\n"
                   "class C : B\n    val p: P = P()\n").success
    rejects("class Base\n    class Inner\n"
            "class Other\n    val i: Inner = Inner()\n")


def test_rule_constructor_body_is_an_anonymous_subclass():
    assert accepts("class Base\n    class Inner\n"
                   "val o: Base = Base()\n    val i: Inner = Inner()\n").success
    # What the anonymous body declares stays inside it.
    rejects("class Base\nval o: Base = Base()\n    class Gone\n"
            "val g: Gone = Gone()\n")


def test_rule_no_inheriting_from_an_enclosing_class():
    err = rejects("class Outer\n    class Bad : Outer\n")
    assert "cannot inherit from enclosing class 'Outer'" in err.message
    # A sibling may inherit; only enclosure is forbidden.
    assert accepts("class Outer\nclass Fine : Outer\n").success


def test_rule_alias_keeps_the_source_visibility():
    assert accepts("class Base\n    class Inner\n"
                   "alias Copy = Base\n"
                   "class Sub : Copy\n    val i: Inner = Inner()\n").success
    out = accepts("alias Num = Int\nval n: Num = 4\n")
    assert out.success
    assert kinds(out.ast)[0] == ("alias", ["Num", "Int"])
    rejects("alias Nope = Missing\n")


def test_indentation_blocks_nest_and_close_at_eof():
    out = accepts("fun f(): Int\n    fun g(): Int\n        val y: Int = 1\n"
                  "    val z: Int = 2\n")
    assert out.success
    f = out.ast[0]
    g = f.children[3][0]
    assert g.kind == "fun" and g.children[0] == "g"
    assert f.children[3][1].kind == "val"

    assert accepts("fun f(): Int\n    val x: Int = 1").success


def test_indentation_tabs_expand_to_stops():
    assert accepts("fun f(): Int\n\tval x: Int = 1\n").success
    # A tab reaching column 4 and four spaces are the same block.
    assert accepts("fun f(): Int\n\tval x: Int = 1\n    val y: Int = 2\n").success


def test_indentation_blank_lines_do_not_close_blocks():
    assert accepts("fun f(): Int\n    val x: Int = 1\n\n"
                   "    val y: Int = 2\n").success
    assert accepts("val x: Int = 1\n\n\nval y: Int = 2\n").success


def test_indentation_misaligned_lines_are_rejected():
    err = rejects("    val x: Int = 1\n")
    assert "indentation = 0" in err.message
    rejects("val x: Int = 1\n        7\n")
    rejects("fun f(): Int\n    val x: Int = 1\n  val y: Int = 2\n")


def test_empty_program_is_fine():
    out = accepts("")
    assert out.success and out.ast == []


def test_keywords_do_not_merge_with_identifiers():
    # "valx" is an identifier, not the keyword "val" plus "x".
    rejects("valx: Int = 1\n")
    out = accepts("val valx: Int = 1\n")
    assert out.success and out.ast[0].children[0] == "valx"


def test_cells_are_fresh_per_parse():
    grammar = examply_grammar()
    text = "class Once\n"
    assert run_parse(grammar, text).success
    # A second run must not remember Once.
    assert run_parse(grammar, text).success
    assert not run_parse(grammar, "val o: Once = 1\n").success


def test_examply_cells_list_every_needed_cell():
    made = [factory() for factory in examply_cells()]
    names = {type(cell).__name__ for cell in made}
    assert len(made) == 3
    assert names == {"IndentStack", "TypeStack", "EnclosingClasses"}
    types = next(c for c in made if type(c).__name__ == "TypeStack")
    assert [r.name for r in types.values()] == ["String", "Int"]


# ---------------------------------------------------------------------------
# Every rule is a root: no rule depends on another having run first.


ROOT_INPUTS = ["val x: Int = 1\n", "fun f()\n    f()\n", "    f()\n", "class A\n",
               "macro m = a b\n", "", *token_outcomes.inputs()[::157]]

ROOT_RULES = {"examply": examply_rules, "composed": composed_rules}


@pytest.mark.parametrize("grammar", sorted(ROOT_RULES))
def test_every_rule_parses_as_the_root(grammar):
    rules = ROOT_RULES[grammar]()
    for name in rules:
        frozen = GrammarDef(rules, name, cells=examply_cells()).freeze()
        for text in ROOT_INPUTS:
            try:
                outcome = run_parse(frozen, text)
            except ContractViolationError:
                # The anonymous class inherits from the constructor's type,
                # which ctor_call pushed on the AST stack just before; as
                # the root, the rule finds no name there, by contract.
                assert name == "ctor_body", (name, text)
                continue
            assert isinstance(outcome, ParseOutcome), (name, text)


@pytest.mark.parametrize("grammar, root, text", [
    ("examply", "statement", "val x: Int = 1\n"),
    ("examply", "stmt_block", "    f()\n"),
    ("examply", "fun_decl", "fun f()\n    f()\n"),
    ("composed", "macro_file", "macro m = a b\n"),
])
def test_rules_that_read_the_indentation_parse_as_the_root(grammar, root, text):
    frozen = GrammarDef(ROOT_RULES[grammar](), root, cells=examply_cells()).freeze()
    assert run_parse(frozen, text).success

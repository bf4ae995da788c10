"""The records txpeg hands out keep the behaviour they had as dataclasses:
constructors, attributes, equality, hashing and repr text."""

import copy
import dataclasses

import pytest

from txpeg.cli import GRAMMARS
from txpeg.combinators import AstNode, literal
from txpeg.core import AggregateDelta
from txpeg.demos.indent import IndentEntry
from txpeg.demos.namespaces import TypeRecord
from txpeg.grammar import FrozenGrammar, GrammarDef, ParseError, ParseOutcome


def test_ast_nodes_are_equal_by_kind_children_and_span():
    node = AstNode("num", ("1",), (0, 1))
    assert node == AstNode("num", ("1",), (0, 1))
    assert node == AstNode(kind="num", children=("1",), span=(0, 1))
    assert node != AstNode("int", ("1",), (0, 1))
    assert node != AstNode("num", ("2",), (0, 1))
    assert node != AstNode("num", ("1",), (0, 2))
    assert AstNode("k") == AstNode("k", (), None)


def test_an_ast_node_is_never_equal_to_another_class():
    class Sub(AstNode):
        pass

    node = AstNode("num", ("1",), (0, 1))
    assert node != Sub("num", ("1",), (0, 1))
    assert node != ("num", ("1",), (0, 1))
    assert node != ["num", ("1",), (0, 1)]
    assert node.__eq__(("num", ("1",), (0, 1))) is NotImplemented


def test_nested_ast_nodes_compare_through_their_children():
    inner = AstNode("num", ("1",), (0, 1))
    assert AstNode("neg", (inner,), (0, 2)) == AstNode("neg", (AstNode("num", ("1",), (0, 1)),), (0, 2))
    assert AstNode("neg", (inner,), (0, 2)) != AstNode("neg", (AstNode("num", ("2",), (0, 1)),), (0, 2))


def test_the_ast_node_repr_is_the_dataclass_text():
    assert repr(AstNode("num", ("1",), (0, 1))) == "AstNode(kind='num', children=('1',), span=(0, 1))"
    assert repr(AstNode("m")) == "AstNode(kind='m', children=(), span=None)"


def test_span_and_children_stay_assignable_and_nothing_else_is_added():
    node = AstNode("num")
    node.span = (3, 4)
    node.children = ("4",)
    node.kind = "int"
    assert node == AstNode("int", ("4",), (3, 4))
    with pytest.raises(AttributeError):
        node.extra = 1
    with pytest.raises(TypeError):
        hash(node)


def test_a_span_is_two_slots_read_back_as_a_pair():
    node = AstNode("num", ("1",), (3, 4))
    assert node.span == (3, 4) and type(node.span) is tuple
    assert (node.start, node.end) == (3, 4)
    node.span = None
    assert node.span is None and node.start is None and node.end is None
    assert node == AstNode("num", ("1",))
    node.span = [5, 9]
    assert node.span == (5, 9) and type(node.span) is tuple
    assert AstNode("k", (), [0, 1]) == AstNode("k", (), (0, 1))


@pytest.mark.parametrize("bad", [(1, 2, 3), (1,), (), 7])
def test_a_span_that_is_not_a_pair_raises_type_error(bad):
    node = AstNode("num", (), (3, 4))
    with pytest.raises(TypeError, match="pair"):
        node.span = bad
    assert node.span == (3, 4)
    with pytest.raises(TypeError):
        AstNode("num", (), bad)


def test_an_ast_node_copies_and_matches_by_its_span():
    node = AstNode("num", ("1",), (0, 1))
    twin = copy.copy(node)
    assert twin == node and twin is not node
    twin.span = (0, 2)
    assert node.span == (0, 1)
    match node:
        case AstNode(kind, children, span):
            assert (kind, children, span) == ("num", ("1",), (0, 1))
        case _:
            pytest.fail("an AstNode did not match its own pattern")
    match AstNode("m"):
        case AstNode("m", (), None):
            pass
        case _:
            pytest.fail("a node without a span did not match span None")


def test_parse_error_is_hashable_immutable_and_reads_as_before():
    err = ParseError(3, 1, 4, "expected 'x'")
    assert err == ParseError(position=3, line=1, column=4, message="expected 'x'")
    assert hash(err) == hash(ParseError(3, 1, 4, "expected 'x'"))
    assert len({err, ParseError(3, 1, 4, "expected 'x'")}) == 1
    assert repr(err) == "ParseError(position=3, line=1, column=4, message=\"expected 'x'\")"
    with pytest.raises(AttributeError):
        err.position = 0


def test_the_named_tuple_records_are_immutable_and_compare_as_tuples():
    entry = IndentEntry(4, 10)
    assert (entry.count, entry.end) == (4, 10)
    assert entry == (4, 10)
    assert TypeRecord("Int") == TypeRecord(name="Int", priv=())
    assert repr(TypeRecord("A", ("B",))) == "TypeRecord(name='A', priv=('B',))"
    delta = AggregateDelta(5, (), [])
    assert (delta.end_position, delta.cells, delta.registry) == (5, (), [])
    for record, field in ((entry, "count"), (TypeRecord("Int"), "name"), (delta, "cells")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_grammar_def_takes_its_arguments_by_keyword_and_stays_mutable():
    rules = {"top": literal("x")}
    by_keyword = GrammarDef(rules=rules, root="top", whitespace=None, cells=())
    assert by_keyword == GrammarDef(rules, "top")
    assert GrammarDef(rules, "top", cells=(object,)) != GrammarDef(rules, "top")
    by_keyword.root = "other"
    assert by_keyword.root == "other"
    assert repr(GrammarDef({}, "r")) == "GrammarDef(rules={}, root='r', whitespace=None, cells=())"
    frozen = GrammarDef(rules, "top", whitespace=literal(" "), cells=()).freeze()
    assert isinstance(frozen, FrozenGrammar)


def test_parse_outcome_reads_and_compares_as_before():
    outcome = ParseOutcome(False, end_position=2, error=ParseError(2, 1, 3, "m"))
    assert outcome == ParseOutcome(success=False, ast=None, end_position=2,
                                   error=ParseError(2, 1, 3, "m"))
    assert outcome != ParseOutcome(False, end_position=1, error=ParseError(2, 1, 3, "m"))
    assert repr(ParseOutcome(True, ["x"], 1)) == (
        "ParseOutcome(success=True, ast=['x'], end_position=1, error=None)")
    outcome.success = True
    assert outcome.success


def test_no_record_is_a_dataclass_any_more():
    for cls in (AstNode, GrammarDef, ParseOutcome, ParseError, AggregateDelta,
                IndentEntry, TypeRecord):
        assert not dataclasses.is_dataclass(cls), cls


@pytest.mark.parametrize("name", sorted(GRAMMARS))
def test_every_cli_grammar_factory_returns_a_frozen_grammar(name):
    assert isinstance(GRAMMARS[name](), FrozenGrammar)

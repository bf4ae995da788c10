"""``--format json-compact``: the indented JSON's data on one line, from
the same explicit-stack writer, so its size grows with the AST and not
with the square of its depth."""

import json
import pathlib

import pytest

from txpeg.cli import ast_to_data, dump_ast, main
from txpeg.combinators import AstNode
from txpeg.demos.examply import examply_grammar
from txpeg.demos.expr import expr_grammar
from txpeg.demos.macro import composed_grammar, macro_grammar
from txpeg.grammar import run_parse

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
SUITES = {"examply": (examply_grammar, ".examply"), "macro": (macro_grammar, ".macro"),
          "composed": (composed_grammar, ".src")}
ACCEPT = [(suite, path) for suite, (_, suffix) in SUITES.items()
          for path in sorted((FIXTURES / suite / "accept").glob(f"*{suffix}"))]


def compact(data) -> str:
    return json.dumps(data, separators=(",", ":")) + "\n"


def test_every_suite_has_accept_fixtures():
    assert {suite for suite, _ in ACCEPT} == set(SUITES)


@pytest.mark.parametrize("suite, path", ACCEPT, ids=lambda v: getattr(v, "stem", v))
def test_both_json_formats_on_every_fixture(suite, path):
    ast = run_parse(SUITES[suite][0](), path.read_text()).ast
    expected = path.with_suffix(".expected.json").read_text()
    assert dump_ast(ast, "json") == expected
    out = dump_ast(ast, "json-compact")
    assert out == compact(json.loads(expected))
    assert json.loads(out) == ast_to_data(ast)


def test_the_compact_writer_matches_json_dumps_on_every_leaf_shape():
    leaves = ["", "é\n\"q\"\t\\", "\U0001f600", 0, -7, 2.5, 1e100, True, False,
              None, (), (1, "t"), {}, {"k": [[], {}]}, [[[]]], [{}]]
    ast = [AstNode("k", tuple(leaves), (0, 2)), AstNode("m", (), None), [], leaves]
    assert dump_ast(ast, "json-compact") == compact(ast_to_data(ast))
    assert dump_ast([], "json-compact") == "[]\n"


def test_the_cli_prints_compact_json_that_round_trips(tmp_path, capsys):
    path = tmp_path / "input.examply"
    path.write_text("fun f(a: Int): Int\n    a\n")
    assert main(["--grammar", "examply", "--format", "json-compact", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    direct = run_parse(examply_grammar(), path.read_text()).ast
    assert out == compact(ast_to_data(direct))


def test_compact_output_grows_linearly_with_an_expr_chain():
    grammar = expr_grammar()

    def bytes_per_input_byte(operands: int) -> float:
        text = "-".join(str(i % 10) for i in range(operands))
        return len(dump_ast(run_parse(grammar, text).ast, "json-compact")) / len(text)

    assert bytes_per_input_byte(400) <= 1.5 * bytes_per_input_byte(100)

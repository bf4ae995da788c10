"""Fixture suites: source files with frozen expected output.

Accept fixtures carry the serialized AST; reject fixtures carry the
diagnostic's line, column, and a message fragment.  The composed grammar
must additionally reproduce both original suites untouched.
"""

import json
import pathlib

import pytest

from txpeg.cli import ast_to_data
from txpeg.demos.examply import examply_grammar
from txpeg.demos.macro import composed_grammar, macro_grammar
from txpeg.grammar import run_parse

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"

EXAMPLY = examply_grammar()
MACRO = macro_grammar()
COMPOSED = composed_grammar()


def fixture_files(suite, kind, suffix):
    files = sorted((FIXTURES / suite / kind).glob(f"*{suffix}"))
    assert files, f"no fixtures under {suite}/{kind}"
    return files


def expected_for(path):
    return json.loads(path.with_suffix(".expected.json").read_text())


def error_for(path):
    return json.loads(path.with_suffix(".error.json").read_text())


EXAMPLY_ACCEPT = fixture_files("examply", "accept", ".examply")
EXAMPLY_REJECT = fixture_files("examply", "reject", ".examply")
MACRO_ACCEPT = fixture_files("macro", "accept", ".macro")
COMPOSED_ACCEPT = fixture_files("composed", "accept", ".src")


def test_suite_is_large_enough_and_covers_every_rule():
    stems = {p.stem for p in EXAMPLY_ACCEPT} | {p.stem for p in EXAMPLY_REJECT}
    assert len(stems) >= 14
    for rule in range(1, 8):
        tag = f"r{rule}_"
        assert any(p.stem.startswith(tag) for p in EXAMPLY_ACCEPT), tag
        assert any(p.stem.startswith(tag) for p in EXAMPLY_REJECT), tag
    assert any("eof_dedent" in p.stem for p in EXAMPLY_ACCEPT)


@pytest.mark.parametrize("path", EXAMPLY_ACCEPT, ids=lambda p: p.stem)
def test_examply_accepts(path):
    out = run_parse(EXAMPLY, path.read_text())
    assert out.success, out.error
    assert ast_to_data(out.ast) == expected_for(path)


@pytest.mark.parametrize("path", EXAMPLY_REJECT, ids=lambda p: p.stem)
def test_examply_rejects(path):
    out = run_parse(EXAMPLY, path.read_text())
    assert not out.success
    want = error_for(path)
    assert out.error.line == want["line"]
    assert out.error.column == want["col"]
    assert want["contains"] in out.error.message


@pytest.mark.parametrize("path", MACRO_ACCEPT, ids=lambda p: p.stem)
def test_macro_accepts(path):
    out = run_parse(MACRO, path.read_text())
    assert out.success, out.error
    assert ast_to_data(out.ast) == expected_for(path)


@pytest.mark.parametrize("path", COMPOSED_ACCEPT, ids=lambda p: p.stem)
def test_composed_accepts(path):
    out = run_parse(COMPOSED, path.read_text())
    assert out.success, out.error
    assert ast_to_data(out.ast) == expected_for(path)


@pytest.mark.parametrize("path", EXAMPLY_ACCEPT, ids=lambda p: p.stem)
def test_composed_reproduces_examply_suite(path):
    out = run_parse(COMPOSED, path.read_text())
    assert out.success, out.error
    assert ast_to_data(out.ast) == expected_for(path)


@pytest.mark.parametrize("path", EXAMPLY_REJECT, ids=lambda p: p.stem)
def test_composed_reproduces_examply_rejections(path):
    out = run_parse(COMPOSED, path.read_text())
    assert not out.success
    want = error_for(path)
    assert (out.error.line, out.error.column) == (want["line"], want["col"])
    assert want["contains"] in out.error.message


@pytest.mark.parametrize("path", MACRO_ACCEPT, ids=lambda p: p.stem)
def test_composed_reproduces_macro_suite(path):
    out = run_parse(COMPOSED, path.read_text())
    assert out.success, out.error
    assert ast_to_data(out.ast) == expected_for(path)

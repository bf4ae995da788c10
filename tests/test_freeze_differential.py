"""Freeze-time specialisations change no outcome.

Every bundled grammar is frozen twice from the same rules: as usual, and
with ``specialise=False``, which keeps the plain path of every parser (no
``not_`` skipping, no ``choice`` dispatch, no scanning repetitions).  Both
must agree on every input: success, end position, error position and
message, and the JSON form of the AST.  The inputs are short token
sequences and seeded character mutations of the documents that
``bench/gen.py`` generates.  Small grammars for shapes the bundled ones
lack get token sequences too.  The accepted documents are also checked as
valid programs: their spans nest inside the input.
"""

import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from token_outcomes import TOKENS, join
from txpeg.cli import ast_to_data
from txpeg.combinators import AstNode, ahead, choice, end_of_input, literal, seq, zero_more
from txpeg.demos.examply import examply_cells, examply_grammar, examply_rules
from txpeg.demos.expr import expr_grammar, expr_rules
from txpeg.demos.macro import composed_grammar, composed_rules, macro_grammar, macro_rules
from txpeg.demos.smoke import (
    RunTally, TagStack, anbncn_grammar, anbncn_rules, tags_grammar, tags_rules,
)
from txpeg.grammar import GrammarDef, ref, run_parse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402

# name -> (the grammar's definition, the bundled grammar it mirrors)
DEFINITIONS = {
    "examply": (lambda: GrammarDef(examply_rules(), "program", cells=examply_cells()),
                examply_grammar),
    "composed": (lambda: GrammarDef(composed_rules(), "program", cells=examply_cells()),
                 composed_grammar),
    "macro": (lambda: GrammarDef(macro_rules(), "macro_file"), macro_grammar),
    "expr": (lambda: GrammarDef(expr_rules(), "expression"), expr_grammar),
    "tags": (lambda: GrammarDef(tags_rules(), "element", cells=(TagStack,)), tags_grammar),
    "anbncn": (lambda: GrammarDef(anbncn_rules(), "balanced", cells=(RunTally,)),
               anbncn_grammar),
}


def lookahead_rules() -> dict:
    """Choices whose alternatives a frozen grammar skips inside a
    successful ``ahead``, after which the parse may fail behind them."""
    probe = seq(choice(literal("a"), literal("c")),
                choice(literal("x"), literal("b"), seq(literal("y"), literal("b"))))
    item = seq(ahead(ref("probe")), choice(literal("ab;"), literal("cyb;"), literal("cb")))
    return {
        "top": seq(zero_more(item), choice(literal("a."), literal(".")), end_of_input()),
        "probe": probe,
    }


# Small grammars for shapes the bundled ones lack, checked like them.
SHAPES = {
    "lookahead": lambda: GrammarDef(lookahead_rules(), "top"),
}

# The golden token alphabet, indentation, and the other keywords and
# tokens of the line-oriented grammars; joined as the golden inputs are.
SOURCE_TOKENS = TOKENS + ("    ", "\t", "var", "alias", "import", "lib.", "String",
                          "y", ",", "1", '"s"', "macro", "$", "é", "\x00")
# grammar -> (tokens, separator); the others have no whitespace between
# their tokens.
ALPHABETS = {
    "examply": (SOURCE_TOKENS, None),
    "composed": (SOURCE_TOKENS, None),
    "macro": (SOURCE_TOKENS, None),
    "expr": (("1", "23", "-", " ", "(", "x", "\n"), ""),
    "tags": (("<a>", "</a>", "<bc>", "</bc>", "<", "</", ">", "a", " "), ""),
    "anbncn": (("a", "b", "c", "aa", "bb", "cc", " ", "\x00"), ""),
    "lookahead": (("a", "b", "c", "x", "y", ";", ".", "é"), ""),
}


@lru_cache(maxsize=None)
def pair(name: str) -> tuple:
    """(specialised, plain) frozen grammars."""
    define = DEFINITIONS[name][0] if name in DEFINITIONS else SHAPES[name]
    return define().freeze(), define().freeze(specialise=False)


def outcome(grammar, text: str) -> tuple:
    r = run_parse(grammar, text)
    error = None if r.error is None else (r.error.position, r.error.message)
    ast = None if r.ast is None else json.dumps(ast_to_data(r.ast))
    return r.success, r.end_position, error, ast


def assert_same(name: str, text: str) -> bool:
    """Both freezes of ``name`` agree on ``text``; returns success."""
    specialised, plain = pair(name)
    got = outcome(specialised, text)
    assert got == outcome(plain, text), f"{name} on {text!r}"
    return got[0]


@pytest.mark.parametrize("name", DEFINITIONS)
def test_each_definition_mirrors_its_bundled_grammar(name):
    bundled = DEFINITIONS[name][1]()
    for frozen in pair(name):
        assert (frozen.root, set(frozen.rules), frozen.cell_factories) == (
            bundled.root, set(bundled.rules), bundled.cell_factories)


@pytest.mark.parametrize("name", [*DEFINITIONS, *SHAPES])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_token_sequences_parse_alike_specialised_and_plain(name, data):
    tokens, separator = ALPHABETS[name]
    picked = data.draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=12))
    assert_same(name, join(picked) if separator is None else separator.join(picked))


def _macro_file(doc: gen.Doc) -> str:
    """The inline ``macro`` declarations of a composed document, one a line."""
    lines = [line.strip() for line in doc.text.splitlines()]
    return "".join(f"{line}\n" for line in lines
                   if line.startswith("macro ") and not line.endswith("="))


def _documents() -> list:
    """(grammar, text, accepted) for small documents of every generator."""
    rng = random.Random(1)
    docs = [gen.examply_program(rng, size, macros=macros)
            for size in (200, 400) for macros in (False, True)]
    docs += [gen.examply_flat_types(rng, 8), gen.expr_chain(rng, 12),
             gen.tags_doc(rng, 12, False), gen.tags_doc(rng, 20, True),
             gen.anbncn_word(rng, 6, True), gen.anbncn_word(rng, 5, False)]
    found = [(d.grammar, d.text, d.accept) for d in docs]
    # A macro file: the inline declarations of a larger composed program.
    macros = _macro_file(gen.examply_program(rng, 1500, macros=True))
    return found + [("macro", macros, True)]


DOCUMENTS = _documents()
# Characters a mutation inserts: structure, whitespace, NUL and non-ASCII.
INSERTS = "\n \t\x00é():=-$.,<>/\"aZ1"


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:                             # delete a run
            text = text[:at] + text[at + rng.randint(1, 3):]
        elif op == 1:                           # insert a character
            text = text[:at] + rng.choice(INSERTS) + text[at:]
        elif op == 2:                           # replace a character
            text = text[:at] + rng.choice(INSERTS + text) + text[at + 1:]
        else:                                   # repeat a slice
            text = text[:at] + text[at:at + rng.randint(1, 12)] + text[at:]
    return text


def test_every_generated_document_parses_alike_and_as_generated():
    assert {name for name, text, _ in DOCUMENTS if text} == set(DEFINITIONS)
    for name, text, accepted in DOCUMENTS:
        assert assert_same(name, text) == accepted, (name, text)


def _spans(values, outer: tuple):
    """(span, enclosing span) of every node among ``values``, each node's
    enclosing span being its nearest ancestor node's, or ``outer``."""
    todo = [(v, outer) for v in values]
    while todo:
        value, enclosing = todo.pop()
        if isinstance(value, AstNode):
            yield value.span, enclosing
            todo += [(c, value.span) for c in value.children]
        elif isinstance(value, (list, tuple)):
            todo += [(c, enclosing) for c in value]


@pytest.mark.parametrize("doc", [d for d in DOCUMENTS if d[2]],
                         ids=lambda d: f"{d[0]}-{len(d[1])}")
def test_accepted_documents_have_nested_spans_and_round_trip(doc):
    name, text, _ = doc
    ast = run_parse(pair(name)[0], text).ast
    spans = list(_spans(ast, (0, len(text))))
    for span, (start, end) in spans:
        assert span is not None and start <= span[0] <= span[1] <= end, (span, start, end)
    assert spans or name in ("tags", "anbncn")     # these two build no nodes


@settings(derandomize=True, max_examples=400, deadline=None)
@given(doc=st.sampled_from(DOCUMENTS), seed=st.integers(0, 2**32 - 1))
def test_mutated_documents_parse_alike_specialised_and_plain(doc, seed):
    name, text, _ = doc
    assert_same(name, mutate(text, random.Random(seed)))

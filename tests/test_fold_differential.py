"""A repetition's O(1) close agrees with the full fold.

``ParseContext.end_iteration`` drops an iteration's trail entries without
a walk once the repetition already holds an entry for every cell that
logs.  Each test here parses real inputs of a bundled grammar with every
``end_iteration`` checked against the full fold run on a copy of the
trail (``support.check_folds``): the trail left behind must hold the same
cells and prior versions, compared by identity, whichever path ran.  The
inputs are the fixture files, documents that ``bench/gen.py`` generates,
and nested tag documents with siblings at every level.
"""

import random
import sys
from pathlib import Path

import pytest

from support import check_folds
from txpeg.demos.examply import examply_grammar
from txpeg.demos.expr import expr_grammar
from txpeg.demos.macro import composed_grammar, macro_grammar
from txpeg.demos.smoke import anbncn_grammar, tags_grammar
from txpeg.grammar import run_parse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixtures(*globs):
    files = sorted(p for g in globs for p in FIXTURES.glob(g))
    assert files, globs
    return [p.read_text() for p in files]


def _nested_tags(rng: random.Random, depth: int) -> str:
    """A tag element with one to three children at each level, down to
    ``depth``: every repetition of children folds after its first."""
    name = rng.choice("abcd")
    inner = "".join(_nested_tags(rng, depth - 1)
                    for _ in range(rng.randint(1, 3))) if depth else ""
    return f"<{name}>{inner}</{name}>"


def _inputs():
    rng = random.Random(7)
    examply = _fixtures("examply/*/*.examply")
    macro = _fixtures("macro/accept/*.macro")
    yield "examply", examply_grammar, examply
    yield "macro", macro_grammar, macro
    yield "composed", composed_grammar, (
        _fixtures("composed/accept/*.src") + examply + macro)
    yield "expr", expr_grammar, [gen.expr_chain(rng, n).text for n in (1, 2, 9, 40)]
    yield "tags", tags_grammar, (
        [gen.tags_doc(rng, n, bad).text for n in (40, 120) for bad in (False, True)]
        + [_nested_tags(rng, d) for d in range(6)]
        + ["<r><a></a><b><c></c></b><d></d></r>", "<a><b></b><c></a>"])
    yield "anbncn", anbncn_grammar, [
        gen.anbncn_word(rng, n, equal).text for n in (1, 2, 7, 30) for equal in (True, False)]


INPUTS = {name: (make, texts) for name, make, texts in _inputs()}

# The repetitions of expr and anbncn are scans of a char_pred or left
# recursion, which close no iteration through the trail.
ITERATES = {"examply", "macro", "composed", "tags"}


@pytest.mark.parametrize("name", INPUTS)
def test_every_iteration_close_matches_the_full_fold(monkeypatch, name):
    make, texts = INPUTS[name]
    grammar = make()
    counts = check_folds(monkeypatch)
    for text in texts:
        run_parse(grammar, text)
    assert (counts["fast"] + counts["fold"] > 0) == (name in ITERATES)
    if name == "tags":
        # Both tag cells are held after each repetition's first iteration.
        assert counts["fast"] > counts["fold"] > 0

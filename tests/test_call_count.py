"""A guard on the Python calls a parse makes, which CPU noise cannot move.

Each examply accept fixture is parsed with the root parser called
directly, under ``sys.setprofile``, and every ``call`` event of a function
defined in the library counts.  Freeze and ``run_parse``'s own set-up run
outside the count, so it is the same on every Python version the library
supports.  The count is deterministic; a change that raises it past the
ceiling must say why in CHANGES.md and move the ceiling with it.
"""

import os
import pathlib
import sys

import txpeg
from txpeg.combinators import whitespace
from txpeg.core import ParseContext
from txpeg.demos.examply import examply_grammar

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures" / "examply" / "accept"
LIBRARY = os.path.dirname(txpeg.__file__) + os.sep

#: Calls into the library while the root parser runs, over every fixture.
COUNT = 6174
CEILING = COUNT * 102 // 100


def calls_while_parsing(grammar, text: str) -> int:
    """The library calls made by ``grammar.root_parser.parse`` on ``text``,
    in a context set up as ``run_parse`` sets one up."""
    cells = [factory() for factory in grammar.cell_factories]
    ctx = ParseContext(text, cells, grammar.whitespace)
    whitespace().parse(ctx)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(LIBRARY):
            calls += 1

    sys.setprofile(profile)
    try:
        matched = grammar.root_parser.parse(ctx)
    finally:
        sys.setprofile(None)
    assert matched and ctx.position == ctx.input_length
    return calls


def test_examply_accept_fixtures_stay_under_the_call_ceiling():
    grammar = examply_grammar()
    paths = sorted(FIXTURES.glob("*.examply"))
    assert paths
    total = sum(calls_while_parsing(grammar, p.read_text()) for p in paths)
    assert total <= CEILING, (
        f"parsing the examply accept fixtures made {total} library calls, "
        f"past the ceiling of {CEILING} ({COUNT} + 2%); a rise must be "
        f"explained in CHANGES.md, with COUNT moved to the new figure"
    )

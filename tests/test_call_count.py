"""A guard on the Python calls a parse makes, which CPU noise cannot move.

Each examply accept fixture, and one subtraction chain for the left
recursion of the expr grammar, is parsed with the root parser called
directly, under ``sys.setprofile``, and every ``call`` event of a function
defined in the library counts.  Freeze and ``run_parse``'s own set-up run
outside the count, so it is the same on every Python version the library
supports.  Each count is deterministic; a change that raises one past its
ceiling must say why in CHANGES.md and move the ceiling with it.
"""

import os
import pathlib
import sys

import txpeg
from txpeg.combinators import whitespace
from txpeg.core import ParseContext
from txpeg.demos.examply import examply_grammar
from txpeg.demos.expr import expr_grammar

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures" / "examply" / "accept"
LIBRARY = os.path.dirname(txpeg.__file__) + os.sep

#: Calls into the library while the root parser runs, over every fixture.
COUNT = 6174
CEILING = COUNT * 102 // 100

#: Calls into the library while the root parser runs over one expr chain
#: of 200 operands, nearly all of them in left-recursion growth rounds.
CHAIN_COUNT = 6626
CHAIN_CEILING = CHAIN_COUNT * 102 // 100


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


def test_a_left_recursive_chain_stays_under_the_call_ceiling():
    chain = "-".join(str(i % 10) for i in range(200))
    total = calls_while_parsing(expr_grammar(), chain)
    assert total <= CHAIN_CEILING, (
        f"parsing a 200-operand expr chain made {total} library calls, past "
        f"the ceiling of {CHAIN_CEILING} ({CHAIN_COUNT} + 2%); a rise must be "
        f"explained in CHANGES.md, with CHAIN_COUNT moved to the new figure"
    )

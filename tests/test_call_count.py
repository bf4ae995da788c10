"""A guard on the Python calls a parse makes, which CPU noise cannot move.

Each examply accept fixture, one subtraction chain for the left recursion
of the expr grammar, and one tag tree for the scans and repetition closes
of the tags grammar, is parsed with the root parser called directly,
under ``sys.setprofile``, and every ``call`` event of a function defined
in the library counts.  Freeze and ``run_parse``'s own set-up run
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
from txpeg.demos.smoke import tags_grammar

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures" / "examply" / "accept"
LIBRARY = os.path.dirname(txpeg.__file__) + os.sep

#: Calls into the library while the root parser runs, over every fixture.
COUNT = 5940
CEILING = COUNT * 102 // 100

#: Calls into the library while the root parser runs over one expr chain
#: of 200 operands, nearly all of them in left-recursion growth rounds.
CHAIN_COUNT = 6626
CHAIN_CEILING = CHAIN_COUNT * 102 // 100

#: Calls into the library while the root parser runs over ``tag_tree(4)``.
TAG_COUNT = 5119
TAG_CEILING = TAG_COUNT * 102 // 100


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


def tag_tree(depth: int) -> str:
    """A leaf at depth 0; otherwise a node named by its depth around three
    trees one level shallower (1,653 bytes at depth 4)."""
    if depth == 0:
        return "<leaf></leaf>"
    name = "node" + "abcdefgh"[depth]
    return f"<{name}>" + tag_tree(depth - 1) * 3 + f"</{name}>"


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


def test_a_tag_tree_stays_under_the_call_ceiling():
    total = calls_while_parsing(tags_grammar(), tag_tree(4))
    assert total <= TAG_CEILING, (
        f"parsing a depth-4 tag tree made {total} library calls, past the "
        f"ceiling of {TAG_CEILING} ({TAG_COUNT} + 2%); a rise must be "
        f"explained in CHANGES.md, with TAG_COUNT moved to the new figure"
    )

"""A small macro-definition language, written with no knowledge of the
indentation language, plus the grammar that composes the two.

The macro grammar is a self-contained rule map: a file is a sequence of
``macro name = <rhs>`` declarations where the right-hand side is a flat
template of words, numbers, strings, splices like ``$arg`` and
parenthesised groups.

Composition happens purely in the combined rule map.  The host grammar's
``declaration_body`` entry gains ``macro_decl`` as one more alternative,
and the macro grammar's ``macro_rhs`` extension point gains the host's
indented statement blocks.  No rule body from either side is edited; the
only new code is glue that keeps inline templates from running past the
end of their line, which matters only once lines mean something.
"""

from __future__ import annotations

from ..combinators import (
    build,
    capture,
    choice,
    collect,
    end_of_input,
    literal,
    node,
    not_,
    one_more,
    seq,
    until,
    whitespace,
    word,
    zero_more,
)
from ..grammar import FrozenGrammar, GrammarDef, ref
from .examply import (
    examply_cells,
    examply_rules,
    int_token,
    keyword,
    raw_iden,
    string_token,
)
from .indent import newline

__all__ = [
    "composed_grammar",
    "composed_rules",
    "macro_grammar",
    "macro_rules",
]


def _iden_token():
    return seq(not_(keyword("macro")), capture(raw_iden()), whitespace())


def macro_rules() -> dict:
    """A fresh, unfrozen rule map for macro files, built as
    :func:`~txpeg.demos.examply.examply_rules` builds its own: anew on
    each call, each token once."""
    iden = _iden_token()
    atom_word = build(iden, 1, node("word"))
    splice = build(seq(literal("$"), iden), 1, node("splice"))
    group = build(
        collect(seq(word("("), zero_more(ref("macro_atom")), word(")"))),
        1, node("group"),
    )
    return {
        "macro_file": until(ref("macro_decl"), end_of_input()),
        "macro_decl": build(
            seq(keyword("macro"), iden, word("="), ref("macro_rhs")),
            2, node("macro"),
        ),
        # Extension point: what a macro expands to.
        "macro_rhs": ref("macro_template"),
        "macro_template": build(collect(one_more(ref("macro_atom"))),
                                1, node("template")),
        "macro_atom": choice(ref("macro_splice"), ref("macro_group"),
                             int_token(), string_token(), atom_word),
        "macro_splice": splice,
        "macro_group": group,
    }


def macro_grammar() -> FrozenGrammar:
    return GrammarDef(macro_rules(), "macro_file").freeze()


def composed_rules(host: dict = None, guest: dict = None) -> dict:
    if host is None:
        host = examply_rules()
    if guest is None:
        guest = macro_rules()
    rules = dict(host)
    for name, body in guest.items():
        rules[name] = body
    # Macro declarations become one more kind of declaration.
    rules["declaration_body"] = choice(ref("macro_decl"),
                                       host["declaration_body"])
    # A macro body may be an indented statement block instead of an
    # inline template.
    rules["macro_rhs"] = choice(ref("stmt_block"), ref("macro_template"))
    # Inline templates must stop at the end of their own line now that
    # the surrounding language is line-oriented.
    rules["macro_atom"] = seq(not_(newline()), guest["macro_atom"])
    return rules


def composed_grammar() -> FrozenGrammar:
    return GrammarDef(composed_rules(), "program",
                      cells=examply_cells()).freeze()

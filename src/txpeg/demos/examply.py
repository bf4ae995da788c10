"""A small indentation-structured language with parse-time type tracking.

The language is deliberately compact but exercises everything the
indentation and namespace machinery offers: blocks are delimited by
indentation alone, declarations and statements end at line breaks, and
the grammar decides between a constructor call with an anonymous-class
body and a function call with a closure block by asking, mid-parse,
whether an identifier names a visible type.

Constructs: ``val``/``var`` bindings with a mandatory type annotation,
``fun`` definitions with typed parameters and an indented body, ``class``
definitions with optional superclass and optional indented body of
declarations, ``alias`` declarations, dotted ``import``s, and call
expressions with optional trailing blocks.  ``Int`` and ``String`` are
pre-seeded as built-in types so annotations have something to refer to.

:func:`examply_rules` returns a fresh rule map on every call so that
composed grammars can rebind names without disturbing anyone else;
:func:`examply_grammar` freezes one.
"""

from __future__ import annotations

from ..combinators import (
    AstNode,
    build,
    capture,
    char_pred,
    choice,
    collect,
    end_of_input,
    literal,
    node,
    not_,
    one_more,
    opt,
    opt_value,
    seq,
    until,
    whitespace,
    word,
    zero_more,
)
from ..core import Parser
from ..grammar import FrozenGrammar, GrammarDef, ref
from .indent import (
    IndentStack,
    aligned,
    dedent,
    indent,
    newline,
)
from .namespaces import (
    EnclosingClasses,
    TypeRecord,
    TypeStack,
    anon_class_inherit,
    class_def,
    names_a_type,
    new_type,
    scoped,
)

__all__ = [
    "BUILTIN_TYPES",
    "KEYWORDS",
    "examply_cells",
    "examply_grammar",
    "examply_rules",
    "iden_token",
    "int_token",
    "keyword",
    "raw_iden",
    "string_token",
    "type_name",
]

KEYWORDS = ("val", "var", "fun", "class", "alias", "import")

BUILTIN_TYPES = ("Int", "String")


def _iden_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _iden_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def raw_iden() -> Parser:
    """An identifier's characters, no whitespace and no keyword check."""
    return seq(char_pred(_iden_start, "identifier"),
               zero_more(char_pred(_iden_char, "identifier character")))


def keyword(s: str) -> Parser:
    """Match ``s`` as a whole word, then skip whitespace."""
    return seq(literal(s), not_(char_pred(_iden_char, "identifier character")),
               whitespace())


def _not_keyword() -> Parser:
    """Succeeds, consuming nothing, unless a keyword starts here."""
    return not_(choice(*[keyword(k) for k in KEYWORDS]))


def iden_token() -> Parser:
    """An identifier token: pushed as a string, keywords excluded."""
    return seq(_not_keyword(), capture(raw_iden()), whitespace())


def type_name() -> Parser:
    """An identifier that must name a visible type; pushed as a string.

    Visibility is checked before the trailing whitespace is consumed so a
    failure points at the identifier, not at the next token.
    """
    return seq(_not_keyword(), capture(raw_iden()), names_a_type(), whitespace())


def _token(p: Parser) -> Parser:
    return seq(p, whitespace())


def _str_node(s: str) -> AstNode:
    # The capture includes the quotes.
    return AstNode("str", (s[1:-1],))


def int_token() -> Parser:
    """A decimal integer token, pushed as an ``int`` node."""
    return _token(build(capture(one_more(char_pred(str.isdigit, "digit"))),
                        1, node("int")))


def string_token() -> Parser:
    """A one-line double-quoted string token, pushed as a ``str`` node."""
    str_char = char_pred(lambda c: c not in '"\n\x00', "string character")
    return _token(build(capture(seq(literal('"'), zero_more(str_char),
                                    literal('"'))),
                        1, _str_node))


def _import_node(pkg: str, name: str) -> AstNode:
    # The captured package prefix carries its trailing dot.
    return AstNode("import", (pkg[:-1], name))


def examply_rules() -> dict:
    """A fresh, unfrozen rule map for the language.

    Each call builds every parser object anew, so callers may rebind names
    (for grammar composition) without affecting other grammars, and two
    maps share no object.  Within one map each token is built once and
    reused wherever the rules name it; freeze would merge the copies
    anyway, so building them would only slow set-up.
    """
    iden = iden_token()
    tname = type_name()
    arg_list = collect(seq(
        word("("),
        opt(seq(ref("expression"), zero_more(seq(word(","), ref("expression"))))),
        word(")"),
    ))
    param = build(seq(iden, word(":"), tname), 2, node("param"))
    param_list = collect(seq(
        word("("),
        opt(seq(param, zero_more(seq(word(","), param)))),
        word(")"),
    ))

    pkg_prefix = capture(one_more(seq(raw_iden(), literal("."))))

    return {
        "program": until(ref("statement"), end_of_input()),
        "statement": seq(aligned(),
                         choice(ref("declaration"),
                                seq(ref("expression"), newline()))),
        "declaration": seq(aligned(), ref("declaration_body"), newline()),
        "declaration_body": choice(
            ref("val_decl"), ref("var_decl"), ref("fun_decl"),
            ref("class_decl"), ref("alias_decl"), ref("import_decl"),
        ),
        "val_decl": build(seq(keyword("val"), iden, word(":"),
                              tname, word("="), ref("expression")),
                          3, node("val")),
        "var_decl": build(seq(keyword("var"), iden, word(":"),
                              tname, word("="), ref("expression")),
                          3, node("var")),
        "fun_decl": build(seq(keyword("fun"), iden, param_list,
                              opt_value(seq(word(":"), tname)),
                              ref("stmt_block")),
                          4, node("fun")),
        "class_decl": build(seq(keyword("class"), new_type(iden),
                                opt_value(seq(word(":"), tname)),
                                class_def(opt_value(ref("decl_block")))),
                            3, node("class")),
        "alias_decl": build(new_type(seq(keyword("alias"), iden,
                                         word("="), tname),
                                     alias=True),
                            2, node("alias")),
        "import_decl": build(seq(keyword("import"), _token(pkg_prefix),
                                 new_type(iden)),
                             2, _import_node),
        "stmt_block": collect(seq(indent(),
                                  scoped(until(ref("statement"), dedent())))),
        "decl_block": collect(seq(indent(),
                                  until(ref("declaration"), dedent()))),
        "expression": choice(ref("ctor_call"), ref("func_call"),
                             int_token(), string_token(), ref("iden_ref")),
        "ctor_call": build(seq(iden, names_a_type(),
                               arg_list, opt_value(ref("ctor_body"))),
                           3, node("ctor")),
        "ctor_body": scoped(seq(anon_class_inherit(), ref("decl_block"))),
        "func_call": build(seq(iden, arg_list,
                               opt_value(ref("stmt_block"))),
                           3, node("call")),
        "iden_ref": build(iden, 1, node("ref")),
    }


def _seeded_types() -> TypeStack:
    cell = TypeStack()
    for name in BUILTIN_TYPES:
        cell.push(TypeRecord(name))
    return cell


def examply_cells() -> tuple:
    """Cell factories every parse of this language needs."""
    return (IndentStack, _seeded_types, EnclosingClasses)


def examply_grammar() -> FrozenGrammar:
    return GrammarDef(examply_rules(), "program",
                      cells=examply_cells()).freeze()

"""Command-line driver: parse a file under a named grammar.

Exit status: 0 when the parse succeeds, 1 when it fails (with a
``path:line:col: message`` diagnostic on stderr; input nested past
Python's recursion limit fails this way too, with the message ``input
nests too deeply``), 2 for usage errors or an input that cannot be read
or is not UTF-8, 3 when the parsed AST nests too deeply to print
(Python's recursion limit), with one ``path: input nests too deeply``
line on stderr, 4 when the grammar or a state cell breaks the library's
contract during the parse (a ``ContractViolationError`` or
``ConfigurationError``), with one ``path: internal error: message`` line
on stderr.  Input is decoded as strict UTF-8 with universal newlines,
from a file and from stdin alike.  On success the AST goes to stdout,
either as an indented tree or as deterministic JSON; the JSON form
doubles as the fixture format for expected-output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

from .combinators import AstNode
from .core import ConfigurationError, ContractViolationError
from .demos.examply import examply_grammar
from .demos.expr import expr_grammar
from .demos.smoke import anbncn_grammar, tags_grammar
from .grammar import FrozenGrammar, run_parse

__all__ = ["GRAMMARS", "ast_from_data", "ast_to_data", "dump_ast", "main"]

GRAMMARS: dict = {
    "examply": examply_grammar,
    "anbncn": anbncn_grammar,
    "tags": tags_grammar,
    "expr": expr_grammar,
}


def ast_to_data(value):
    """AST value → plain data: nodes become {kind, span, children}."""
    if isinstance(value, AstNode):
        span = list(value.span) if value.span is not None else None
        return {
            "kind": value.kind,
            "span": span,
            "children": [ast_to_data(c) for c in value.children],
        }
    if isinstance(value, list):
        return [ast_to_data(v) for v in value]
    return value


def ast_from_data(data):
    """Inverse of :func:`ast_to_data`, for structural round-trips."""
    if isinstance(data, dict):
        span = tuple(data["span"]) if data["span"] is not None else None
        children = tuple(ast_from_data(c) for c in data["children"])
        return AstNode(data["kind"], children, span)
    if isinstance(data, list):
        return [ast_from_data(v) for v in data]
    return data


def _tree_lines(value, depth: int, out: list) -> None:
    pad = "  " * depth
    if isinstance(value, AstNode):
        span = value.span
        where = f" [{span[0]},{span[1]})" if span is not None else ""
        out.append(f"{pad}{value.kind}{where}")
        for child in value.children:
            _tree_lines(child, depth + 1, out)
    elif isinstance(value, list):
        out.append(f"{pad}list ({len(value)})")
        for item in value:
            _tree_lines(item, depth + 1, out)
    else:
        out.append(f"{pad}{value!r}")


def dump_ast(ast: list, fmt: str) -> str:
    """Serialize a parse result (a list of top-level values)."""
    if fmt == "json":
        return json.dumps(ast_to_data(ast), indent=2) + "\n"
    out: list = []
    for value in ast:
        _tree_lines(value, 0, out)
    return "".join(line + "\n" for line in out)


def _read_input(path: str) -> str:
    # Bytes, so stdin decodes as strictly as a file whatever the locale;
    # a stdin without a byte buffer (a StringIO, say) is read as text.
    if path == "-":
        buffer = getattr(sys.stdin, "buffer", None)
        if buffer is None:
            return sys.stdin.read()
        data = buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="txpeg",
        description="Parse a file under one of the bundled grammars.",
    )
    parser.add_argument("--grammar", required=True, choices=sorted(GRAMMARS),
                        help="which grammar to parse with")
    parser.add_argument("input", help="input file path, or - for stdin")
    parser.add_argument("--format", choices=("tree", "json"), default="tree",
                        help="AST output format (default: tree)")
    parser.add_argument("--trace-state", action="store_true",
                        help="log state operations to stderr")
    parser.add_argument("--partial", action="store_true",
                        help="allow the parse to stop before end of input")
    try:
        config = parser.parse_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 2

    grammar: FrozenGrammar = GRAMMARS[config.grammar]()
    try:
        text = _read_input(config.input)
    except OSError as exc:
        print(f"cannot read {config.input}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"cannot read {config.input}: not UTF-8 "
              f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})",
              file=sys.stderr)
        return 2

    trace: Optional[Callable] = None
    if config.trace_state:
        trace = lambda line: print(line, file=sys.stderr)

    try:
        outcome = run_parse(grammar, text, partial=config.partial, trace=trace)
    except (ContractViolationError, ConfigurationError) as exc:
        print(f"{config.input}: internal error: {exc}", file=sys.stderr)
        return 4
    if not outcome.success:
        err = outcome.error
        print(f"{config.input}:{err.line}:{err.column}: {err.message}",
              file=sys.stderr)
        return 1
    try:
        output = dump_ast(outcome.ast, config.format)
    except RecursionError:
        print(f"{config.input}: input nests too deeply", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return 0

"""Command-line driver: parse a file under a named grammar.

Exit status: 0 when the parse succeeds, 1 when it fails (with a
``path:line:col: message`` diagnostic on stderr; input nested past
Python's recursion limit fails this way too, with the message ``input
nests too deeply``), 2 for usage errors, an input that cannot be read
or is not UTF-8, or an AST that cannot be written (one ``cannot write
output: reason`` line on stderr), 4 when the grammar or a state cell
breaks the library's contract during the parse (a
``ContractViolationError`` or ``ConfigurationError``), with one ``path:
internal error: message`` line on stderr.  Input is decoded as strict
UTF-8 with universal newlines, from a file and from stdin alike.  On
success the AST goes to stdout, as an indented tree, as deterministic
JSON indented by two spaces (the fixture format for expected-output
files, which grows with the square of the nesting depth), or as the
same JSON on one line (``json-compact``, which grows with the AST).
All are written with explicit stacks, not recursion, so an AST of any
depth prints.

Each entry of :data:`GRAMMARS` imports its demo module only when it is
called, so a run loads and compiles just the grammar it parses.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

from .combinators import AstNode
from .core import ConfigurationError, ContractViolationError
from .grammar import FrozenGrammar, run_parse

__all__ = ["GRAMMARS", "ast_to_data", "dump_ast", "main"]


def _on_demand(module: str, factory: str) -> Callable[[], FrozenGrammar]:
    """A grammar factory that imports its demo module when first called."""
    return lambda: getattr(importlib.import_module(module, __package__), factory)()


GRAMMARS: dict = {
    "examply": _on_demand(".demos.examply", "examply_grammar"),
    "anbncn": _on_demand(".demos.smoke", "anbncn_grammar"),
    "tags": _on_demand(".demos.smoke", "tags_grammar"),
    "expr": _on_demand(".demos.expr", "expr_grammar"),
}


def ast_to_data(value):
    """AST value → plain data: nodes become {kind, span, children}."""
    # Each item is a value and the list its data goes into; children are
    # pushed last first, so they are converted, and appended, in order.
    top: list = []
    stack = [(value, top)]
    while stack:
        value, into = stack.pop()
        if isinstance(value, AstNode):
            children: list = []
            span = [value.start, value.end] if value.start is not None else None
            into.append({"kind": value.kind, "span": span, "children": children})
            stack.extend((c, children) for c in reversed(value.children))
        elif isinstance(value, list):
            items: list = []
            into.append(items)
            stack.extend((v, items) for v in reversed(value))
        else:
            into.append(value)
    return top[0]


def _tree_lines(value, depth: int, out: list) -> None:
    stack = [(value, depth)]
    while stack:
        value, depth = stack.pop()
        pad = "  " * depth
        if isinstance(value, AstNode):
            where = f" [{value.start},{value.end})" if value.start is not None else ""
            out.append(f"{pad}{value.kind}{where}")
            stack.extend((c, depth + 1) for c in reversed(value.children))
        elif isinstance(value, list):
            out.append(f"{pad}list ({len(value)})")
            stack.extend((v, depth + 1) for v in reversed(value))
        else:
            out.append(f"{pad}{value!r}")


def _json_text(data, pad: str = "  ") -> str:
    """``json.dumps(data, indent=2)``, or with an empty ``pad``
    ``json.dumps(data, separators=(",", ":"))``, byte for byte, without
    recursion."""
    newline, colon = ("\n", ": ") if pad else ("", ":")
    out: list = []
    # The open containers, outermost first: each one's iterator over its
    # remaining (prefix, value) items, and the text that closes it.
    stack: list = []
    items, closer = iter((("", data),)), ""
    while True:
        for prefix, value in items:
            if isinstance(value, str):
                out.append(prefix + encode_basestring_ascii(value))
            elif type(value) is int:
                out.append(prefix + repr(value))
            elif value is None:
                out.append(prefix + "null")
            elif isinstance(value, (list, tuple, dict)):
                is_dict = isinstance(value, dict)
                if not value:
                    out.append(prefix + ("{}" if is_dict else "[]"))
                    continue
                stack.append((items, closer))
                inner = newline + pad * len(stack)
                outer = inner[:len(inner) - len(pad)]
                prefixes = chain((inner,), repeat("," + inner))
                if is_dict:
                    out.append(prefix + "{")
                    closer = outer + "}"
                    items = ((p + encode_basestring_ascii(k) + colon, v)
                             for p, (k, v) in zip(prefixes, value.items()))
                else:
                    out.append(prefix + "[")
                    closer = outer + "]"
                    items = zip(prefixes, value)
                break
            else:
                out.append(prefix + json.dumps(value))
        else:
            out.append(closer)
            if not stack:
                return "".join(out)
            items, closer = stack.pop()


def dump_ast(ast: list, fmt: str) -> str:
    """Serialize a parse result (a list of top-level values) as a
    ``tree``, indented ``json`` or one-line ``json-compact``."""
    if fmt in ("json", "json-compact"):
        return _json_text(ast_to_data(ast), "  " if fmt == "json" else "") + "\n"
    out: list = []
    for value in ast:
        _tree_lines(value, 0, out)
    return "".join(line + "\n" for line in out)


def _read_input(path: str) -> str:
    # Bytes, so stdin decodes as strictly as a file whatever the locale;
    # a stdin without a byte buffer (a StringIO, say) is read as text.
    if path != "-":
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    elif getattr(sys.stdin, "buffer", None) is None:
        text = sys.stdin.read()
    else:
        text = sys.stdin.buffer.read().decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="txpeg",
        description="Parse a file under one of the bundled grammars.",
    )
    parser.add_argument("--grammar", required=True, choices=sorted(GRAMMARS),
                        help="which grammar to parse with")
    parser.add_argument("input", help="input file path, or - for stdin")
    parser.add_argument("--format", choices=("tree", "json", "json-compact"),
                        default="tree", help="AST output format (default: tree)")
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
        sys.stdout.write(dump_ast(outcome.ast, config.format))
        sys.stdout.flush()
    except OSError as exc:
        print(f"cannot write output: {exc.strerror or exc}", file=sys.stderr)
        _discard_stdout()
        return 2
    return 0


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so the output still
    buffered is dropped quietly when the interpreter flushes it at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())

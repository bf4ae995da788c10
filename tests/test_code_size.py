"""A guard on the size of the library, counted so that prose cannot move it.

A code line of ``src/txpeg`` is a line that holds a token other than a
comment, a newline, an indent or a dedent, outside the docstrings of
modules, classes and functions.  Trimming docstrings, comments or blank
lines changes nothing; only code does.  The count is deterministic; a
change that raises it past its ceiling must say why in CHANGES.md and move
the ceiling with it, as ``test_call_count.py`` does for calls.
"""

import ast
import io
import pathlib
import tokenize

import txpeg

LIBRARY = pathlib.Path(txpeg.__file__).parent

#: The most code lines ``src/txpeg`` may hold, every module of its tree.
CEILING = 1817

#: The tokens that make no line a code line.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The lines of each module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def test_the_count_skips_docstrings_comments_and_blank_lines():
    source = ('"""Module."""\n\n# note\nx = (1,\n     2)  # two\n\n'
              'def f():\n    """Doc,\n    two lines."""\n    return """a\nb"""\n')
    # x's two lines, def, return and the string it returns.
    assert code_lines(source) == 5


def test_the_library_stays_under_its_code_line_ceiling():
    count = sum(code_lines(path.read_text()) for path in sorted(LIBRARY.rglob("*.py")))
    assert count <= CEILING, f"{count} code lines, past the ceiling of {CEILING}"

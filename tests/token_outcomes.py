"""Golden outcomes of short token sequences under examply and composed.

Every input of one to three tokens drawn from :data:`TOKENS` is parsed
under both grammars.  Tokens are separated by one space, except that none
goes next to a newline, so a line break starts the next line's content.
The outcome recorded for each input is whether it succeeded, where it
stopped or failed, and the error message.  ``tests/token_outcomes.json``
holds the committed outcomes, and ``tests/test_token_outcomes.py`` checks
them.

Run from the repository root:

    PYTHONPATH=src python3 tests/token_outcomes.py          # compare only
    PYTHONPATH=src python3 tests/token_outcomes.py --write  # refresh the file

Either way the inputs whose outcome differs from the file are printed.
Without ``--write`` the file is left alone and the exit status is 1 when
anything differs; with it the file is rewritten.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import sys

from txpeg.demos.examply import examply_grammar
from txpeg.demos.macro import composed_grammar
from txpeg.grammar import run_parse

TOKENS = ("val", "x", ":", "Int", "=", "(", ")", "fun", "class", "{", "}", "\n")

GRAMMARS = {"examply": examply_grammar, "composed": composed_grammar}

DATA = pathlib.Path(__file__).with_name("token_outcomes.json")

REFRESH = "PYTHONPATH=src python3 tests/token_outcomes.py --write"


def join(tokens) -> str:
    text = tokens[0]
    for before, token in zip(tokens, tokens[1:]):
        text += token if "\n" in (before, token) else " " + token
    return text


def inputs() -> list:
    """Every 1-3 token input, in a fixed order."""
    return [join(combo)
            for n in (1, 2, 3)
            for combo in itertools.product(TOKENS, repeat=n)]


def outcome(grammar, text: str) -> list:
    """[success, position, message]: the end position on success, the
    error's position and message on failure."""
    result = run_parse(grammar, text)
    if result.success:
        return [True, result.end_position, None]
    return [False, result.error.position, result.error.message]


def compute() -> dict:
    texts = inputs()
    table = {}
    for name, make in GRAMMARS.items():
        grammar = make()
        table[name] = {text: outcome(grammar, text) for text in texts}
    return table


def load() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def differences(old: dict, new: dict) -> list:
    """One line per (grammar, input) whose outcome is not the same."""
    lines = []
    for name in sorted(set(old) | set(new)):
        before, after = old.get(name, {}), new.get(name, {})
        for text in sorted(set(before) | set(after)):
            if before.get(text) != after.get(text):
                lines.append(f"{name} {text!r}: {before.get(text)} -> {after.get(text)}")
    return lines


def dumps(table: dict) -> str:
    # One input per line, so a changed outcome shows as a one-line diff.
    parts = ["{"]
    for i, name in enumerate(table):
        parts.append(f"  {json.dumps(name)}: {{")
        rows = list(table[name].items())
        for j, (text, result) in enumerate(rows):
            comma = "," if j < len(rows) - 1 else ""
            parts.append(f"    {json.dumps(text)}: {json.dumps(result)}{comma}")
        parts.append("  }" + ("," if i < len(table) - 1 else ""))
    parts.append("}")
    return "\n".join(parts) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the golden file with the current outcomes")
    config = parser.parse_args(argv)
    new = compute()
    old = load() if DATA.exists() else {}
    changed = differences(old, new)
    for line in changed:
        print(line)
    if config.write:
        DATA.write_text(dumps(new), encoding="utf-8")
        print(f"wrote {DATA.name}: {len(changed)} outcomes changed")
        return 0
    if changed:
        print(f"{len(changed)} outcomes differ from {DATA.name}; "
              f"refresh with: {REFRESH}", file=sys.stderr)
        return 1
    print(f"{DATA.name} is up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main())

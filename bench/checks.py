"""Output checks that do not depend on the library under test.

Each check takes a generated :class:`~gen.Doc` and the ``ParseOutcome``
that ``run_parse`` returned for it, and returns None when the outcome is
right or a one-line reason when it is not.  Expected values come from the
generator's record or from a small oracle written here: a left fold for
subtraction chains, run counting for a^n b^n c^n.
"""

from __future__ import annotations

from gen import Doc, Stmt

# Index of the statement's name and of its block among the node's children.
_NAME_AT = {"import": 1}
_BLOCK_AT = {"fun": 3, "class": 2, "call": 2, "ctor": 2, "macro": 1}


def check(doc: Doc, outcome) -> str | None:
    if doc.grammar in ("examply", "composed"):
        return _check_examply(doc, outcome)
    if doc.grammar == "expr":
        return _check_expr(doc, outcome)
    if doc.grammar == "tags":
        return _check_tags(doc, outcome)
    return _check_anbncn(doc, outcome)


def check_deep(doc: Doc, outcome) -> str | None:
    """Deeply nested inputs pass with the right result or a located error."""
    if not outcome.success:
        err = outcome.error
        if err is None or not 0 <= err.position <= len(doc.text):
            return f"unlocated failure {err!r}"
        return None
    return check(doc, outcome)


def _accepted_whole(doc: Doc, outcome) -> str | None:
    if not outcome.success:
        return f"rejected at {outcome.error.position}: {outcome.error.message}"
    if outcome.end_position != len(doc.text):
        return f"stopped at {outcome.end_position} of {len(doc.text)}"
    return None


def _check_examply(doc: Doc, outcome) -> str | None:
    bad = _accepted_whole(doc, outcome)
    if bad:
        return bad
    bad = _spans_nest(outcome.ast, (0, len(doc.text)))
    if bad:
        return bad
    return _statements_match(doc.record, outcome.ast, "program")


def _statements_match(records: list, values, where: str) -> str | None:
    if not isinstance(values, list) or len(values) != len(records):
        got = len(values) if isinstance(values, list) else values
        return f"{where}: expected {len(records)} statements, got {got!r}"
    for rec, node in zip(records, values):
        bad = _statement_matches(rec, node, where)
        if bad:
            return bad
    return None


def _statement_matches(rec: Stmt, node, where: str) -> str | None:
    here = f"{where} > {rec.kind} {rec.name}@{rec.start}"
    kind = getattr(node, "kind", None)
    if kind != rec.kind:
        return f"{here}: node kind {kind!r}"
    if node.span is None or node.span[0] != rec.start:
        return f"{here}: span {node.span}"
    if node.children[_NAME_AT.get(rec.kind, 0)] != rec.name:
        return f"{here}: name {node.children[_NAME_AT.get(rec.kind, 0)]!r}"
    if rec.kind not in _BLOCK_AT:
        return None
    block = node.children[_BLOCK_AT[rec.kind]]
    if rec.block is not None:
        return _statements_match(rec.block, block, here)
    if block is None or (rec.kind == "macro" and getattr(block, "kind", None) == "template"):
        return None
    return f"{here}: unexpected block {block!r}"


def _spans_nest(values, outer: tuple) -> str | None:
    """Every node's span lies inside the span of the node that holds it."""
    stack = [(values, outer)]
    while stack:
        value, (lo, hi) = stack.pop()
        if isinstance(value, list):
            stack.extend((v, (lo, hi)) for v in value)
        elif hasattr(value, "kind"):
            span = value.span
            if span is None or not lo <= span[0] <= span[1] <= hi:
                return f"span {span} of {value.kind} outside [{lo}, {hi})"
            stack.extend((c, span) for c in value.children)
    return None


def evaluate(tree) -> int:
    """Value of a sub/num tree, without recursion."""
    values: list = []
    stack = [(tree, False)]
    while stack:
        node, ready = stack.pop()
        if node.kind == "num":
            values.append(int(node.children[0]))
        elif ready:
            right = values.pop()
            values.append(values.pop() - right)
        else:
            stack.append((node, True))
            stack.append((node.children[1], False))
            stack.append((node.children[0], False))
    return values.pop()


def _check_expr(doc: Doc, outcome) -> str | None:
    bad = _accepted_whole(doc, outcome)
    if bad:
        return bad
    if len(outcome.ast) != 1:
        return f"expected one tree, got {len(outcome.ast)} values"
    operands = doc.record
    expected = operands[0]
    for v in operands[1:]:
        expected -= v
    got = evaluate(outcome.ast[0])
    if got != expected:
        return f"tree evaluates to {got}, left fold gives {expected}"
    return None


def _check_tags(doc: Doc, outcome) -> str | None:
    bad_closer = doc.record.bad_closer
    if bad_closer is None:
        return _accepted_whole(doc, outcome) or (
            None if outcome.ast == [] else f"unexpected values {outcome.ast!r}")
    if outcome.success:
        return f"renamed closer at {bad_closer} accepted"
    if outcome.error.position != bad_closer:
        return f"rejected at {outcome.error.position}, renamed closer at {bad_closer}"
    return None


def _runs(text: str) -> list:
    """Lengths of the a, b and c runs, or None when the text is not a*b*c*."""
    runs = []
    i = 0
    for ch in "abc":
        j = i
        while j < len(text) and text[j] == ch:
            j += 1
        runs.append(j - i)
        i = j
    return runs if i == len(text) else None


def _check_anbncn(doc: Doc, outcome) -> str | None:
    runs = _runs(doc.text)
    if runs is None or tuple(runs) != doc.record:
        return f"generator emitted runs {runs}, recorded {doc.record}"
    if runs[0] == runs[1] == runs[2]:
        return _accepted_whole(doc, outcome)
    if outcome.success:
        return f"unequal runs {runs} accepted"
    return None

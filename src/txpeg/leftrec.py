"""Left recursion by seed growing, on top of the transaction machinery.

A :class:`LeftRec` wrapper runs its body once with recursive re-entry
blocked to obtain a seed: the aggregate delta from its entry to the end of
that run.  It then re-runs the body repeatedly, letting each left-recursive
re-entry consume the current seed (merge the delta, jump to its end), and
keeps the run as the new seed while the end position still grows.  Seeds
are ordinary aggregate deltas, so AST effects replay along with the
position.  The calls in flight are keyed by (parser id, position) in the
plain dict ``ParseContext.seeds``, which needs no trail: a call adds its
key on entry and deletes it on every exit, so the map follows the call
stack, and no snapshot taken inside a call outlives it.

The companion :func:`check_recursion_annotated` runs at grammar freeze:
any cycle of invocations that can come back to the same parser at the same
input position must pass through a :class:`LeftRec` node, otherwise the
grammar would recurse without bound and is rejected with the offending
cycle named.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .core import (
    SUCCESS,
    ConfigurationError,
    Failure,
    ParseContext,
    ParseResult,
    Parser,
)

__all__ = [
    "LeftRec",
    "check_recursion_annotated",
    "leftrec",
]


_BLOCKED = object()


class LeftRec(Parser):
    """Allow the wrapped parser to invoke itself at its own position."""

    shareable = False       # its seeds are keyed by its identity

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> ParseResult:
        seeds = ctx.seeds
        key = (id(self), ctx.position)
        seed = seeds.get(key)
        if seed is not None:
            if seed is _BLOCKED:
                # Deliberate control flow, not a diagnosable user error:
                # bypass the furthest-failure record.
                return Failure(ctx.position, "left-recursive invocation blocked")
            ctx.merge(seed)
            return SUCCESS

        body = self.children[0]
        entry_snap = ctx.snapshot()
        seeds[key] = _BLOCKED
        try:
            r = body.parse(ctx)
            if not r.ok:
                return r
            best = ctx.diff(entry_snap)
            while True:
                ctx.restore(entry_snap)
                seeds[key] = best
                if not body.parse(ctx).ok:
                    break
                grown = ctx.diff(entry_snap)
                if grown.end_position <= best.end_position:
                    break
                best = grown
            ctx.restore(entry_snap)
            ctx.merge(best)
            return SUCCESS
        finally:
            del seeds[key]

    def left_children(self, nullable) -> tuple:
        return ()

    def first(self, child_first, nullable):
        # A match starts with the seed's first character, which the body
        # consumes; a body that reaches back here is a cycle, so unknown.
        return child_first(self.children[0])


leftrec = LeftRec


# ---------------------------------------------------------------------------
# Freeze-time check.
#
# The dangerous graph is not every reference cycle: a parser that calls
# itself only after consuming input unwinds fine.  What must not exist is a
# cycle in the left-call graph, whose edges connect a parser to the
# children it can invoke at its own entry position.  Each parser class
# states both facts the check needs through its own hooks,
# Parser.nullable and Parser.left_children: sequences contribute edges up
# to and including their first non-nullable element, LeftRec none at all
# (so no cycle can pass through one, which is exactly what "annotated"
# means), everything else all of its children.  The check runs over the
# private copy of the graph that freeze builds.


def _nullability(nodes: list[Parser]) -> Callable[[Parser], bool]:
    # Least fixpoint: start from "consumes input" everywhere and grow.
    nullable = {id(p): False for p in nodes}

    def is_nullable(p: Parser) -> bool:
        return nullable[id(p)]

    # Freeze lists parents before their children; visiting children first
    # settles most nodes in the first pass.
    changed = True
    while changed:
        changed = False
        for p in reversed(nodes):
            if not nullable[id(p)] and p.nullable(is_nullable):
                nullable[id(p)] = True
                changed = True
    return is_nullable


def check_recursion_annotated(rules: dict[str, Parser],
                              nodes: list[Parser]) -> Callable[[Parser], bool]:
    """Reject grammars whose left-call graph cycles outside LeftRec.

    ``nodes`` is every parser reachable from the resolved rule bodies in
    ``rules``; the error message names a cycle by the rules it passes
    through.  Returns the nullability of each node, which the check
    worked out on the way.
    """
    is_nullable = _nullability(nodes)
    # Rules with equal bodies share one node, so a node has every name.
    names: dict[int, list] = {}
    for name, body in rules.items():
        names.setdefault(id(body), []).append(name)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {id(p): WHITE for p in nodes}
    for start in nodes:
        if color[id(start)] != WHITE:
            continue
        # Iterative DFS; the stack's parsers are the gray path, kept for
        # cycle reporting.
        stack: list[tuple[Parser, Iterable]] = [
            (start, iter(start.left_children(is_nullable)))
        ]
        color[id(start)] = GRAY
        while stack:
            parent, children = stack[-1]
            for child in children:
                c = color[id(child)]
                if c == GRAY:
                    # Every cycle passes through a reference, hence a rule
                    # body: name the cycle by those.
                    path = [p for p, _ in stack]
                    cycle = ["/".join(names[id(p)]) for p in path[path.index(child):]
                             if id(p) in names]
                    raise ConfigurationError(
                        "left-recursive cycle without a leftrec annotation: "
                        + " -> ".join(cycle + cycle[:1])
                    )
                if c == WHITE:
                    color[id(child)] = GRAY
                    stack.append((child, iter(child.left_children(is_nullable))))
                    break
            else:
                color[id(parent)] = BLACK
                stack.pop()
    return is_nullable

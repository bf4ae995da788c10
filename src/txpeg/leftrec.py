"""Left recursion by seed growing, on top of the transaction machinery.

A :class:`LeftRec` wrapper runs its body in rounds, each a run of the
body, a :meth:`~txpeg.core.ParseContext.diff` from the call's entry and a
:meth:`~txpeg.core.ParseContext.restore` to it.  Round 0 is the seed
round: it runs with recursive re-entry blocked, and its delta is the first
seed, even one that ends where the call began.  Each later round lets every
left-recursive re-entry consume the best seed so far (merge the delta, jump
to its end), and keeps its delta as the new seed while the end position
still grows.  If round 0 fails, so does the call.

Seeds are ordinary aggregate deltas, so AST effects replay along with the
position, and a delta has no cell part when its run logged nothing on the
trail.  A seed's AST effects are the segment of links the run pushed,
shared rather than copied: a re-entry that merges the seed where the run
began, before the body has pushed anything, makes that segment the stack's
top again in one step, and one that merges it above other output grafts
its values there.
The calls in flight are keyed by (parser id, position) in the plain dict
``ParseContext.seeds``, which needs no trail: a call adds its key on
entry and deletes it on every exit, so the map follows the call stack,
and no snapshot taken inside a call outlives it.

A re-entry while the seed is still being found is blocked: it fails, and
records ``left-recursive invocation blocked`` at its position only when
the furthest-failure record lies behind it, so it never displaces a
record at or past that position.

Freeze (:mod:`txpeg.grammar`) rejects every cycle of calls that can come
back to the same parser at the same input position without passing
through a :class:`LeftRec` node.
"""

from __future__ import annotations

from .core import ParseContext, Parser

__all__ = ["LeftRec", "leftrec"]


_BLOCKED = object()


class LeftRec(Parser):
    """Allow the wrapped parser to invoke itself at its own position."""

    shareable = False       # its seeds are keyed by its identity

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> bool:
        seeds = ctx.seeds
        key = (id(self), ctx.position)
        seed = seeds.get(key)
        if seed is not None:
            if seed is _BLOCKED:
                # Deliberate control flow, not a diagnosable user error:
                # recorded only past every other failure, displacing none.
                return ctx.furthest_at < ctx.position and ctx.fail(
                    ctx.position, "left-recursive invocation blocked")
            ctx.merge(seed)
            return True

        body = self.children[0]
        entry_snap = ctx.snapshot()
        seeds[key] = _BLOCKED
        best = None
        try:
            # Round 0 runs blocked and finds the seed; each later round
            # re-enters on the best seed so far.  Every way out of the loop
            # leaves the context at entry_snap: a failed body rewinds
            # itself, and restore rewinds the rest.
            while body.parse(ctx):
                grown = ctx.diff(entry_snap)
                ctx.restore(entry_snap)
                if best is not None and grown.end_position <= best.end_position:
                    break
                seeds[key] = best = grown
            if best is None:
                return False
            ctx.merge(best)
            return True
        finally:
            del seeds[key]

    def left_children(self, nullable) -> tuple:
        return ()

    def first(self, child_first, nullable):
        # A match starts with the seed's first character, which the body
        # consumes; a body that reaches back here is a cycle, so unknown.
        return child_first(self.children[0])


leftrec = LeftRec


"""Reference model of transactional state, used by the test suite.

The model represents parse state as an append-only log of opaque change
labels.  A state is simply the tuple of every change applied so far, a
snapshot is the state itself, and a delta is a suffix of the log.  The four
transactional operations then have one-line definitions whose algebra is
easy to check exhaustively:

* ``model_snapshot`` is the identity,
* ``model_restore`` returns the snapshot,
* ``model_diff`` chops a known prefix off the log,
* ``model_merge`` appends a delta.

Real state cells are compared against this model: driving a cell and the
log with the same change sequence must leave both observably equivalent.
The model is deliberately inefficient; it exists to be obviously correct,
not to be fast.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = [
    "ModelError",
    "ModelParser",
    "model_apply_change",
    "model_call",
    "model_diff",
    "model_merge",
    "model_restore",
    "model_snapshot",
]


class ModelError(Exception):
    """A model operation was applied outside its stated precondition."""


def model_snapshot(state: tuple) -> tuple:
    """Return a snapshot of ``state``; in the log model, the state itself."""
    return state


def model_apply_change(change, state: tuple) -> tuple:
    """Append one change to the log."""
    return state + (change,)


def model_restore(snapshot: tuple, state: tuple) -> tuple:
    """Rewind to ``snapshot``, discarding everything applied after it."""
    return snapshot


def model_diff(snapshot: tuple, state: tuple) -> tuple:
    """Return the changes applied since ``snapshot``.

    ``snapshot`` must be a prefix of ``state``; a snapshot that the current
    log did not grow out of has no meaningful difference and raises
    :class:`ModelError`.
    """
    n = len(snapshot)
    if state[:n] != snapshot:
        raise ModelError("snapshot is not a prefix of the current state")
    return state[n:]


def model_merge(delta: tuple, state: tuple) -> tuple:
    """Replay ``delta`` on top of ``state`` by appending it to the log."""
    return state + delta


class ModelParser:
    """A parser as the model sees it: a verdict plus a trace of transforms.

    ``result`` maps a state to a boolean verdict; ``trace`` maps a state to
    the sequence of state transforms the parser would perform from there.
    """

    def __init__(self, result: Callable[[tuple], bool],
                 trace: Callable[[tuple], Sequence[Callable[[tuple], tuple]]]):
        self.result = result
        self.trace = trace


def model_call(parser: ModelParser, state: tuple) -> tuple:
    """Invoke ``parser`` on ``state``.

    A successful invocation applies the parser's whole trace, left to
    right; a failed one leaves the state exactly as it was.
    """
    if not parser.result(state):
        return state
    for transform in parser.trace(state):
        state = transform(state)
    return state

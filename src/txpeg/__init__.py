"""Transactional parser combinators with pluggable mutable parse state.

Parsers either succeed with their effects in place or fail having put the
position and every registered state cell back exactly as they were.  That
discipline is what lets recognition decisions depend on earlier parsing
(indentation levels, visible type names, tag stacks) without backtracking
corrupting anything.

The interesting pieces:

- :mod:`txpeg.core` — the parse context with its undo trail and its own
  AST stack, the cell contract (snapshot and restore, with whole-version
  diff and merge by default), and the furthest-failure record.
- :mod:`txpeg.states` — ready-made cell strategies: full-copy, persistent
  stacks, an append-only stack with graftable diffs (and the AST stack
  built on it), a copy-on-write map, and an inert base for derived data.
- :mod:`txpeg.combinators` — the combinator set plus AST building.
- :mod:`txpeg.leftrec` — seed-growing left recursion.
- :mod:`txpeg.grammar` — named rule maps, freezing with its checks of
  the parser graph, and the parse driver.
- :mod:`txpeg.demos` — worked grammars: significant indentation,
  parse-time namespaces, equal runs, matched tags, left-associative
  subtraction, and grammar composition.
"""

from .combinators import AstNode, AstStack
from .core import ContractViolationError, ParseContext, Parser, StateCell
from .grammar import (
    ConfigurationError,
    FrozenGrammar,
    GrammarDef,
    ParseError,
    ParseOutcome,
    ref,
    run_parse,
)
from .leftrec import leftrec
from .states import CopyState, InertState, MapState, MonotonicStack, StackState

__all__ = [
    "AstNode",
    "AstStack",
    "ConfigurationError",
    "ContractViolationError",
    "CopyState",
    "FrozenGrammar",
    "GrammarDef",
    "InertState",
    "MapState",
    "MonotonicStack",
    "ParseContext",
    "ParseError",
    "ParseOutcome",
    "Parser",
    "StackState",
    "StateCell",
    "leftrec",
    "ref",
    "run_parse",
]

__version__ = "0.1.0"

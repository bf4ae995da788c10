"""Grammar assembly: named rules, references, freezing, and the driver.

A grammar is a mapping from rule names to parser bodies plus a root name.
Bodies refer to other rules through :func:`ref` stubs; :meth:`GrammarDef.freeze`
copies the reachable parser graph, binds each copied stub to the copy of
its rule, works out what it needs to know about the copied graph
(nullability, left calls, FIRST sets), rejects a left-call cycle that
does not pass through a :class:`~txpeg.leftrec.LeftRec`, lets every
copied node specialise itself (:meth:`~txpeg.core.Parser.specialise`),
and returns a :class:`FrozenGrammar` ready to parse.  Each freeze copies
the graph; the rule objects passed in are never modified.  Because
composition is nothing more than building a new rule map out of
existing bodies, grammars can be merged or extended without touching
the bodies themselves, and grammars built from the same rule objects
stay independent.

:func:`run_parse` owns the per-parse plumbing: fresh state cells, leading
whitespace, and the full-match discipline.  Its outcome carries either
the final AST stack or the furthest failure mapped to line and column.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Callable, NamedTuple, Optional

from .combinators import DEFAULT_WHITESPACE, Whitespace
from .core import (ConfigurationError, ContractViolationError, ParseContext, Parser,
                   Record, TracedContext)
from .states import BOTTOM

__all__ = [
    "FrozenGrammar",
    "GrammarDef",
    "ParseError",
    "ParseOutcome",
    "RuleRef",
    "line_col",
    "ref",
    "run_parse",
]


class RuleRef(Parser):
    """A by-name reference to another rule; a stub that freeze copies and
    binds, leaving this object unbound.

    Rule-level facts key on references: freeze may share one node among
    rules with equal bodies, so the frozen graph knows a rule by the
    references that enter it, and a left-call cycle is named by theirs.
    """

    def __init__(self, name: str):
        self.name = name
        self.target: Optional[Parser] = None

    @property
    def children(self) -> tuple:
        return (self.target,) if self.target is not None else ()

    def parse(self, ctx: ParseContext) -> bool:
        if self.target is None:
            raise ContractViolationError(
                f"reference to rule {self.name!r} invoked before freeze"
            )
        return self.target.parse(ctx)

    def __repr__(self):
        return f"ref({self.name!r})"

    first = Parser.children_first


ref = RuleRef


class FrozenGrammar:
    """A resolved, checked grammar; treat as immutable.

    ``rules`` maps each rule name to its frozen body, and ``whitespace`` is
    the frozen copy of the grammar's whitespace parser, or of the default
    one.  Rules with equal bodies may share one body node, so rule-level
    facts key on references (:class:`RuleRef`), never on bodies.
    """

    def __init__(self, rules: dict, root: str, whitespace: Parser,
                 cell_factories: tuple):
        self.rules = rules
        self.root = root
        self.root_parser = rules[root]
        self.whitespace = whitespace
        self.cell_factories = cell_factories


class GrammarDef(Record):
    """An unfrozen grammar under construction.

    ``cells`` lists factories (usually just cell classes) for the state
    the grammar's parsers expect; each parse instantiates them fresh.
    """

    __match_args__ = ("rules", "root", "whitespace", "cells")

    def __init__(self, rules: dict, root: str, whitespace: Optional[Parser] = None,
                 cells: tuple = ()):
        self.rules = rules
        self.root = root
        self.whitespace = whitespace
        self.cells = cells

    def freeze(self, specialise: bool = True) -> FrozenGrammar:
        """Copy the parser graph, bind every reference, validate recursion.

        Unknown rule names, a value in the graph that is not a
        :class:`~txpeg.core.Parser`, and unannotated left-recursive cycles
        are configuration errors.  Each freeze copies the graph, the default
        whitespace parser included when the grammar has none of its own,
        and specialises the copies: among others, a ``choice`` or a
        ``not_`` learns which children to try at each ASCII character and
        at the end of input, a repetition of a ``char_pred`` to scan, a
        ``seq`` splices its ``seq`` children into its own, so a run of
        sequenced parsers takes one snapshot, not one per level, and a
        ``build`` of one ``capture`` makes its node from the matched text
        without pushing and popping it.  The
        rule objects passed in are never modified, and two freezes share
        no node.  Within one freeze, structurally equal subgraphs become
        one node (:attr:`~txpeg.core.Parser.shareable`).  With
        ``specialise`` false there is one copy per original node, on the
        plain path, which sharing and every specialisation must match
        outcome for outcome.
        """
        if self.root not in self.rules:
            raise ConfigurationError(f"root rule {self.root!r} is not defined")
        # Copy every reachable node once per key, and wire each copy to the
        # copies of its children.  References resolve by name, so an
        # original's own target, if it has one, is never used.
        key = _structural_key() if specialise else id
        copies: dict[int, Parser] = {}
        pending: list[tuple[Parser, Parser]] = []

        def twin(p: Parser) -> Parser:
            k = key(_parser(p))
            if k not in copies:
                copies[k] = p.__copy__()
                pending.append((p, copies[k]))
            return copies[k]

        rules = {name: twin(body) for name, body in self.rules.items()}
        whitespace = twin(DEFAULT_WHITESPACE if self.whitespace is None
                          else self.whitespace)
        while pending:
            p, twin_of_p = pending.pop()
            if isinstance(p, RuleRef):
                target = self.rules.get(p.name)
                if target is None:
                    known = ", ".join(sorted(self.rules))
                    raise ConfigurationError(
                        f"unresolved reference {p.name!r} (defined rules: {known})"
                    )
                twin_of_p.target = twin(target)
            elif p.children:
                twin_of_p.children = tuple(twin(c) for c in p.children)
        nodes = list(copies.values())
        nullable = _nullability(nodes)
        _check_left_calls(nodes, nullable, list(self.rules))
        if specialise:
            first = _first_sets(nullable)
            for p in nodes:
                p.specialise(nullable, first)
        return FrozenGrammar(rules, self.root, whitespace, tuple(self.cells))


def _parser(p: Parser) -> Parser:
    """``p``, once it is known to be a :class:`~txpeg.core.Parser`."""
    if not isinstance(p, Parser):
        raise ConfigurationError(
            f"grammar holds {p!r} of type {type(p).__name__}, not a Parser"
        )
    return p


_BY_VALUE = frozenset({str, int, float, bool, type(None), frozenset})


def _structural_key() -> Callable[[Parser], int]:
    """Hash-consing keys for one freeze, interned as small ints: the
    class, each other attribute by value if its type is in ``_BY_VALUE``
    and by identity if not, and the children's keys.  A node that is not
    :attr:`Parser.shareable`, or is met again while its key is being
    worked out, is keyed by identity, as a negative int."""
    keys: dict[int, int] = {}
    interned: dict[tuple, int] = {}

    def key(p: Parser) -> int:
        k = keys.get(id(p))
        if k is None:
            keys[id(p)] = k = -id(p)
            if type(_parser(p)).shareable:
                parts = [type(p), *map(key, p.children)]
                for name, v in vars(p).items():
                    if name != "children":
                        parts.append((name, type(v), v) if type(v) in _BY_VALUE
                                     else (name, id(v)))
                k = keys[id(p)] = interned.setdefault(tuple(parts), len(interned))
        return k

    return key


# The dangerous graph is not every reference cycle: a parser that calls
# itself only after consuming input unwinds fine.  What must not exist is a
# cycle in the left-call graph, whose edges connect a parser to the
# children it can invoke at its own entry position.  Each parser class
# states both facts the check needs through its own hooks,
# Parser.nullable and Parser.left_children: sequences contribute edges up
# to and including their first non-nullable element, LeftRec none at all
# (so no cycle can pass through one, which is exactly what "annotated"
# means), everything else all of its children.  Both run over the private
# copy of the graph that freeze builds, keyed by node identity.


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


def _check_left_calls(nodes: list[Parser], nullable: Callable[[Parser], bool],
                      order: list[str]) -> None:
    """Reject a cycle in the left-call graph of ``nodes``, naming it by the
    rule each reference on it enters, from the first in ``order``, or by
    the reprs of its nodes when it passes through no reference."""
    # The sorter puts each node before its left children and reports a
    # cycle in call order, its first node again last.  Given the nodes in
    # freeze's order and each node's edges in its own order, it reports the
    # first cycle that a depth-first walk from the first rule's body meets.
    graph = TopologicalSorter(dict.fromkeys(map(id, nodes), ()))
    for p in nodes:
        for c in p.left_children(nullable):
            graph.add(id(c), id(p))
    try:
        graph.prepare()
    except CycleError as err:
        # The two freezes order the graph differently, so the sorter may start
        # the same cycle anywhere; the name starts at a fixed rule instead.
        # A parser that holds itself makes a cycle through no reference.
        node = {id(p): p for p in nodes}
        on_cycle = [node[k] for k in err.args[1][:-1]]
        names = [p.name for p in on_cycle if isinstance(p, RuleRef)]
        i = names.index(min(names, key=order.index)) if names else 0
        cycle = (names[i:] + names[:i]) or [repr(p) for p in on_cycle]
        raise ConfigurationError(
            "left-recursive cycle without a leftrec annotation: "
            + " -> ".join(cycle + cycle[:1])
        ) from None


def _first_sets(nullable: Callable[[Parser], bool]
                ) -> Callable[[Parser], Optional[frozenset]]:
    """:meth:`Parser.first` on demand, memoised by node.  A node asked for
    again while its own set is being worked out is on a cycle: it answers
    unknown, and so does everything whose set depends on it."""
    memo: dict[int, Optional[frozenset]] = {}

    def first(p: Parser) -> Optional[frozenset]:
        key = id(p)
        if key not in memo:
            memo[key] = None
            memo[key] = p.first(first, nullable)
        return memo[key]

    return first


class ParseError(NamedTuple):
    """The furthest failure, located for humans: 1-based line and column."""

    position: int
    line: int
    column: int
    message: str


class ParseOutcome(Record):
    """What a driver run produced.

    On success, ``ast`` holds the final AST stack bottom first (one root
    value for conventional grammars).  On failure, ``error`` locates the
    furthest failure.  ``end_position`` is where the parse stopped.
    """

    __match_args__ = ("success", "ast", "end_position", "error")

    def __init__(self, success: bool, ast: Optional[list] = None, end_position: int = 0,
                 error: Optional[ParseError] = None):
        self.success = success
        self.ast = ast
        self.end_position = end_position
        self.error = error


def line_col(text: str, offset: int) -> tuple[int, int]:
    """Map an offset into 1-based (line, column)."""
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return line, col


def run_parse(grammar: FrozenGrammar, text: str, partial: bool = False,
              trace: Optional[Callable[[str], None]] = None) -> ParseOutcome:
    """Parse ``text`` with a frozen grammar.

    Builds a context with fresh cells, consumes leading whitespace,
    invokes the root, and unless ``partial`` demands that the whole input
    was consumed.  With ``trace``, the context is a
    :class:`~txpeg.core.TracedContext`, which reports every snapshot,
    restore, diff and merge to it.

    Input nested past Python's recursion limit fails with the error
    ``input nests too deeply``, located where the parse had got to.
    """
    cells = [factory() for factory in grammar.cell_factories]
    if trace is None:
        ctx = ParseContext(text, cells, grammar.whitespace)
    else:
        ctx = TracedContext(text, trace, cells, grammar.whitespace)
    try:
        Whitespace().parse(ctx)
        matched = grammar.root_parser.parse(ctx)
    except RecursionError:
        return _failed(ctx, ctx.position, "input nests too deeply")
    finally:
        # Each logging cell points at the trail, which holds the cell:
        # emptying it lets the parse's cells die by reference count.
        ctx._trail.clear()
    if matched and (partial or ctx.position >= ctx.input_length):
        # Take the AST off the stack link by link, so that each link is
        # freed as its value goes into the list, which then grows no
        # larger than the stack shrinks.
        link, ctx.ast._top = ctx.ast._top, BOTTOM
        values = []
        while link[0]:
            values.append(link[1])
            link = link[2]
        values.reverse()
        return ParseOutcome(True, ast=values, end_position=ctx.position)
    if matched:
        ctx.fail(ctx.position, "expected end of input")
    found = ctx.furthest_failure()
    if found is None:
        raise ContractViolationError(
            f"{grammar.root_parser!r} failed without recording a failure")
    return _failed(ctx, *found)


def _failed(ctx: ParseContext, position: int, message: str) -> ParseOutcome:
    position = min(position, ctx.input_length)
    line, col = line_col(ctx.text, position)
    return ParseOutcome(
        False,
        end_position=ctx.position,
        error=ParseError(position, line, col, message),
    )

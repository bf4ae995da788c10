"""Parse-time type tracking: deciding which identifiers name types.

A :class:`TypeStack` cell holds a record per visible type: the name plus
the type's private classes (its inner classes and those of its
ancestors), which stop being visible once the defining body ends.

The combinators here keep that stack transactional while carving out
scopes: :func:`new_type` (an ``and_do`` effect) registers names introduced
by classes and aliases, :func:`scoped` drops the types a code block
introduced, :func:`class_def` rebuilds the defining class's record from
everything its body (and superclass) pushed, and :func:`names_a_type`
checks whether the identifier just parsed names a visible type.  It is
the one type check: examply's ``type_name`` requires it, and its
``ctor_call`` steers by it.  Only the two that need state from before
their child runs are classes.

Lookups go through a name index that sits beside the stack: for each
name, the records that bear it on one stack version, topmost first.  The
index is derived data.  It remembers which top link it describes, is
checked against the live top by identity on every lookup, and is never
logged on the trail, so restores, truncations, merges and every other
change of the stack need no hook: a lookup that finds the top moved
walks both versions down to their common ancestor and moves the index
across, at a cost of the distance between the versions rather than the
depth of the stack (rerooting, as in Conchon and Filliâtre,
*Semi-persistent Data Structures*, 2008).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..combinators import and_do, perform, predicate
from ..core import ContractViolationError, ParseContext, Parser
from ..states import BOTTOM, MonotonicStack, StackState

__all__ = [
    "ClassDef",
    "EnclosingClasses",
    "Scoped",
    "TypeRecord",
    "TypeStack",
    "anon_class_inherit",
    "class_def",
    "inherit",
    "is_type",
    "names_a_type",
    "new_type",
    "priv_of",
    "scoped",
]


class TypeRecord(NamedTuple):
    """A visible type: its name and its private classes."""

    name: str
    priv: tuple = ()


class TypeStack(MonotonicStack):
    """Every type currently visible, innermost on top."""

    def __init__(self, *values: TypeRecord):
        # name -> (topmost record bearing it on the path to _synced, the
        # pair for the records below it), or None.
        self._names: dict = {}
        self._synced = BOTTOM
        super().__init__(*values)

    def find(self, name: str) -> Optional[TypeRecord]:
        """The topmost record with this name, or None."""
        if self._synced is not self._top:
            self._sync()
        found = self._names.get(name)
        return None if found is None else found[0]

    def _sync(self) -> None:
        # Step the deeper of the indexed and the live top down until the
        # two links meet, at the latest at the shared bottom, unindexing
        # the old path as we go and indexing the new one after.
        names = self._names
        old, new = self._synced, self._top
        added = []
        while old is not new:
            if old[0] >= new[0]:
                names[old[1].name] = names[old[1].name][1]
                old = old[2]
            else:
                added.append(new[1])
                new = new[2]
        for record in reversed(added):
            names[record.name] = (record, names.get(record.name))
        self._synced = self._top


class EnclosingClasses(StackState):
    """Names of the classes whose bodies the parse is currently inside."""


def is_type(ctx: ParseContext, iden: str) -> bool:
    """Does any visible type bear this name?"""
    return ctx.state(TypeStack).find(iden) is not None


def priv_of(ctx: ParseContext, iden: str) -> tuple:
    """Private classes of the topmost type with this name; () if absent."""
    found = ctx.state(TypeStack).find(iden)
    return () if found is None else found.priv


def inherit(ctx: ParseContext, name: str) -> None:
    """Make ``name``'s private classes visible by pushing them."""
    for r in priv_of(ctx, name):
        ctx.state(TypeStack).push(r)


def _expect_name(value, what: str) -> str:
    if not isinstance(value, str):
        raise ContractViolationError(
            f"{what}: expected an identifier on the AST stack, got {value!r}"
        )
    return value


def _register_type(ctx: ParseContext) -> None:
    name = _expect_name(ctx.ast.at(0), "type registration")
    ctx.state(TypeStack).push(TypeRecord(name))


def _register_alias(ctx: ParseContext) -> None:
    # The AST stack holds the aliased name on top and the new name below.
    ast = ctx.ast
    source = _expect_name(ast.at(0), "alias registration")
    name = _expect_name(ast.at(1), "alias registration")
    ctx.state(TypeStack).push(TypeRecord(name, priv_of(ctx, source)))


def new_type(child: Parser, alias: bool = False) -> Parser:
    """Register the identifier the child just pushed as a type.

    In alias mode the new name starts out with the aliased type's private
    classes; a plain introduction starts empty, and a class's own record
    is completed later by :class:`ClassDef`.
    """
    return and_do(child, _register_alias if alias else _register_type)


class Scoped(Parser):
    """Forget the types the child introduced once it succeeds."""

    def __init__(self, child: Parser):
        self.children = (child,)

    def parse(self, ctx: ParseContext) -> bool:
        types = ctx.state(TypeStack)
        size = types.size
        if not self.children[0].parse(ctx):
            return False
        types.truncate(size)
        return True

    first = Parser.children_first


class ClassDef(Parser):
    """Complete a class definition around its body.

    At entry the AST stack holds the superclass option on top and the
    class name below it, and the TypeStack top is the class's own empty
    record.  The body runs with the superclass's private classes made
    visible; afterwards the placeholder and everything pushed since entry
    — inherited plus body-introduced, the class's private classes — are
    replaced by the finished record in one change.  Every change goes
    through the stack's own mutators, hence the trail.

    Inheriting from a class whose body we are inside is rejected here,
    before any state is touched.
    """

    def __init__(self, body: Parser):
        self.children = (body,)

    def parse(self, ctx: ParseContext) -> bool:
        ast = ctx.ast
        parent: Optional[str] = ast.at(0)
        if parent is not None:
            parent = _expect_name(parent, "class definition superclass")
        name = _expect_name(ast.at(1), "class definition")
        enclosing = ctx.state(EnclosingClasses)
        if parent is not None and parent in enclosing:
            return ctx.would_record(ctx.position) and ctx.fail(
                ctx.position,
                f"class {name!r} cannot inherit from enclosing class {parent!r}",
            )
        types = ctx.state(TypeStack)
        size = types.size
        enclosing.push(name)
        if parent is not None:
            inherit(ctx, parent)
        if not self.children[0].parse(ctx):
            types.truncate(size)
            enclosing.pop()
            return False
        types.replace_above(size - 1, _finish_class)
        enclosing.pop()
        return True

    first = Parser.children_first


def _finish_class(placeholder: TypeRecord, *priv: TypeRecord) -> TypeRecord:
    return TypeRecord(placeholder.name, priv)


def _inherit_from_superclass(ctx: ParseContext) -> None:
    # The argument list sits on top by the time the body starts.
    inherit(ctx, _expect_name(ctx.ast.at(1), "anonymous class body"))


def anon_class_inherit() -> Parser:
    """Open a superclass's private classes for an anonymous class body.

    Zero-width; reads the superclass name one below the AST stack top.
    No record is created: the anonymous class has no name to bind.
    """
    return perform(_inherit_from_superclass)


scoped = Scoped
class_def = ClassDef


def _top_names_a_type(ctx: ParseContext) -> bool:
    name = _expect_name(ctx.ast.peek(), "type guard")
    return is_type(ctx, name)


def _not_a_type(ctx: ParseContext) -> str:
    return f"{ctx.ast.peek()!r} does not name a visible type"


def names_a_type() -> Parser:
    """Zero-width: the identifier on top of the AST stack names a visible
    type.

    Placed right after the parser that pushed the identifier, it checks
    the name that was just parsed, so the grammar steers by it without
    parsing the identifier twice.
    """
    return predicate(_top_names_a_type, _not_a_type)

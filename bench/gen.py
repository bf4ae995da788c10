"""Seeded input generators for the four benchmark workloads.

Every generator takes a ``random.Random`` built from the run's seed and
returns :class:`Doc` values: the text, the grammar to parse it with,
whether the grammar must accept it, and a record of what was emitted.
The checks in ``checks.py`` compare parse results against that record,
never against stored output of the library.

Document sizes follow fixed schedules; only the content depends on the
seed, so per-document times are comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Doc:
    grammar: str          # examply, composed, tags, anbncn or expr
    text: str
    record: object
    accept: bool = True
    deep: bool = False    # nested past the default recursion limit; never timed

    @property
    def size(self) -> int:
        return len(self.text.encode("utf-8"))


@dataclass
class Stmt:
    """One examply statement as emitted: kind, name, start offset, and the
    statements of its block (None when the statement has no block)."""

    kind: str
    name: str
    start: int
    block: Optional[list] = None


@dataclass
class Tag:
    name: str
    children: list = field(default_factory=list)


@dataclass
class TagsRecord:
    tree: Tag
    bad_closer: Optional[int] = None   # offset of the renamed closer's name


# ---------------------------------------------------------------------------
# examply and the composed (examply + macro) language.

_INDENT = "    "


class _Writer:
    """Accumulates lines and knows the offset where the next one starts."""

    def __init__(self):
        self.parts: list[str] = []
        self.pos = 0

    def line(self, depth: int, text: str) -> int:
        """Write one line at ``depth``; return the offset of its content."""
        start = self.pos + len(_INDENT) * depth
        s = _INDENT * depth + text + "\n"
        self.parts.append(s)
        self.pos += len(s)
        return start

    def text(self) -> str:
        return "".join(self.parts)


class _ExamplyGen:
    """Emits valid examply programs, tracking which types are visible.

    ``scopes`` mirrors the parser's visibility rules conservatively: each
    block opens a frame and closing it forgets what it declared, and types
    made visible only through inheritance are never used.
    """

    def __init__(self, rng: random.Random, macros: bool, max_depth: int):
        self.rng = rng
        self.macros = macros
        self.max_depth = max_depth
        self.out = _Writer()
        self.scopes: list[list[str]] = [["Int", "String"]]
        self.funcs: list[str] = []
        self.enclosing: list[str] = []   # a class may not inherit from these
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def visible_type(self) -> str:
        frame = self.rng.choice([f for f in self.scopes if f])
        return self.rng.choice(frame)

    def user_type(self, exclude=()) -> Optional[str]:
        types = [t for f in self.scopes for t in f
                 if t not in ("Int", "String") and t not in exclude]
        return self.rng.choice(types) if types else None

    def atom(self) -> str:
        r = self.rng.random()
        if r < 0.4:
            return str(self.rng.randrange(1000))
        if r < 0.6:
            return '"' + self.fresh("s") + '"'
        if r < 0.8 or not self.funcs:
            return self.fresh("v")
        return f"{self.rng.choice(self.funcs)}({self.args(0)})"

    def args(self, most: int = 3) -> str:
        return ", ".join(self.atom() for _ in range(self.rng.randint(0, most)))

    def block(self, depth: int, decls_only: bool) -> list:
        self.scopes.append([])
        stmts = [self.statement(depth, decls_only)
                 for _ in range(self.rng.randint(1, 3))]
        self.scopes.pop()
        return stmts

    def statement(self, depth: int, decls_only: bool) -> Stmt:
        kinds = ["val", "var", "fun", "class", "alias", "import"]
        weights = [4, 2, 3, 3, 1, 1]
        if not decls_only:
            kinds += ["call", "ctor"]
            weights += [3, 1]
        if self.macros:
            kinds.append("macro")
            weights.append(2)
        kind = self.rng.choices(kinds, weights)[0]
        nest = depth < self.max_depth
        if kind == "ctor" and self.user_type() is None:
            kind = "call"
        if kind in ("val", "var"):
            name = self.fresh("v")
            start = self.out.line(depth, f"{kind} {name}: {self.visible_type()} = {self.atom()}")
            return Stmt(kind, name, start)
        if kind == "fun":
            name = self.fresh("f")
            params = ", ".join(f"{self.fresh('p')}: {self.visible_type()}"
                               for _ in range(self.rng.randint(0, 3)))
            ret = f": {self.visible_type()}" if self.rng.random() < 0.7 else ""
            start = self.out.line(depth, f"fun {name}({params}){ret}")
            self.funcs.append(name)
            if nest:
                return Stmt(kind, name, start, self.block(depth + 1, False))
            # The body is mandatory; at the depth cap keep it flat.
            self.scopes.append([])
            body = [self.statement_flat(depth + 1)]
            self.scopes.pop()
            return Stmt(kind, name, start, body)
        if kind == "class":
            name = self.fresh("C")
            sup = self.user_type(self.enclosing) if self.rng.random() < 0.3 else None
            start = self.out.line(depth, f"class {name}" + (f": {sup}" if sup else ""))
            self.scopes[-1].append(name)
            body = None
            if nest and self.rng.random() < 0.6:
                self.enclosing.append(name)
                body = self.block(depth + 1, True)
                self.enclosing.pop()
            return Stmt(kind, name, start, body)
        if kind == "alias":
            name = self.fresh("A")
            start = self.out.line(depth, f"alias {name} = {self.visible_type()}")
            self.scopes[-1].append(name)
            return Stmt(kind, name, start)
        if kind == "import":
            name = self.fresh("I")
            start = self.out.line(depth, f"import pk.sub{self.rng.randrange(9)}.{name}")
            self.scopes[-1].append(name)
            return Stmt(kind, name, start)
        if kind == "macro":
            name = self.fresh("m")
            if nest and self.rng.random() < 0.4:
                start = self.out.line(depth, f"macro {name} =")
                return Stmt(kind, name, start, self.block(depth + 1, False))
            start = self.out.line(depth, f"macro {name} = {self.template()}")
            return Stmt(kind, name, start)
        if kind == "ctor":
            name = self.user_type()
            start = self.out.line(depth, f"{name}({self.args()})")
            body = self.block(depth + 1, True) if nest and self.rng.random() < 0.5 else None
            return Stmt(kind, name, start, body)
        name = self.rng.choice(self.funcs) if self.funcs else self.fresh("g")
        start = self.out.line(depth, f"{name}({self.args()})")
        body = self.block(depth + 1, False) if nest and self.rng.random() < 0.5 else None
        return Stmt("call", name, start, body)

    def statement_flat(self, depth: int) -> Stmt:
        name = self.fresh("v")
        start = self.out.line(depth, f"val {name}: {self.visible_type()} = {self.atom()}")
        return Stmt("val", name, start)

    def template(self) -> str:
        def atom(level: int) -> str:
            r = self.rng.random()
            if r < 0.3:
                return "$" + self.fresh("x")
            if r < 0.45 and level < 2:
                return "(" + " ".join(atom(level + 1) for _ in range(self.rng.randint(0, 3))) + ")"
            if r < 0.6:
                return str(self.rng.randrange(100))
            if r < 0.7:
                return '"' + self.fresh("t") + '"'
            return self.fresh("w")
        return " ".join(atom(0) for _ in range(self.rng.randint(1, 4)))


def examply_program(rng: random.Random, target: int, macros: bool,
                    max_depth: int = 4) -> Doc:
    """A program of top-level statements of about ``target`` bytes."""
    g = _ExamplyGen(rng, macros, max_depth)
    stmts = []
    while g.out.pos < target:
        stmts.append(g.statement(0, False))
    return Doc("composed" if macros else "examply", g.out.text(), stmts)


def examply_flat_types(rng: random.Random, decls: int) -> Doc:
    """``decls`` top-level class/alias/import declarations, each followed
    by a ``val`` that annotates with and constructs a random visible type."""
    out = _Writer()
    types = ["Int", "String"]
    stmts = []
    for i in range(decls):
        r = rng.random()
        if r < 0.6:
            name = f"C{i}"
            text = f"class {name}"
            if rng.random() < 0.3:
                text += f": {rng.choice(types)}"
            kind = "class"
        elif r < 0.8:
            name, kind = f"A{i}", "alias"
            text = f"alias {name} = {rng.choice(types)}"
        else:
            name, kind = f"I{i}", "import"
            text = f"import lib.m{rng.randrange(50)}.{name}"
        stmts.append(Stmt(kind, name, out.line(0, text)))
        types.append(name)
        val, used = f"v{i}", rng.choice(types)
        stmts.append(Stmt("val", val, out.line(0, f"val {val}: {used} = {used}()")))
    return Doc("examply", out.text(), stmts)


def deep_examply(depth: int) -> Doc:
    """``depth`` nested ``fun`` blocks; independent of the seed."""
    out = _Writer()
    starts = [out.line(d, f"fun f{d}(): Int") for d in range(depth)]
    inner = Stmt("val", "x", out.line(depth, "val x: Int = 1"))
    for d in reversed(range(depth)):
        inner = Stmt("fun", f"f{d}", starts[d], [inner])
    return Doc("examply", out.text(), [inner], deep=True)


# ---------------------------------------------------------------------------
# Subtraction chains.

def expr_chain(rng: random.Random, operands: int) -> Doc:
    values = [rng.randrange(10**rng.randint(1, 6)) for _ in range(operands)]
    parts = [str(values[0])]
    for v in values[1:]:
        parts.append(rng.choice(["-", " -", "- ", " - ", "  -  "]))
        parts.append(str(v))
    return Doc("expr", "".join(parts), values)


# ---------------------------------------------------------------------------
# Tags and equal runs.

def _tag_tree(rng: random.Random, depth: int, budget: list) -> Tag:
    tag = Tag("".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                      for _ in range(rng.randint(1, 8))))
    while budget[0] > 0 and depth < 12 and rng.random() < 0.75:
        budget[0] -= 1
        tag.children.append(_tag_tree(rng, depth + 1, budget))
    return tag


def _tag_text(root: Tag) -> tuple[str, list]:
    """The document text plus (name offset, tag) for every closer."""
    out: list = []
    closers: list = []
    pos = 0
    stack = [(root, False)]
    while stack:
        tag, closing = stack.pop()
        if closing:
            closers.append((pos + 2, tag))
            s = f"</{tag.name}>"
        else:
            s = f"<{tag.name}>"
            stack.append((tag, True))
            stack.extend((c, False) for c in reversed(tag.children))
        out.append(s)
        pos += len(s)
    return "".join(out), closers


def tags_doc(rng: random.Random, elements: int, bad: bool) -> Doc:
    """A tag tree of about ``elements`` elements; when ``bad``, one closer
    is renamed and the parse must fail at that closer's name."""
    budget = [elements]
    root = Tag("root")
    while budget[0] > 0:
        budget[0] -= 1
        root.children.append(_tag_tree(rng, 1, budget))
    text, closers = _tag_text(root)
    if not bad:
        return Doc("tags", text, TagsRecord(root))
    # A closer in the last tenth, so a rejected document costs about as
    # much to parse as an accepted one of its size, whatever the seed.
    pos, tag = rng.choice([c for c in closers if c[0] >= 0.9 * len(text)])
    renamed = tag.name + "q"
    text = text[:pos] + renamed + text[pos + len(tag.name):]
    return Doc("tags", text, TagsRecord(root, pos), accept=False)


def deep_tags(depth: int) -> Doc:
    """``depth`` nested tags; independent of the seed."""
    root = tag = Tag("a")
    for _ in range(depth - 1):
        child = Tag("a")
        tag.children.append(child)
        tag = child
    return Doc("tags", _tag_text(root)[0], TagsRecord(root), deep=True)


def anbncn_word(rng: random.Random, n: int, equal: bool) -> Doc:
    runs = [n, n, n]
    if not equal:
        runs[rng.randrange(3)] += rng.choice([-1, 1])
    text = "a" * runs[0] + "b" * runs[1] + "c" * runs[2]
    return Doc("anbncn", text, tuple(runs), accept=runs[0] == runs[1] == runs[2])

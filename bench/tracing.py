"""The traced run: spans around txpeg's public entry points, and the
per-layer metrics computed from them.

Wrappers are installed from here, on the classes and modules where the
library looks the wrapped names up, and removed again before anything is
timed without them; nothing under ``src/`` changes.  A span is (name,
parent, start, end) in four flat arrays, kept in memory and written to
``.bench_build/trace-<workload>.spans.gz`` when the pass ends.  A span's
self time is its duration minus the durations of its child spans.

Names that a wrapper finds missing are skipped, and the metrics that
depend on them read 0.  Per-operation times come from untraced
micro-loops, scaled like the end-to-end times (``run.scaled``); lookup,
freeze, indent-map and dump times come from spans that have no children.
"""

from __future__ import annotations

import gzip
import importlib
import json
import re
import statistics
import time
from array import array

from run import ROOT, Tally, calibrate, fresh_seconds, parse_round, scaled
from workloads import GRAMMARS, Workload, documents, load_grammar

CORE_OPS = ("snapshot", "restore", "diff", "merge", "unchanged_since", "fail")
CELL_OPS = ("snapshot", "restore", "diff", "merge")
STRATEGIES = ("CopyState", "StackState", "MonotonicStack", "MapState", "InertState")
# Every cell class a bundled grammar registers, with where it is defined.
CELLS = {
    "IndentMap": "txpeg.demos.indent",
    "IndentStack": "txpeg.demos.indent",
    "TypeStack": "txpeg.demos.namespaces",
    "EnclosingClasses": "txpeg.demos.namespaces",
    "AstStack": "txpeg.combinators",
    "LeftRecTable": "txpeg.leftrec",
    "RunTally": "txpeg.demos.smoke",
    "TagStack": "txpeg.demos.smoke",
}
COMBINATORS = ("Seq", "Choice", "Opt", "ZeroMore", "OneMore", "Until", "Ahead",
               "Not", "CharPred", "Literal", "Whitespace", "EndOfInput", "Word",
               "Predicate", "Perform", "AndDo", "Capture", "Collect", "Build",
               "OptValue")
OUT = ROOT / ".bench_build"
# A one-line input per grammar, for the fixed cost of run_parse.
ONE_LINE = {"examply": "val x: Int = 1\n", "composed": "macro m = a\n",
            "tags": "<a></a>", "anbncn": "abc", "expr": "1-2"}


class Recorder:
    """Spans in flat arrays, plus the counters that spans cannot carry."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.restores = 0
        self.useful_restores = 0
        self.lookup_depth = 0
        self.ctx = None           # the last context that took a snapshot
        self._undo: list = []

    def id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name=None, keyed=None, hook=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` gives a fixed span name; ``keyed(first_arg)`` instead
        returns a name id per call.  ``hook(args)`` runs before the span.
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            return
        fixed = None if name is None else self.id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter_ns
        rec = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = len(names)
            names.append(fixed if keyed is None else keyed(args[0]))
            parents.append(rec.current)
            starts.append(0)
            ends.append(0)
            rec.current = idx
            try:
                starts[idx] = clock()
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                rec.current = parents[idx]

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def unwrap(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.name),
                  "arrays": ["name:int32", "parent:int32", "start_ns:int64", "end_ns:int64"]}
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for a in (self.name, self.parent, self.start, self.end):
                a.tofile(out)


def _strategy_of(cls) -> str:
    """The strategy a cell class derives from, nearest first."""
    for base in cls.__mro__:
        if base.__name__ in STRATEGIES and base.__module__ == "txpeg.states":
            return base.__name__
    return cls.__name__


def _parser_classes():
    from txpeg.core import Parser
    seen, stack = [], [Parser]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                stack.append(sub)
    return [c for c in seen if c.__module__.startswith("txpeg.") and "parse" in c.__dict__]


def _layer(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def install(rec: Recorder) -> set:
    """Wrap every entry point; returns the ids of parser spans."""
    import txpeg
    from txpeg import cli, grammar, states
    from txpeg.core import ParseContext
    from txpeg.demos import examply, indent, namespaces

    def keep_ctx(args):
        rec.ctx = args[0]

    for op in CORE_OPS:
        rec.wrap(ParseContext, op, f"core:{op}", hook=keep_ctx if op == "snapshot" else None)

    strategies = {s: getattr(states, s) for s in STRATEGIES if hasattr(states, s)}
    # Unwrapped snapshots, for telling whether a restore changed anything.
    originals = {s: cls.cell_snapshot for s, cls in strategies.items()}
    for strategy, cls in strategies.items():
        for op in CELL_OPS:
            ids: dict = {}

            def keyed(cell, ids=ids, label=f"states:{strategy}.{op}:"):
                cls = type(cell)
                if cls not in ids:
                    ids[cls] = rec.id(label + cls.__name__)
                return ids[cls]

            def count_useful(args):
                cell, snap = args[0], args[1]
                snapshot = originals.get(_strategy_of(type(cell)))
                if snapshot is None:
                    return
                now = snapshot(cell)
                rec.restores += 1
                rec.useful_restores += not (now is snap or now == snap)

            rec.wrap(cls, "cell_" + op, keyed=keyed,
                     hook=count_useful if op == "restore" else None)

    parser_ids = set()
    for cls in _parser_classes():
        name = f"{_layer(cls.__module__)}:{cls.__name__}"
        parser_ids.add(rec.id(name))
        rec.wrap(cls, "parse", name)

    for owner in (grammar, txpeg, cli):
        rec.wrap(owner, "run_parse", "grammar:run_parse")
    rec.wrap(grammar.GrammarDef, "freeze", "grammar:freeze")

    def type_depth(args):
        rec.lookup_depth += args[0].state(namespaces.TypeStack).size

    for owner in (namespaces, examply):
        for fn in ("is_type", "priv_of"):
            rec.wrap(owner, fn, f"namespaces:{fn}", hook=type_depth)
    rec.wrap(indent.IndentMap, "entry_at", "indent:entry_at")
    rec.wrap(indent.IndentMap, "build", "indent:build")
    rec.wrap(cli, "dump_ast", "cli:dump_ast")
    return parser_ids


class Spans:
    """Per-name counts, total and self durations, and child counts."""

    def __init__(self, rec: Recorder, parser_ids: set):
        n = len(rec.name)
        names = rec.names
        self.count = [0] * len(names)
        self.total = [0] * len(names)
        self.self_ns = [0] * len(names)
        self.parser_children = [0] * len(names)   # per parent name
        child_ns = [0] * n
        children = [0] * n
        name, parent, start, end = rec.name, rec.parent, rec.start, rec.end
        for i in range(n - 1, -1, -1):
            nid = name[i]
            dur = end[i] - start[i]
            self.count[nid] += 1
            self.total[nid] += dur
            self.self_ns[nid] += dur - child_ns[i]
            p = parent[i]
            if p >= 0:
                child_ns[p] += dur
                if nid in parser_ids:
                    children[p] += 1
        self.outer_calls = [0] * len(names)   # spans with parser children
        for i in range(n):
            if children[i]:
                self.parser_children[name[i]] += children[i]
                self.outer_calls[name[i]] += 1
        self.ids = {s: i for i, s in enumerate(names)}

    def get(self, table: list, name: str) -> int:
        i = self.ids.get(name)
        return 0 if i is None else table[i]

    def layer_self(self, layer: str) -> int:
        return sum(self.self_ns[i] for s, i in self.ids.items() if s.split(":")[0] == layer)


def _per_call_ns(fn, calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean ns per call of ``fn()``, scaled
    like every end-to-end time (run.py, ``scaled``)."""
    samples = []
    cal = calibrate()
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        after = calibrate()
        samples.append(scaled(elapsed, cal, after) * 1e9 / calls)
        cal = after
    return statistics.median(samples)


def _live_cells(ctx) -> dict:
    """The registered cells of a context, found through ``ctx.state``."""
    from txpeg.core import ConfigurationError
    found = {}
    for cls_name, module in CELLS.items():
        try:
            found[cls_name] = ctx.state(getattr(importlib.import_module(module), cls_name))
        except (AttributeError, ConfigurationError):
            pass
    return found


def _strategy_ns(ctx) -> dict:
    """ns per cell operation for each strategy, on the workload's own cell
    when it registers one, else on a fresh cell of that strategy."""
    from txpeg import states
    live = _live_cells(ctx) if ctx is not None else {}
    out = {}
    for strategy in STRATEGIES:
        cells = [c for c in live.values() if _strategy_of(type(c)) == strategy]
        if not cells and not hasattr(states, strategy):
            out.update({f"states.{strategy}.{op}.ns": 0.0 for op in CELL_OPS})
            continue
        cell = cells[0] if cells else getattr(states, strategy)()
        before = cell.cell_snapshot()
        if hasattr(cell, "push"):
            cell.push(None)
        elif hasattr(cell, "put"):
            cell.put("bench", 1)
        elif hasattr(cell, "set"):
            cell.set("bench", 1)
        snap = cell.cell_snapshot()
        delta = cell.cell_diff(before)
        out[f"states.{strategy}.snapshot.ns"] = _per_call_ns(cell.cell_snapshot, 20000)
        out[f"states.{strategy}.restore.ns"] = _per_call_ns(lambda: cell.cell_restore(snap), 20000)
        out[f"states.{strategy}.diff.ns"] = _per_call_ns(lambda: cell.cell_diff(before), 20000)
        cell.cell_restore(before)
        out[f"states.{strategy}.merge.ns"] = _per_call_ns(lambda: cell.cell_merge(delta), 20000)
        cell.cell_restore(before)
    return out


def _dispatch_ns(ctx) -> float:
    """ns per call of examply's keyword guard, ``not_(choice(keyword...))``,
    at the first identifier of the context's text that is not a keyword."""
    from txpeg.combinators import choice, not_
    from txpeg.demos.examply import KEYWORDS, keyword
    guard = not_(choice(*[keyword(k) for k in KEYWORDS]))
    ctx.position = next((m.start() for m in re.finditer(r"[A-Za-z_]\w*", ctx.text)
                         if m.group() not in KEYWORDS), 0)
    return _per_call_ns(lambda: guard.parse(ctx), 5000)


def _time_parse(grammar, text: str, repeats: int) -> float:
    from txpeg import run_parse
    samples = []
    cal = calibrate()
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_parse(grammar, text)
        elapsed = time.perf_counter() - t0
        after = calibrate()
        samples.append(scaled(elapsed, cal, after))
        cal = after
    return statistics.median(samples)


def run_traced(workload: Workload, seed: int, quick: bool) -> dict:
    from txpeg import cli, run_parse
    grammars = {g: load_grammar(g) for g in workload.grammars}
    docs = documents(workload, seed, quick)
    # Largest last, so the context kept for the micro-loops is the one
    # that reached the largest sizes.
    timed = sorted((d for d in docs if not d.deep), key=lambda d: d.size)
    size = sum(d.size for d in timed)
    tally = Tally()

    # Untraced: the deep documents, a warm-up pass that keeps the outcomes
    # for dump_ast, then the reference pass for the tracing overhead.
    parse_round(grammars, [d for d in docs if d.deep], tally, None)
    outcomes = [run_parse(grammars[d.grammar], d.text) for d in timed]
    plain: list = []
    parse_round(grammars, timed, Tally(), plain)

    rec = Recorder()
    parser_ids = install(rec)
    try:
        for _ in range(1 if quick else 5):
            for g in GRAMMARS:
                load_grammar(g)
        traced: list = []
        parse_round(grammars, timed, tally, traced)
        for outcome in outcomes:
            if outcome.success:
                cli.dump_ast(outcome.ast, "json")
    finally:
        rec.unwrap()
    rec.write(OUT / f"trace-{workload.name}.spans.gz")
    spans = Spans(rec, parser_ids)
    ctx = rec.ctx

    m: dict = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (float(value), unit)

    def count(name: str) -> int:
        return spans.get(spans.count, name)

    run_ns = spans.get(spans.total, "grammar:run_parse") or 1
    for op in CORE_OPS:
        put(f"core.{op}.per_byte", count(f"core:{op}") / size, "1/B")
    snap = ctx.snapshot()
    put("core.snapshot.ns", _per_call_ns(ctx.snapshot, 20000), "ns")
    put("core.restore.ns", _per_call_ns(lambda: ctx.restore(snap), 20000), "ns")
    put("core.self_share", spans.layer_self("core") / run_ns, "ratio")

    for op in CELL_OPS:
        for cell in CELLS:
            n = sum(count(f"states:{s}.{op}:{cell}") for s in STRATEGIES)
            put(f"states.{op}.per_byte.{cell}", n / size, "1/B")
    for name, ns in _strategy_ns(ctx).items():
        put(name, ns, "ns")
    put("states.restore.useful_ratio", rec.useful_restores / max(rec.restores, 1), "ratio")

    calls = {c: count(f"combinators:{c}") for c in COMBINATORS}
    put("combinators.calls.per_byte", sum(calls.values()) / size, "1/B")
    for c in COMBINATORS:
        put(f"combinators.{c}.calls.per_byte", calls[c] / size, "1/B")
    put("combinators.choice.alts_per_call",
        spans.get(spans.parser_children, "combinators:Choice") / max(calls["Choice"], 1), "count")
    put("combinators.dispatch.ns", _dispatch_ns(ctx), "ns")
    put("combinators.self_share", spans.layer_self("combinators") / run_ns, "ratio")

    put("leftrec.calls.per_byte", count("leftrec:LeftRec") / size, "1/B")
    put("leftrec.rounds_per_call", spans.get(spans.parser_children, "leftrec:LeftRec")
        / max(spans.get(spans.outer_calls, "leftrec:LeftRec"), 1), "count")
    put("leftrec.self_share", spans.layer_self("leftrec") / run_ns, "ratio")

    # Freeze spans come in GRAMMARS order, once per grammar per repetition.
    freeze_id = rec.id("grammar:freeze")
    freezes = [(rec.end[i] - rec.start[i]) / 1e6
               for i in range(len(rec.name)) if rec.name[i] == freeze_id]
    for k, g in enumerate(GRAMMARS):
        put(f"grammar.freeze.ms.{g}", statistics.median(freezes[k::len(GRAMMARS)] or [0]), "ms")
    main = workload.grammars[0]
    put("grammar.run_parse.fixed_us",
        _per_call_ns(lambda: run_parse(grammars[main], ONE_LINE[main]), 200) / 1000, "us")
    accepted = [d for d in timed if d.accept]
    small, large = accepted[0], accepted[-1]
    t_small = _time_parse(grammars[small.grammar], small.text, 5)
    t_large = _time_parse(grammars[large.grammar], large.text, 1 if quick else 3)
    put("grammar.size_slope", (t_large / large.size) / (t_small / small.size), "ratio")

    put("indent.entry_at.per_byte", count("indent:entry_at") / size, "1/B")
    put("indent.build_map.us_per_kb", spans.get(spans.total, "indent:build") / size, "us/KB")

    lookups = count("namespaces:is_type") + count("namespaces:priv_of")
    lookup_ns = (spans.get(spans.total, "namespaces:is_type")
                 + spans.get(spans.total, "namespaces:priv_of"))
    put("namespaces.lookup.per_byte", lookups / size, "1/B")
    put("namespaces.lookup.depth", rec.lookup_depth / max(lookups, 1), "count")
    put("namespaces.lookup.ns", lookup_ns / max(lookups, 1), "ns")
    put("namespaces.self_share", spans.layer_self("namespaces") / run_ns, "ratio")

    code = "import time\nt0 = time.perf_counter()\nimport txpeg.cli\nprint(time.perf_counter() - t0)"
    fresh_seconds(code)
    put("cli.import_ms", statistics.median(
        fresh_seconds(code) for _ in range(1 if quick else 5)) * 1000, "ms")
    put("cli.dump.ms_per_kb", spans.get(spans.total, "cli:dump_ast") / 1000 / size, "ms/KB")
    put("trace.overhead_ratio", sum(traced) / sum(plain), "ratio")
    return {"tally": tally, "metrics": m}

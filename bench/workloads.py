"""The four workloads: which documents one round parses, and why.

A round is a fixed list of documents; every run parses whole rounds, so
the share of failed operations is the same whatever the seed and however
long the run.  Each round has an odd number of timed documents, so the
median document time is one document's time, not an average of two.
Deep documents (nested past the interpreter's default recursion limit)
are parsed in every round but never timed.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from typing import Callable

import gen
from gen import Doc

# Where each grammar comes from; setup_s imports and freezes these.
GRAMMARS = {
    "examply": ("txpeg.demos.examply", "examply_grammar"),
    "composed": ("txpeg.demos.macro", "composed_grammar"),
    "tags": ("txpeg.demos.smoke", "tags_grammar"),
    "anbncn": ("txpeg.demos.smoke", "anbncn_grammar"),
    "expr": ("txpeg.demos.expr", "expr_grammar"),
}


@dataclass
class Workload:
    name: str
    grammars: tuple
    make: Callable[[random.Random, bool], list]   # (rng, quick) -> docs


def _blocks(rng: random.Random, quick: bool) -> list:
    # Sizes in bytes, with five programs at the median size so that
    # parse_ms_p50 is the middle of five similar documents.  Every fourth
    # program carries macros and is parsed with the composed grammar.
    sizes = [600, 1200, 1800] if quick else (
        [1000, 1500, 2000, 3000] + [4000] * 5 + [6000, 8000, 10000, 12000])
    docs = [gen.examply_program(rng, size, macros=i % 4 == 1)
            for i, size in enumerate(sizes)]
    return docs + [gen.deep_examply(80), gen.deep_examply(100)]


def _types(rng: random.Random, quick: bool) -> list:
    counts = [60, 60, 200] if quick else [250] * 6 + [2000]
    return [gen.examply_flat_types(rng, n) for n in counts]


def _chains(rng: random.Random, quick: bool) -> list:
    counts = [20, 40, 60] if quick else list(range(120, 401, 20))
    return [gen.expr_chain(rng, n) for n in counts]


def _tags(rng: random.Random, quick: bool) -> list:
    # (elements, one closer renamed) and (run length, runs equal); seven
    # tags documents at the median size, as in _blocks.
    tags = [(20, False), (40, True), (80, False)] if quick else (
        [(50, False), (100, True), (200, False)] + [(300, False)] * 7
        + [(600, False), (1200, True)])
    words = [(50, True), (100, False)] if quick else (
        [(250, True), (500, False), (1000, True), (2000, True), (4000, True)])
    docs = [gen.tags_doc(rng, n, bad) for n, bad in tags]
    docs += [gen.anbncn_word(rng, n, equal) for n, equal in words]
    return docs + [gen.deep_tags(400), gen.deep_tags(600)]


WORKLOADS = {w.name: w for w in (
    Workload("examply-blocks", ("examply", "composed"), _blocks),
    Workload("examply-types", ("examply",), _types),
    Workload("expr-chains", ("expr",), _chains),
    Workload("tags-anbncn", ("tags", "anbncn"), _tags),
)}


def load_grammar(name: str):
    """Build and freeze one bundled grammar."""
    module, func = GRAMMARS[name]
    return getattr(importlib.import_module(module), func)()


def documents(workload: Workload, seed: int, quick: bool) -> list[Doc]:
    return workload.make(random.Random(seed), quick)

"""Tests of the benchmark itself: quick mode end to end, the shape of its
result line, and that every output check rejects a wrong answer.

Run from the root of the checkout::

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from txpeg import AstNode, ParseError, ParseOutcome, run_parse  # noqa: E402
from txpeg.cli import ast_to_data  # noqa: E402
from workloads import WORKLOADS, documents, load_grammar  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_mode_runs_every_check_and_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--quick", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    # Only the deep-nesting inputs fail, and only while RecursionError escapes.
    deep = sum(d.deep for d in documents(WORKLOADS[workload], 5, True))
    assert 0 <= result["failed"] <= deep


def test_traced_counts_repeat_exactly_on_the_same_seed():
    counts = []
    for _ in range(2):
        done = bench("--workload", "examply-blocks", "--seed", "9", "--quick", "--trace", "1")
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if ".per_byte" in k})
    assert counts[0] == counts[1]
    assert counts[0]["core.snapshot.per_byte"] > 0


def test_without_sources_it_fails_before_printing_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "expr-chains", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_generators_are_seeded():
    for workload in WORKLOADS.values():
        a = [d.text for d in documents(workload, 3, True)]
        assert a == [d.text for d in documents(workload, 3, True)]
        assert a != [d.text for d in documents(workload, 4, True)]


# -- each check rejects a wrong answer ------------------------------------


def _parse(doc):
    return run_parse(load_grammar(doc.grammar), doc.text)


def _sub_tree(values, left_assoc: bool):
    nums = [AstNode("num", (str(v),)) for v in values]
    if left_assoc:
        tree = nums[0]
        for n in nums[1:]:
            tree = AstNode("sub", (tree, n))
        return tree
    tree = nums[-1]
    for n in reversed(nums[:-1]):
        tree = AstNode("sub", (n, tree))
    return tree


def test_expr_check_rejects_a_right_associated_tree():
    doc = gen.expr_chain(random.Random(1), 30)
    assert checks.check(doc, _parse(doc)) is None
    n = len(doc.text)
    good = ParseOutcome(True, ast=[_sub_tree(doc.record, True)], end_position=n)
    bad = ParseOutcome(True, ast=[_sub_tree(doc.record, False)], end_position=n)
    assert checks.check(doc, good) is None
    assert "left fold" in checks.check(doc, bad)


def test_examply_check_rejects_wrong_statements_and_spans():
    doc = gen.examply_program(random.Random(2), 800, macros=True)
    outcome = _parse(doc)
    assert checks.check(doc, outcome) is None

    def mutated(change):
        ast = [AstNode(n.kind, n.children, n.span) for n in outcome.ast]
        change(ast)
        return ParseOutcome(True, ast=ast, end_position=outcome.end_position)

    first = outcome.ast[0]
    wrong = [
        mutated(lambda ast: ast.pop()),
        mutated(lambda ast: ast.__setitem__(0, AstNode("ref", first.children, first.span))),
        mutated(lambda ast: ast.__setitem__(
            0, AstNode(first.kind, first.children, (first.span[0] + 1, first.span[1])))),
        mutated(lambda ast: ast.__setitem__(
            0, AstNode(first.kind, first.children, (0, len(doc.text) + 1)))),
        ParseOutcome(True, ast=outcome.ast, end_position=len(doc.text) - 1),
        ParseOutcome(False, error=ParseError(0, 1, 1, "no")),
    ]
    for w in wrong:
        assert checks.check(doc, w) is not None


def test_tags_check_needs_the_rejection_at_the_renamed_closer():
    rng = random.Random(3)
    doc = gen.tags_doc(rng, 30, bad=True)
    outcome = _parse(doc)
    assert not outcome.success and checks.check(doc, outcome) is None
    at = doc.record.bad_closer
    assert checks.check(doc, ParseOutcome(False, error=ParseError(at - 1, 1, at, "x")))
    assert checks.check(doc, ParseOutcome(True, ast=[], end_position=len(doc.text)))
    good = gen.tags_doc(rng, 30, bad=False)
    assert checks.check(good, ParseOutcome(False, error=ParseError(0, 1, 1, "x")))


def test_anbncn_check_follows_the_counting_oracle():
    rng = random.Random(4)
    equal, unequal = gen.anbncn_word(rng, 40, True), gen.anbncn_word(rng, 40, False)
    accept = ParseOutcome(True, ast=[], end_position=len(equal.text))
    reject = ParseOutcome(False, error=ParseError(0, 1, 1, "x"))
    assert checks.check(equal, accept) is None
    assert checks.check(equal, reject)
    assert checks.check(unequal, reject) is None
    assert checks.check(unequal, ParseOutcome(True, ast=[], end_position=len(unequal.text)))


def test_deep_check_needs_a_located_error_or_the_right_tree():
    doc = gen.deep_tags(5)
    assert checks.check_deep(doc, _parse(doc)) is None
    assert checks.check_deep(doc, ParseOutcome(False, error=None))
    assert checks.check_deep(doc, ParseOutcome(False, error=ParseError(99, 1, 1, "x")))


def test_cli_check_rejects_json_that_differs():
    doc = gen.expr_chain(random.Random(5), 10)
    expected = ast_to_data(_parse(doc).ast)
    assert run.cli_seconds(doc, expected)[1] is None
    expected[0]["children"][1]["children"] = ["-1"]
    assert run.cli_seconds(doc, expected)[1] is not None

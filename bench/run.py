"""End-to-end benchmark of txpeg's ``run_parse``, CLI and grammar set-up.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload examply-blocks --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20   # every workload
    python3 bench/run.py --workload expr-chains --quick          # small, one pass

The library is imported from ``src/`` of the checkout this file sits in.
Each run generates its documents from ``--seed``, parses whole rounds of
them until ``--seconds`` have passed, checks every outcome against the
generator's record, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a separate traced
pass gives the per-layer ones (see ``tracing.py``).  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from checks import check, check_deep  # noqa: E402
from workloads import GRAMMARS, WORKLOADS, Workload, documents, load_grammar  # noqa: E402

SAMPLES = 11  # set-up and CLI runs per measured run
# The calibration loop: iterations, and the seconds they take on the
# reference CPU that every reported time is scaled to (README, "Steadiness").
CAL_LOOPS = 20000
CAL_SECONDS = 0.002


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python(code: str, *args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports txpeg from ``src/``."""
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          capture_output=True, text=True, env=subprocess_env(),
                          cwd=ROOT, timeout=60)


def setup_code(workload: Workload) -> str:
    """Code that times ``import txpeg`` plus building and freezing the
    workload's grammars."""
    lines = ["import time", "t0 = time.perf_counter()", "import txpeg"]
    for g in workload.grammars:
        module, func = GRAMMARS[g]
        lines.append(f"from {module} import {func}")
        lines.append(f"{func}()")
    lines.append("print(time.perf_counter() - t0)")
    return "\n".join(lines)


def fresh_seconds(code: str) -> float:
    """The seconds that ``code`` measures and prints in a fresh interpreter."""
    done = python(code)
    if done.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {done.stderr.strip()}")
    return float(done.stdout)


CLI_CODE = "import sys\nfrom txpeg.cli import main\nsys.exit(main())"


def cli_doc(workload: Workload, docs):
    """The median-sized accepted document of the workload's first grammar."""
    pool = sorted((d for d in docs if d.accept and not d.deep
                   and d.grammar == workload.grammars[0]), key=lambda d: d.size)
    return pool[len(pool) // 2]


def cli_seconds(doc, expected) -> tuple[float, str | None]:
    """Wall seconds of ``txpeg --grammar G - --format json`` on one
    document, and a reason if its JSON differs from the in-process AST."""
    t0 = time.perf_counter()
    done = python(CLI_CODE, "--grammar", doc.grammar, "-", "--format", "json",
                  stdin=doc.text)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        return elapsed, f"cli exited {done.returncode}: {done.stderr.strip()}"
    if json.loads(done.stdout) != expected:
        return elapsed, "cli JSON differs from ast_to_data of the in-process result"
    return elapsed, None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def wrong(self, doc, reason: str) -> None:
        self.errors.append(f"{doc.grammar} document of {doc.size} bytes: {reason}")


class _Probe:
    __slots__ = ("step",)

    def __init__(self):
        self.step = 1

    def add(self, x: int) -> int:
        return (x + self.step) & 1023


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop makes method calls, attribute loads and small-int arithmetic
    and allocates nothing, so it slows down exactly when the CPU does.
    """
    add = _Probe().add
    x = 0
    t0 = time.perf_counter()
    for _ in range(CAL_LOOPS):
        x = add(x)
    return time.perf_counter() - t0


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """A time converted to a CPU on which the calibration loop takes
    ``CAL_SECONDS``, from calibrations taken just before and after."""
    return seconds * CAL_SECONDS * 2 / (cal_before + cal_after)


def parse_round(grammars, docs, tally: Tally, timings: list | None) -> None:
    """Parse every document once and check each outcome.

    When ``timings`` is a list, each timed document appends its scaled
    ``run_parse`` seconds to it, in document order.  Deep documents are
    never timed and count as failed while ``run_parse`` lets
    ``RecursionError`` escape.
    """
    from txpeg import run_parse
    cal = calibrate() if timings is not None else 0.0
    for doc in docs:
        tally.attempted += 1
        grammar = grammars[doc.grammar]
        if doc.deep:
            try:
                outcome = run_parse(grammar, doc.text)
            except RecursionError:
                tally.failed += 1
                continue
            bad = check_deep(doc, outcome)
        else:
            t0 = time.perf_counter()
            outcome = run_parse(grammar, doc.text)
            elapsed = time.perf_counter() - t0
            if timings is not None:
                after = calibrate()
                timings.append(scaled(elapsed, cal, after))
                cal = after
            bad = check(doc, outcome)
        if bad:
            tally.wrong(doc, bad)


def peak_kib(grammar, text: str) -> float:
    """tracemalloc peak while parsing one document, after a collection."""
    from txpeg import run_parse
    gc.collect()
    tracemalloc.start()
    try:
        run_parse(grammar, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1024


def run_workload(workload: Workload, seed: int, seconds: float, quick: bool) -> dict:
    from txpeg import run_parse
    from txpeg.cli import ast_to_data

    grammars = {g: load_grammar(g) for g in workload.grammars}
    docs = documents(workload, seed, quick)
    timed = [d for d in docs if not d.deep]
    tally = Tally()
    code = setup_code(workload)
    doc = cli_doc(workload, docs)
    expected = ast_to_data(run_parse(grammars[doc.grammar], doc.text).ast)

    # Warm-up: one checked round, one set-up and one CLI run, none timed.
    if not quick:
        parse_round(grammars, docs, tally, None)
        fresh_seconds(code)
        cli_seconds(doc, expected)

    # Timed rounds fill the run.  The set-up and CLI samples are spread
    # evenly over it, so a slow spell of the machine hits every metric
    # alike instead of whichever ran during it.
    samples = 1 if quick else SAMPLES
    rounds: list[list] = []
    setups: list[float] = []
    clis: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(clis) < samples and elapsed >= len(clis) * seconds / samples:
            before = calibrate()
            setup_s = fresh_seconds(code)
            middle = calibrate()
            cli_s, bad = cli_seconds(doc, expected)
            setups.append(scaled(setup_s, before, middle))
            clis.append(scaled(cli_s, middle, calibrate()))
            if bad:
                tally.wrong(doc, bad)
        elif rounds and len(clis) == samples and (quick or elapsed >= seconds):
            break
        else:
            timings: list = []
            parse_round(grammars, docs, tally, timings)
            rounds.append(timings)

    largest = max(timed, key=lambda d: d.size)
    metrics = {
        "parse_kbps": (statistics.median(
            sum(d.size for d in timed) / 1000 / sum(r) for r in rounds), "KB/s"),
        "parse_ms_p50": (statistics.median(
            statistics.median(r[i] for r in rounds) for i in range(len(timed))) * 1000, "ms"),
        "peak_kib": (peak_kib(grammars[largest.grammar], largest.text), "KiB"),
        "setup_s": (statistics.median(setups), "s"),
        "cli_ms": (statistics.median(clis) * 1000, "ms"),
    }
    return {"tally": tally, "metrics": metrics, "rounds": len(rounds)}


def result_line(correct: bool, tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small documents and one pass; every check still runs")
    args = parser.parse_args(argv)

    if not (SRC / "txpeg" / "__init__.py").is_file():
        print(f"no txpeg sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and the interpreters it starts, so that
    # each calibration measures the CPU the timed work ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import txpeg
    if Path(txpeg.__file__).resolve().parent != SRC / "txpeg":
        print(f"txpeg imported from {txpeg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    total = Tally()
    combined: dict = {}
    for name in names:
        workload = WORKLOADS[name]
        if args.trace:
            import tracing
            result = tracing.run_traced(workload, args.seed, args.quick)
        else:
            result = run_workload(workload, args.seed, args.seconds, args.quick)
        tally = result["tally"]
        print(f"== {name}: {tally.attempted} attempted, {tally.failed} failed"
              + (f", {result['rounds']} timed rounds" if "rounds" in result else ""))
        for reason in tally.errors:
            print(f"   WRONG: {reason}")
        for metric, (value, unit) in result["metrics"].items():
            print(f"   {metric:<44} {value:>14.6g} {unit}")
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.errors += tally.errors
        prefix = "" if len(names) == 1 else f"{name}."
        combined.update({prefix + k: v for k, v in result["metrics"].items()})
    print(result_line(not total.errors, total, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

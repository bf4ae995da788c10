"""What importing txpeg costs: no ``dataclasses`` (which brings in
``inspect``, ``ast``, ``dis`` and ``tokenize``), and a CLI that imports a
demo grammar's module only when that grammar is asked for."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).parent.parent / "src"


def modules_added(code: str) -> set:
    """The modules that ``code`` adds to a fresh interpreter's own set."""
    probe = ("import json, sys\nbefore = set(sys.modules)\n" + code +
             "\nprint(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return set(json.loads(done.stdout))


def test_importing_txpeg_and_its_cli_loads_no_dataclasses_or_inspect():
    for code in ("import txpeg", "import txpeg.cli"):
        added = modules_added(code)
        assert "txpeg" in added
        assert not added & {"dataclasses", "inspect"}, code


def test_importing_the_cli_loads_no_demo_grammar():
    added = modules_added("import txpeg.cli")
    assert "txpeg.cli" in added
    assert [m for m in added if m.startswith("txpeg.demos.")] == []


def test_a_cli_grammar_loads_only_its_own_demo_module():
    added = modules_added("from txpeg.cli import GRAMMARS\nGRAMMARS['tags']()")
    assert "txpeg.demos.smoke" in added
    assert not added & {"txpeg.demos.examply", "txpeg.demos.indent",
                        "txpeg.demos.namespaces", "txpeg.demos.expr"}

"""What importing txpeg costs: no ``dataclasses`` (which brings in
``inspect``, ``ast``, ``dis`` and ``tokenize``) and no ``copy``, and a CLI
that imports a demo grammar's module only when that grammar is asked for;
and that each module imports whole when it is the first one a program
imports."""

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
    # Nor ``copy``: freeze copies a parser through its own ``__copy__``.
    for code in ("import txpeg", "import txpeg.cli"):
        added = modules_added(code)
        assert "txpeg" in added
        assert not added & {"dataclasses", "inspect", "copy"}, code


def test_importing_the_cli_loads_no_json_package():
    # The writer escapes strings with json's C helper alone; the json
    # package, and its decoder, load only for a leaf it does not write itself.
    probe = "import sys, txpeg.cli\nprint(sorted(m for m in sys.modules if 'json' in m))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert done.stdout.strip() == "['_json']"


def test_importing_the_cli_loads_no_demo_grammar():
    added = modules_added("import txpeg.cli")
    assert "txpeg.cli" in added
    assert [m for m in added if m.startswith("txpeg.demos.")] == []


def test_a_cli_grammar_loads_only_its_own_demo_module():
    added = modules_added("from txpeg.cli import GRAMMARS\nGRAMMARS['tags']()")
    assert "txpeg.demos.smoke" in added
    assert not added & {"txpeg.demos.examply", "txpeg.demos.indent",
                        "txpeg.demos.namespaces", "txpeg.demos.expr"}


def test_every_module_imports_first_and_a_context_owns_its_ast_stack():
    # core imports AstStack from states, which builds on core: whichever
    # module a program imports first, both must come out whole.
    for first in ("txpeg.core", "txpeg.states", "txpeg.combinators",
                  "txpeg.grammar", "txpeg.cli"):
        added = modules_added(f"import {first}\n"
                              "from txpeg.core import ParseContext\n"
                              "ParseContext('').ast.push(1)")
        assert {first, "txpeg.core", "txpeg.states"} <= added, first

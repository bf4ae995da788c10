"""The command-line driver: exit codes, diagnostics, output formats."""

import errno
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from txpeg.cli import ast_to_data, dump_ast, main
from txpeg.core import ConfigurationError, ContractViolationError
from txpeg.demos.examply import examply_grammar
from txpeg.demos.expr import expr_grammar
from txpeg.grammar import run_parse

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


def write(tmp_path, text, name="input.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_success_exits_zero_and_prints_a_tree(tmp_path, capsys):
    path = write(tmp_path, "val x: Int = 3\n")
    assert main(["--grammar", "examply", path]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    assert lines[0] == "val [0,15)"
    assert lines[1] == "  'x'"
    assert "int [13,14)" in out.out


def test_parse_failure_exits_one_with_located_diagnostic(tmp_path, capsys):
    path = write(tmp_path, "<foo></bar>", name="f.xml")
    assert main(["--grammar", "tags", path]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{path}:1:8: expected closing tag for 'foo'\n"


def test_valid_tags_file_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "<foo></foo>", name="f.xml")
    assert main(["--grammar", "tags", path]) == 0
    capsys.readouterr()


def test_unknown_grammar_is_a_usage_error_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "never-created")
    assert main(["--grammar", "nope", missing]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_missing_arguments_are_usage_errors(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unreadable_file_exits_two_with_message(tmp_path, capsys):
    missing = str(tmp_path / "absent.txt")
    assert main(["--grammar", "anbncn", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_stdin_dash_reads_standard_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("aabbcc"))
    assert main(["--grammar", "anbncn", "-"]) == 0
    capsys.readouterr()

    monkeypatch.setattr("sys.stdin", io.StringIO("aabbc"))
    assert main(["--grammar", "anbncn", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("-:1:6: ")


def test_partial_flag_allows_a_prefix_match(tmp_path, capsys):
    path = write(tmp_path, "1-2 and the rest")
    assert main(["--grammar", "expr", path]) == 1
    capsys.readouterr()
    assert main(["--grammar", "expr", "--partial", path]) == 0
    out = capsys.readouterr().out
    # The trailing token whitespace belongs to the match, so the span
    # runs one past the last digit.
    assert out.splitlines()[0] == "sub [0,4)"


def test_an_ast_deeper_than_the_recursion_limit_prints_json_that_round_trips(
        tmp_path, capsys):
    # Each operand nests one more "sub" node, so the AST is deeper than
    # the recursion limit; the dump writes it without recursing.
    limit = sys.getrecursionlimit()
    chain = "-".join(str(i % 10) for i in range(limit))
    path = write(tmp_path, chain + "\n")
    assert main(["--grammar", "expr", "--format", "json", path]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    expected = ast_to_data(run_parse(expr_grammar(), chain + "\n").ast)
    # Only the check needs more room: json.loads and == recurse.
    sys.setrecursionlimit(limit * 10)
    try:
        assert json.loads(out.out) == expected
    finally:
        sys.setrecursionlimit(limit)
    # The tree: limit - 1 sub nodes, and limit num nodes with one digit each.
    assert main(["--grammar", "expr", path]) == 0
    assert capsys.readouterr().out.count("\n") == 3 * limit - 1


def test_too_deep_an_input_exits_one_with_a_located_diagnostic(tmp_path, capsys):
    path = write(tmp_path, "<a>" * 400 + "</a>" * 400)
    assert main(["--grammar", "tags", path]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{path}:1:")
    assert lines[0].endswith(": input nests too deeply")


def test_json_output_is_byte_stable_and_matches_the_fixture(tmp_path, capsys):
    fixture = FIXTURES / "examply" / "accept" / "r1_import_package.examply"
    runs = []
    for _ in range(2):
        assert main(["--grammar", "examply", "--format", "json",
                     str(fixture)]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert runs[0] == fixture.with_suffix(".expected.json").read_text()


def test_json_output_is_the_data_of_the_in_process_ast(tmp_path, capsys):
    text = "fun f(a: Int): Int\n    a\n"
    path = write(tmp_path, text)
    assert main(["--grammar", "examply", "--format", "json", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == ast_to_data(run_parse(examply_grammar(), text).ast)


def test_trace_state_logs_operations_only_when_asked(tmp_path, capsys):
    path = write(tmp_path, "1-2\n")
    assert main(["--grammar", "expr", path]) == 0
    assert capsys.readouterr().err == ""

    assert main(["--grammar", "expr", "--trace-state", path]) == 0
    err = capsys.readouterr().err
    assert "snapshot pos=" in err
    assert "restore pos=" in err


def test_trace_state_of_a_left_recursive_chain_is_pinned(tmp_path, capsys):
    # A traced growth round shows its diff and then its restore.
    path = write(tmp_path, "1 - 2-3 -4")
    assert main(["--grammar", "expr", "--trace-state", path]) == 0
    ops = [line.split(" ", 2)[:2] for line in capsys.readouterr().err.splitlines()]
    assert [" ".join(op) for op in ops] == [
        "snapshot pos=0", "snapshot pos=0", "restore pos=0", "snapshot pos=0",
        "diff pos=2", "restore pos=0", "snapshot pos=0", "merge pos=2",
        "snapshot pos=4", "diff pos=5", "restore pos=0", "snapshot pos=0",
        "merge pos=5", "snapshot pos=6", "diff pos=8", "restore pos=0",
        "snapshot pos=0", "merge pos=8", "snapshot pos=9", "diff pos=10",
        "restore pos=0", "snapshot pos=0", "merge pos=10", "restore pos=0",
        "snapshot pos=0", "diff pos=2", "restore pos=0", "merge pos=10",
    ]


def test_dump_ast_handles_every_leaf_shape():
    from txpeg.combinators import AstNode

    ast = [AstNode("k", ("s", None, [AstNode("m", (), (1, 2))]), (0, 2))]
    tree = dump_ast(ast, "tree")
    assert tree.splitlines() == [
        "k [0,2)",
        "  's'",
        "  None",
        "  list (1)",
        "    m [1,2)",
    ]
    data = json.loads(dump_ast(ast, "json"))
    assert data[0]["children"][1] is None
    assert data == ast_to_data(ast)


def test_the_json_writer_matches_json_dumps_with_indent_two():
    from txpeg.combinators import AstNode

    leaves = ["", "é\n\"q\"\t\\", "\U0001f600", 0, -7, 2.5, 1e100, True, False,
              None, (), (1, "t"), {}, {"k": [[], {}]}, [[[]]], [{}]]
    ast = [AstNode("k", tuple(leaves), (0, 2)), AstNode("m", (), None), [], leaves]
    assert dump_ast(ast, "json") == json.dumps(ast_to_data(ast), indent=2) + "\n"


def test_non_utf8_file_exits_two_with_the_offending_byte(tmp_path, capsys):
    path = tmp_path / "bad.tags"
    path.write_bytes(b"<a>\xff</a>")
    assert main(["--grammar", "tags", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"cannot read {path}: not UTF-8 (byte 0xff at offset 3)\n"


def test_non_utf8_stdin_exits_two_with_the_offending_byte(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"<a>\xff</a>"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["--grammar", "tags", "-"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "cannot read -: not UTF-8 (byte 0xff at offset 3)\n"


def test_non_utf8_stdin_under_the_c_locale_exits_two_like_a_file():
    # Under a C locale Python reads text stdin with surrogateescape, so
    # only a strict decode of the bytes reports the bad byte.
    src = str(pathlib.Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, LC_ALL="C", PYTHONPATH=path)
    env.pop("PYTHONIOENCODING", None)
    env.pop("PYTHONUTF8", None)
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from txpeg.cli import main; sys.exit(main())",
         "--grammar", "tags", "-"],
        input=b"<a>\xff</a>", capture_output=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr == b"cannot read -: not UTF-8 (byte 0xff at offset 3)\n"


@pytest.mark.parametrize("args, text, code, out, err", [
    (["-"], "<a></a>", 0, "", ""),  # the tags grammar builds no nodes
    (["--format", "json", "-"], "<a></a>", 0, "[]\n", ""),
    (["-"], "<a></b>", 1, "", "-:1:6: expected closing tag for 'a'\n"),
], ids=["tree", "json", "mismatch"])
def test_python_dash_m_runs_the_cli(args, text, code, out, err):
    src = str(pathlib.Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "txpeg.cli", "--grammar", "tags", *args],
        input=text, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_stdin_bytes_get_universal_newlines(capsys, monkeypatch):
    crlf = io.TextIOWrapper(io.BytesIO(b"val x: Int = 1\r\nval y: Int = 2\r"),
                            encoding="utf-8")
    monkeypatch.setattr("sys.stdin", crlf)
    assert main(["--grammar", "examply", "--format", "json", "-"]) == 0
    translated = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO("val x: Int = 1\nval y: Int = 2\n"))
    assert main(["--grammar", "examply", "--format", "json", "-"]) == 0
    assert translated == capsys.readouterr().out


def test_text_stdin_gets_universal_newlines_too(capsys, monkeypatch):
    crlf = "fun f(): Int\r\n    val x: Int = 1\r\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(crlf))
    assert main(["--grammar", "examply", "--format", "json", "-"]) == 0
    translated = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(crlf.encode()),
                                                      encoding="utf-8"))
    assert main(["--grammar", "examply", "--format", "json", "-"]) == 0
    assert translated == capsys.readouterr().out
    assert '"span": [\n      0,\n      32\n' in translated


@pytest.mark.parametrize("error", [ContractViolationError, ConfigurationError])
def test_internal_error_exits_four_with_one_line(tmp_path, capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("cell broke its contract")

    monkeypatch.setattr("txpeg.cli.run_parse", broken)
    path = write(tmp_path, "aabbcc")
    assert main(["--grammar", "anbncn", path]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{path}: internal error: cell broke its contract\n"


# Bytes the mutations insert: invalid UTF-8, NUL, a bare carriage return,
# and the punctuation both grammars branch on.
MUTATION_BYTES = b"\xff\x00\r\n\t <>/\":=(){},.ab1"
TAGS_DOCUMENTS = [b"<a><b></b><c></c></a>", b"<foo><bar></bar></foo>"]


def mutants(rng, data, count):
    for _ in range(count):
        out = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(out) + 1)
            op = rng.choice(("insert", "delete", "replace"))
            byte = rng.choice((rng.choice(MUTATION_BYTES), rng.choice(data)))
            if op == "insert":
                out.insert(at, byte)
            elif at < len(out):
                if op == "delete":
                    del out[at]
                else:
                    out[at] = byte
        yield bytes(out)


def test_mutated_fixtures_exit_cleanly_with_at_most_one_line(tmp_path, capsys):
    rng = random.Random(1609)
    cases = [("tags", doc) for doc in TAGS_DOCUMENTS]
    cases += [("examply", p.read_bytes())
              for kind in ("accept", "reject")
              for p in sorted((FIXTURES / "examply" / kind).glob("*.examply"))]
    path = tmp_path / "mutant"
    seen = set()
    for grammar, data in cases:
        for mutant in mutants(rng, data, 6):
            path.write_bytes(mutant)
            code = main(["--grammar", grammar, str(path)])
            err = capsys.readouterr().err
            try:
                mutant.decode("utf-8")
                utf8 = True
            except UnicodeDecodeError:
                utf8 = False
            assert code in (0, 1, 2), (grammar, mutant)
            assert (code == 2) == (not utf8), (grammar, mutant, err)
            assert err.count("\n") <= 1 and "Traceback" not in err, (grammar, mutant, err)
            seen.add(code)
    assert seen == {0, 1, 2}


class FullStdout(io.StringIO):
    """A stdout on a device with no space left."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_unwritable_output_exits_two_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1-2"))
    monkeypatch.setattr("sys.stdout", FullStdout())
    assert main(["--grammar", "expr", "--format", "json", "-"]) == 2
    assert capsys.readouterr().err == (
        f"cannot write output: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_output_to_a_full_device_exits_two_with_one_line(unbuffered):
    # Buffered, the write itself succeeds and the flush fails; the output
    # it keeps must not fail again, or print, when the interpreter exits.
    src = str(pathlib.Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "txpeg.cli", "--grammar", "expr", "--format",
             "json", "-"],
            input=b"1-2", stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    assert done.returncode == 2
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot write output: "), lines

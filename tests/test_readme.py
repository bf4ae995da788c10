"""The README's quick-start example runs and prints what the README shows."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_quick_start_example_prints_what_the_readme_shows(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    shown = ["True ['begin']", "1:12: expected 'begin' after '='"]
    # The README shows each output line as a comment in the block itself.
    assert all(f"# {line}" in blocks[0] for line in shown)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.splitlines() == shown

"""Every 1-3 token input keeps its committed outcome under examply and
composed: success, position and message (see ``token_outcomes.py``)."""

import token_outcomes
from token_outcomes import REFRESH, compute, differences, load


def test_token_outcomes_match_the_golden_file():
    changed = differences(load(), compute())
    assert not changed, (
        f"{len(changed)} token outcomes changed; if deliberate, refresh the "
        f"file with `{REFRESH}` and review its diff:\n" + "\n".join(changed[:20])
    )


def test_the_generator_writes_only_when_asked(tmp_path, monkeypatch, capsys):
    data = tmp_path / "token_outcomes.json"
    old = {"examply": {"x": [False, 0, "old"], "val": [False, 3, "same"]}}
    new = {"examply": {"x": [False, 1, "new"], "val": [False, 3, "same"]}}
    data.write_text(token_outcomes.dumps(old), encoding="utf-8")
    monkeypatch.setattr(token_outcomes, "DATA", data)
    monkeypatch.setattr(token_outcomes, "compute", lambda: new)

    assert token_outcomes.main([]) == 1
    out = capsys.readouterr()
    assert out.out == "examply 'x': [False, 0, 'old'] -> [False, 1, 'new']\n"
    assert REFRESH in out.err
    assert token_outcomes.load() == old

    assert token_outcomes.main(["--write"]) == 0
    assert "examply 'x'" in capsys.readouterr().out
    assert token_outcomes.load() == new
    assert token_outcomes.main([]) == 0

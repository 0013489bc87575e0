"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", text, flags=re.DOTALL)
    exec(compile(block, f"{README}:Library quick start", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert out[2] == "OverlapVerdict.NO_FLAGS"

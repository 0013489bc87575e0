"""The README's code runs as written, and the package names it gives exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import attlab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", text, flags=re.DOTALL)
    exec(compile(block, f"{README}:Library quick start", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert out[2] == "OverlapVerdict.NO_FLAGS"


def test_every_package_name_in_the_readme_resolves():
    # A backticked `module.name` (or `module.name.attr`) whose module is one of attlab's,
    # but not a file such as `diagnostics.json`.
    modules = {module.name for module in pkgutil.iter_modules(attlab.__path__)}
    text = README.read_text(encoding="utf-8")
    names = {
        match.group(0)
        for span in re.findall(r"`([^`\n]+)`", text)
        for match in re.finditer(r"(?<![\w./])(?:attlab\.)?([a-z_]+)((?:\.[A-Za-z_]\w*)+)", span)
        if match.group(1) in modules and match.group(2) not in (".json", ".csv", ".py")
    }
    assert names  # the README names some
    missing = []
    for name in sorted(names):
        module, *chain = name.removeprefix("attlab.").split(".")
        target = importlib.import_module(f"attlab.{module}")
        for attribute in chain:
            target = getattr(target, attribute, None)
        if target is None:
            missing.append(name)
    assert missing == []

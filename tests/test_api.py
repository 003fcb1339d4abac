"""The documented surface: every exported name and the README example."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import pytest

import feedsched
from feedsched.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(feedsched.__path__))
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"feedsched.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    assert main(["gen-curve", "--seed", "7", "--out", "curve7.json"]) == 0
    exec(compile(code, str(README), "exec"), {})
    chord_err, total_time = map(float, capsys.readouterr().out.split()[-2:])
    assert 0.0 < chord_err and math.isfinite(chord_err)
    assert 0.0 < total_time and math.isfinite(total_time)

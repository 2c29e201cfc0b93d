"""README.md as a tested contract: its builtins table and library examples."""

from __future__ import annotations

import re

from cloudadl.behaviors import BUILTINS

from helpers import PKG_ROOT

README = (PKG_ROOT / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text of one `## title` section."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def test_builtins_table_lists_exactly_the_builtins():
    names = re.findall(r"^\| `(\w+)\(", section("Built-in behaviors"), re.MULTILINE)
    assert sorted(names) == sorted(BUILTINS)


def test_library_use_blocks_run_from_the_repo_root(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", section("Library use"), re.DOTALL)
    assert len(blocks) >= 2
    monkeypatch.chdir(PKG_ROOT)
    namespace: dict = {}
    # later blocks use the names earlier blocks bind, as a reader would
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    out = capsys.readouterr().out
    assert out.startswith("pass\n")
    assert "\tSEND\t" in out

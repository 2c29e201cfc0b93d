"""README.md as a tested contract: its builtins table, library examples and
command lines."""

from __future__ import annotations

import glob
import re
import shlex
import shutil

from cloudadl.behaviors import BUILTINS
from cloudadl.cli import main

from helpers import MODELS_DIR, PKG_ROOT, SCENARIOS_DIR

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


def test_command_lines_run_on_a_copy(tmp_path, monkeypatch, capsys):
    """Every line of the "Command line" block exits 0, run in a directory
    that holds copies of models/ and scenarios/, so the lines that write
    files write only there."""
    block = re.search(r"```\n(.*?)```", section("Command line"), re.DOTALL).group(1)
    shutil.copytree(MODELS_DIR, tmp_path / "models")
    shutil.copytree(SCENARIOS_DIR, tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert sum(argv[0] == "cloudadl" for argv in commands) >= 8
    for argv in commands:
        if argv[:2] == ["cp", "-r"]:
            shutil.copytree(argv[2], argv[3])
            continue
        assert argv[0] == "cloudadl", argv
        args = []
        for arg in argv[1:]:
            # as the shell expands a glob
            args += sorted(glob.glob(arg)) if "*" in arg else [arg]
        assert main(args) == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()
    assert (tmp_path / "rows.txt").read_text(encoding="utf-8")
    # fmt --write rewrote the copies, without their comments
    copies = sorted((tmp_path / "my-models").glob("*.arc"))
    assert len(copies) == 4
    assert all("//" not in path.read_text(encoding="utf-8") for path in copies)

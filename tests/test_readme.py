"""The README's code examples run against the package as it is."""
import re
import shlex
from pathlib import Path

from swarmguide.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library use", "exec"), {})
    printed = capsys.readouterr().out
    assert "SpectralReport(" in printed


def test_quick_start_commands_exit_as_their_comments_say(tmp_path, monkeypatch):
    # A line ending in ``# exit N`` must exit N, every other line 0.  Output
    # paths are relative, so the lines run in a fresh directory; scenario
    # paths point at the shipped files.
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in block.splitlines():
        if not line.startswith("swarmguide "):
            continue
        command, _, comment = line.partition("#")
        expected = re.fullmatch(r"\s*exit (\d+)\s*", comment) if comment else None
        argv = [str(ROOT / arg) if arg.startswith("scenarios/") else arg for arg in shlex.split(command)[1:]]
        assert main(argv) == (int(expected.group(1)) if expected else 0), line
        ran.append(argv[0])
    assert sorted(set(ran)) == ["compare", "export-matrix", "run", "verify"]

"""README against the code: every dyngof line parses, every python block runs and every module name resolves.

CI runs each dyngof line of README's sh blocks too; this test parses them with the CLI's own parser
without running them, so a renamed or removed flag fails the Tier-1 suite.
"""

import importlib
import re
import shlex
from pathlib import Path

from dyngof import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_every_dyngof_line_parses():
    commands = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["dyngof"]:
                commands.append(words[1:])
    assert commands
    for argv in commands:
        cli.build_parser().parse_args(argv)


def test_every_python_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert blocks("python")
    for block in blocks("python"):
        exec(compile(block, "README.md", "exec"), {})


def test_every_module_name_resolves():
    names = set(re.findall(r"`(models|sampling|gof|harness|oracle|cli|rng)\.(\w+)", README))
    assert names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"dyngof.{module}"), name)]
    assert missing == []

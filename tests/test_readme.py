"""The README's Quick start runs as written, with every warning an error,
so a renamed or removed public name fails here before a reader meets it;
its command-line table lists the flags each subcommand reads."""

import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from nonlocal_eigen import cli

README = Path(__file__).parent.parent / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_command_line_table_lists_each_subcommand_flags():
    # the table is the one copy of the settings outside RunConfig
    text = README.read_text(encoding="utf-8")
    grid_flags = re.search(r"The grid flags are `([^`]*)`", text).group(1).split()
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", text, flags=re.MULTILINE))
    assert set(rows) == set(cli._COMMANDS)
    for name, cell in rows.items():
        listed = re.findall(r"`(--[\w-]+)`", cell) + (grid_flags if "grid flags" in cell else [])
        read = [cli._flag(f) for f in fields(cli.RunConfig) if name in f.metadata["commands"]]
        assert sorted(listed) == sorted(read), name

"""The README's Quick start runs as written, with every warning an error,
so a renamed or removed public name fails here before a reader meets it."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

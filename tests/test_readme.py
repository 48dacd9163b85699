"""The README's code examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_python_blocks_run():
    blocks = python_blocks()
    assert blocks, "README.md has no python block"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for i, block in enumerate(blocks):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", block],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, f"README python block {i} failed:\n{proc.stderr}"

"""The ``python`` code blocks of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    """Each block runs in a fresh namespace, so a documented name that the
    package no longer exports fails here."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks
    for k, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {k}", "exec"), {"__name__": "readme"})

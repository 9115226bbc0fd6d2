"""The README's examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_points_import():
    # the python block under "## Library entry points"
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert block.startswith("from cwm import (")
    exec(compile(block, str(README), "exec"), {})

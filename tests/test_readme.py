"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under ## Library"
    # optimize=0 keeps the example's asserts under python -O as well
    exec(compile(block.group(1), str(README), "exec", optimize=0), {})

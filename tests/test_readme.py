"""README's Library example runs, and every exported name resolves.

Deleting or renaming an export then fails here rather than leaving the
README example or `minordet.__all__` stale.
"""

from __future__ import annotations

import re
from pathlib import Path

import minordet

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_and_exports_resolve():
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert block is not None, "README's Library section has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
    missing = [name for name in minordet.__all__ if not hasattr(minordet, name)]
    assert missing == []

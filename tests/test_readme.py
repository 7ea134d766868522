"""The README's library quick tour runs as written, so the public API it
shows cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs_as_written():
    section = README.read_text().split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README.name} quick tour", "exec"), namespace)
    assert namespace["summary"].leaf_counts.shape == (50_000,)

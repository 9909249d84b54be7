import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_points_import():
    # a name deleted from the package must not stay documented
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under Library entry points"
    exec(compile(block.group(1), f"{README}:Library entry points", "exec"), {})

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_entry_points_import():
    # a name deleted from the package must not stay documented
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under Library entry points"
    exec(compile(block.group(1), f"{README}:Library entry points", "exec"), {})


def test_source_lines_fit_in_100_characters():
    paths = sorted(ROOT.glob("src/gossipfresh/*.py")) + sorted(ROOT.glob("scripts/*.py"))
    assert paths
    long = [
        f"{path.relative_to(ROOT)}:{i}"
        for path in paths
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []

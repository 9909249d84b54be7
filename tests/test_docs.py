import ast
import re
import shlex
import shutil
from pathlib import Path

from gossipfresh import cli

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


def test_every_imported_name_is_used():
    # no linter runs here, so this keeps dead imports out of src/; a name
    # the module exports through __all__ counts as used, and a line marked
    # "noqa: F401" keeps a name for a reader outside the module
    unused = []
    for path in sorted(ROOT.glob("src/gossipfresh/*.py")):
        source = path.read_text(encoding="utf-8")
        lines, tree = source.splitlines(), ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {
            entry.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
            for entry in node.value.elts
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.relative_to(ROOT)}:{alias.lineno} {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name).split(".")[0] not in used
                    and "noqa: F401" not in lines[alias.lineno - 1]
                ]
    assert unused == []


def test_readme_cli_block_runs_from_a_fresh_directory(tmp_path, monkeypatch):
    # a checkout has configs/ but not the out/ its configs write to
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block, "README has no sh block under CLI"
    lines = block.group(1).replace("\\\n", " ").splitlines()
    commands = [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]
    assert commands and all(argv[0] == "gossipfresh" for argv in commands)
    for argv in commands:
        if argv[1] == "simulate":
            # argparse keeps the last --cycles, so this runs 200 cycles per
            # grid point instead of the README's count, to keep the test fast
            argv += ["--cycles", "200"]
        assert cli.main(argv[1:]) == 0, argv
    assert sorted(p.name for p in (tmp_path / "out").glob("*.csv")) == [
        "clustered_fc.csv",
        "flat_policies.csv",
    ]

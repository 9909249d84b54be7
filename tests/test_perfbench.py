import ast
import importlib
from pathlib import Path

from gossipfresh import analytic, cli, simulator

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_boundary_resolves(monkeypatch):
    # perfbench --trace 1 patches these names in the package; a rename in
    # src/ would otherwise surface only as an AttributeError there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.SPANS and layers.COUNTERS
    for owner, attr, _ in layers.SPANS + layers.COUNTERS:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


def test_every_package_name_the_workloads_read_resolves():
    # a name deleted from src/ would otherwise surface only as failed ops
    # in a benchmark run
    modules = {"analytic": analytic, "cli": cli, "simulator": simulator}
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {owner for owner, _ in reads} == set(modules)
    assert [f"{o}.{a}" for o, a in sorted(reads) if not hasattr(modules[o], a)] == []

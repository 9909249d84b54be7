import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_boundary_resolves(monkeypatch):
    # perfbench --trace 1 patches these names in the package; a rename in
    # src/ would otherwise surface only as an AttributeError there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.SPANS and layers.COUNTERS
    for owner, attr, _ in layers.SPANS + layers.COUNTERS:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"

"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps library
functions by module attribute, so every attribute it names must stay on the
library: a missing one fails the traced run, not the rest of this suite."""

import importlib
from pathlib import Path

import liftlab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_attribute_resolves_on_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    resolved = layers.patches(liftlab)
    assert resolved
    assert [f"{module.__name__}.{attr}" for module, attr, _, _ in resolved
            if not hasattr(module, attr)] == []

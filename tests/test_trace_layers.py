"""The benchmark's tracer names the package's public functions by layer
(``perfbench/spans.py``, ``LAYERS``); a name that no longer resolves would
only show as an AttributeError in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def traced_layers() -> dict:
    """The ``LAYERS`` table, read from the source without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {SPANS}")


def test_every_traced_name_is_a_function_of_its_layer():
    layers = traced_layers()
    missing = [
        f"nlops.{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"nlops.{layer}"), name, None))
    ]
    assert layers and missing == []

"""The benchmark's span tracer wraps moddeg functions by name: every
(module, function) pair it lists must name a callable in moddeg."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_names() -> tuple[tuple[str, str], ...]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_every_traced_name_is_a_callable():
    names = traced_names()
    assert names
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not callable(getattr(importlib.import_module(f"moddeg.{module}"), name, None))
    ]
    assert missing == []

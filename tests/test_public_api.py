"""Every name moddeg or one of its submodules exports has a reader outside
the tests: a name that only tests call is test code living in the runtime."""

import importlib
import io
import tokenize
import types
from pathlib import Path

import pytest

import moddeg

ROOT = Path(__file__).resolve().parents[1]
# The package itself (its __init__ only re-exports), the demos and the benchmark.
SOURCES = [
    path
    for folder in ("src/moddeg", "demos", "bench")
    for path in sorted((ROOT / folder).rglob("*.py"))
    if path.name != "__init__.py"
]
# The submodules that declare what they export.
SUBMODULES = sorted(
    path.stem
    for path in (ROOT / "src/moddeg").glob("*.py")
    if not path.stem.startswith("_") and "\n__all__ = " in path.read_text(encoding="utf-8")
)


def _names_read() -> set[str]:
    """Every name read in SOURCES: each of its tokens but the one its own
    def or class line binds.  A name in a docstring, a comment or an
    __all__ string is no token of its own, so it reads nothing."""
    names = set()
    for path in SOURCES:
        previous = None
        for token in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
            if token.type == tokenize.NAME and previous not in ("def", "class"):
                names.add(token.string)
            previous = token.string
    return names


READ = _names_read()


def test_every_export_has_a_runtime_reader():
    names = [name for name in moddeg.__all__ if not isinstance(getattr(moddeg, name), types.ModuleType)]
    assert names
    unread = [name for name in names if name not in READ]
    assert unread == [], f"exported but read only by tests: {unread}"


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_submodule_export_has_a_runtime_reader(module):
    names = importlib.import_module(f"moddeg.{module}").__all__
    assert names
    unread = [name for name in names if name not in READ]
    assert unread == [], f"moddeg.{module} exports names read only by tests: {unread}"

"""Every name moddeg exports has a reader outside the tests: a name that
only tests call is test code living in the runtime."""

import re
import types
from pathlib import Path

import moddeg

ROOT = Path(__file__).resolve().parents[1]
# The package itself (its __init__ only re-exports), the demos and the benchmark.
SOURCES = [
    path
    for folder in ("src/moddeg", "demos", "bench")
    for path in sorted((ROOT / folder).rglob("*.py"))
    if path.name != "__init__.py"
]


def _readers(name: str) -> list[str]:
    """Lines that use name as a whole word, other than its own def or
    class line and an __all__ string."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b|^\s*[\"']{re.escape(name)}[\"'],?\s*$")
    return [
        f"{path.relative_to(ROOT)}: {line.strip()}"
        for path in SOURCES
        for line in path.read_text(encoding="utf-8").splitlines()
        if word.search(line) and not own.search(line)
    ]


def test_every_export_has_a_runtime_reader():
    names = [name for name in moddeg.__all__ if not isinstance(getattr(moddeg, name), types.ModuleType)]
    assert names
    unread = [name for name in names if not _readers(name)]
    assert unread == [], f"exported but read only by tests: {unread}"

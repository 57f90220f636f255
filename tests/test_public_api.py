"""Each public name has one import path, moddeg.<module>.<name>, and a
reader outside the tests: a name that only tests call is test code living
in the runtime."""

import importlib
import io
import json
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import moddeg
from test_golden import child_env

ROOT = Path(__file__).resolve().parents[1]
# The package itself (its __init__ only imports the submodules), the demos and the benchmark.
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


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_submodule_export_has_a_runtime_reader(module):
    names = importlib.import_module(f"moddeg.{module}").__all__
    assert names
    unread = [name for name in names if name not in READ]
    assert unread == [], f"moddeg.{module} exports names read only by tests: {unread}"


# What ``import moddeg`` loads, which the benchmark's import probe times.
LIBRARY = ["agm", "bounds", "curves", "fudge", "lvalue", "report", "specfun", "zerofree"]


def test_import_moddeg_loads_its_modules_and_no_more():
    """A fresh ``import moddeg`` loads the library modules and neither the
    command line, argparse nor fractions; the package gives none of their
    exports a second import path."""
    probe = "import json, sys, moddeg; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(), check=True)
    loaded = set(json.loads(proc.stdout))
    assert {name for name in loaded if name.split(".")[0] == "moddeg"} == {"moddeg", *(f"moddeg.{m}" for m in LIBRARY)}
    assert sorted(loaded & {"argparse", "fractions"}) == []
    second_paths = []
    for module in LIBRARY:
        submodule = importlib.import_module(f"moddeg.{module}")
        second_paths += [
            name for name in submodule.__all__ if getattr(moddeg, name, submodule) is getattr(submodule, name)
        ]
    assert second_paths == [], f"moddeg re-exports {second_paths}"

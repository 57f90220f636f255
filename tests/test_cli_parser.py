"""The command-line parser is built once per process and reused.

This module imports only the standard library, pytest and moddeg, and
no conftest, so it runs with none of the test extras installed.
"""

import subprocess
import sys

import pytest

from moddeg.cli import build_parser, main

from test_golden import DATASET, child_env, run_cli

# Counts each ArgumentParser made while moddeg.cli is imported, then each
# build_parser call made by two main calls on an empty table.
_COUNT_BUILDS = """
import argparse, os

made = 0
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    global made
    made += 1
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
import moddeg.cli
print("parsers made by the import:", made)

calls = 0
build = moddeg.cli.build_parser

def counting_build():
    global calls
    calls += 1
    return build()

moddeg.cli.build_parser = counting_build
codes = [moddeg.cli.main(["bound", "--input", os.devnull, "--output", "-"]) for _ in range(2)]
print("exit codes:", codes)
print("build_parser calls by two main calls:", calls)
"""


def test_import_builds_no_parser_and_main_builds_one():
    proc = subprocess.run([sys.executable, "-c", _COUNT_BUILDS], capture_output=True, text=True, env=child_env())
    assert proc.stdout == (
        "parsers made by the import: 0\nexit codes: [0, 0]\nbuild_parser calls by two main calls: 1\n"
    ), proc.stderr


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_usage_error_leaves_no_state_for_the_next_call(tmp_path, capsys):
    # a call that fails in the parser, then bound on the shipped dataset:
    # the same bytes as a fresh interpreter writes
    with pytest.raises(SystemExit) as failure:
        main(["invariants", "--a", "1,2"])
    assert failure.value.code == 2
    assert "--a" in capsys.readouterr().err
    dst = tmp_path / "out.jsonl"
    assert main(["bound", "--input", str(DATASET), "--output", str(dst)]) == 0
    fresh = run_cli("bound", "--input", str(DATASET), "--output", "-")
    assert fresh.returncode == 0, fresh.stderr
    assert dst.read_bytes() == fresh.stdout


def test_version_exits_zero_on_each_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as done:
            main(["--version"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("moddeg ")

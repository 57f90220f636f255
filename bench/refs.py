"""Reference timings: how fast the host runs at a given moment.

The host's speed swings by 2-3x in phases of seconds to minutes (README,
"Steadiness"), so the benchmark times one of these beside every sample and
scales the sample to the reference speed, at which each takes its nominal
time below.  Neither calls moddeg code, so a change to moddeg moves a
scaled figure exactly as it moves the raw one.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time

ROUTINE_NOMINAL_S = 0.0015
INTERPRETER_START_NOMINAL_S = 0.05

_ROUTINE_DOC = {"a": [1, 2, 3], "b": {"x": 1.5, "y": "z"}, "c": list(range(20))}


def routine_seconds() -> float:
    """Time of a fixed pure-Python routine shaped like moddeg's per-record
    work (exact integer invariants, a float AGM, JSON, trial division);
    the median of three.  The reference for in-process samples."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for k in range(100):
            a1, a2, a3, a4, a6 = 1, 0, 1, k - 83749, 77231
            b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
            b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
            disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
            x, y = 1.0, 0.5 + k / 100
            for _ in range(6):
                x, y = (x + y) / 2, math.sqrt(x * y)
            doc = json.loads(json.dumps(_ROUTINE_DOC))
            n, f = 1000003 * (k + 7) + disc % 2 + len(doc), 3
            while f * f <= 10000 and n % f:
                f += 2
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def interpreter_start_seconds(env: dict[str, str]) -> float:
    """Wall time of a fresh `python -c pass`.  The reference for fresh
    processes (a CLI call, a program process's set-up), whose start-up
    the in-process routine follows only loosely."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start

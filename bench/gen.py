"""Seeded input generation for the moddeg benchmark.

Every generator takes the workload seed and returns plain data (JSON
records, curve lists, command lines); the same seed gives the same
inputs.  Nothing here imports moddeg: the program only ever sees the
files written from these values.
"""

from __future__ import annotations

import random

from sympy import factorint, nextprime

import oracle

# Curves from the standard tables with their modular degrees: the fifteen
# table curves of the shipped dataset.  (label, a-invariants, N, deg phi)
TABLE_CURVES = (
    ("11a1", (0, -1, 1, -10, -20), 11, 1),
    ("11a3", (0, -1, 1, 0, 0), 11, 5),
    ("14a1", (1, 0, 1, 4, -6), 14, 1),
    ("15a1", (1, 1, 1, -10, -10), 15, 1),
    ("17a1", (1, -1, 1, -1, -14), 17, 1),
    ("19a1", (0, 1, 1, -9, -15), 19, 1),
    ("20a1", (0, 1, 0, 4, 4), 20, 1),
    ("21a1", (1, 0, 0, -4, -1), 21, 1),
    ("24a1", (0, -1, 0, -4, 4), 24, 1),
    ("27a1", (0, 0, 1, 0, -7), 27, 1),
    ("32a1", (0, 0, 0, 4, 0), 32, 1),
    ("36a1", (0, 0, 0, 0, 1), 36, 1),
    ("37a1", (0, 0, 1, -1, 0), 37, 2),
    ("49a1", (1, -1, 0, -2, -1), 49, 1),
    ("389a1", (0, 1, 1, -2, 0), 389, 40),
)

TABLE_SMALL_RECORDS = 4000
TABLE_SMALL_MAX_N = 10**6
TABLE_SMALL_COEFF = 10**5

TABLE_LARGE_RECORDS = 16
LARGE_PRIME_RANGE = (10**12, 11 * 10**11)
SQUARED_PRIME_RANGE = (10**3, 10**5)
TABLE_LARGE_COEFF = 10**9

# Curves for the Euler-product estimator: four without CM and four with CM
# (j = 0 twice, j = 1728, and CM by Q(sqrt -7)), plus seeded random models.
EULER_FIXED = (
    ("11a1", (0, -1, 1, -10, -20), 11),
    ("37a1", (0, 0, 1, -1, 0), 37),
    ("389a1", (0, 1, 1, -2, 0), 389),
    ("14a1", (1, 0, 1, 4, -6), 14),
    ("27a1", (0, 0, 1, 0, -7), 27),
    ("32a1", (0, 0, 0, 4, 0), 32),
    ("36a1", (0, 0, 0, 0, 1), 36),
    ("49a1", (1, -1, 0, -2, -1), 49),
)
EULER_RANDOM = 4
EULER_COEFF = 20
EULER_CUTOFF = 2000

# The invariants one-shot of the cli-cold workload.
INVARIANTS_A = (0, 0, 1, -1, 0)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _table_record(label, a, conductor, deg=None) -> dict:
    record = {
        "label": label,
        "a": list(a),
        "conductor": conductor,
        "semistable": all(e == 1 for e in factorint(conductor).values()),
    }
    if deg is not None:
        record["deg_phi"] = deg
    return record


def _random_model(rng: random.Random, coeff: int, min_abs_disc: int) -> tuple[int, ...]:
    """A random integral model with |disc| >= min_abs_disc.

    Real curves satisfy N | disc, so a table record whose |disc| is below
    its conductor would be inconsistent input.
    """
    while True:
        a = (
            rng.randint(0, 1),
            rng.randint(-1, 1),
            rng.randint(0, 1),
            rng.randint(-coeff, coeff),
            rng.randint(-coeff, coeff),
        )
        disc = oracle.invariants(a)["disc"]
        if disc != 0 and abs(disc) >= min_abs_disc:
            return a


def table_small_n(seed: int) -> list[dict]:
    """Random models with conductors <= 1e6, plus the fifteen table curves."""
    rng = _rng("table-small-n", seed)
    records = []
    for i in range(TABLE_SMALL_RECORDS - len(TABLE_CURVES)):
        conductor = rng.randint(11, TABLE_SMALL_MAX_N)
        a = _random_model(rng, TABLE_SMALL_COEFF, conductor)
        records.append(_table_record(f"r{i}", a, conductor))
    for label, a, conductor, deg in TABLE_CURVES:
        records.insert(rng.randint(0, len(records)), _table_record(label, a, conductor, deg))
    return records


def table_large_n(seed: int) -> list[dict]:
    """Conductors whose largest prime factor q lies in [1e12, 1.1e12].

    Half are q itself; half are p^2 q with p a prime in [1e3, 1e5], so a
    local factor enters.  Trial division runs to sqrt(q) ~ 1e6 either way,
    so every record costs about the same.
    """
    rng = _rng("table-large-n", seed)
    records = []
    for i in range(TABLE_LARGE_RECORDS):
        q = int(nextprime(rng.randint(*LARGE_PRIME_RANGE)))
        if i % 2:
            p = int(nextprime(rng.randint(*SQUARED_PRIME_RANGE)))
            conductor, label = p * p * q, f"sq{i}"
        else:
            conductor, label = q, f"pr{i}"
        a = _random_model(rng, TABLE_LARGE_COEFF, conductor)
        records.append(_table_record(label, a, conductor))
    return records


def euler_curves(seed: int) -> list[dict]:
    """The fixed curve set plus seeded random models, in seeded order."""
    rng = _rng("euler-product", seed)
    curves = [{"label": label, "a": list(a), "conductor": n} for label, a, n in EULER_FIXED]
    for i in range(EULER_RANDOM):
        while True:
            a = tuple(rng.randint(-EULER_COEFF, EULER_COEFF) for _ in range(5))
            if oracle.invariants(a)["disc"] != 0:
                break
        curves.append({"label": f"rand{i}", "a": list(a), "conductor": None})
    rng.shuffle(curves)
    return curves


def side_estimate_curves() -> list[dict]:
    """The two curves, one without CM and one with, of the side estimate sample."""
    return [{"label": label, "a": list(a), "conductor": n} for label, a, n in EULER_FIXED if label in ("11a1", "27a1")]


def cli_commands(seed: int, dataset: str, bound_out: str) -> list[tuple[str, list[str]]]:
    """The three one-shot commands, rotated to a seeded starting point."""
    commands = [
        ("verify-lemmas", ["verify-lemmas", "--json"]),
        ("invariants", ["invariants", "--a", ",".join(map(str, INVARIANTS_A))]),
        ("bound", ["bound", "--input", dataset, "--output", bound_out]),
    ]
    start = _rng("cli-cold", seed).randrange(len(commands))
    return commands[start:] + commands[:start]

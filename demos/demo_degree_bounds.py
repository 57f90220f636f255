"""Per-curve degree bounds on the bundled dataset, and the crossover.

Every certified bound must sit below the known modular degree; the
linear bounds win at small conductor, and the N^(7/6) bound needs
N >= e^86.7 or so before it reaches N itself.
"""

import json
import math
from importlib import resources

from moddeg import crossover_check, theorem2_closed_form
from moddeg.report import build_report, parse_record

records = [
    parse_record(json.loads(line))
    for line in resources.files("moddeg").joinpath("data/curves.jsonl").read_text().splitlines()
    if line.strip()
]

print(f"{'label':>24} {'N':>13} {'deg':>5} {'formula':>10} {'thm2 closed':>12} {'7N/1600':>9} {'ok':>3}")
print("-" * 84)
for record in records:
    line, _ = build_report(record)
    report = json.loads(line)
    deg = report["known_degree"]
    print(
        f"{report['label']:>24} {report['conductor']:>13} {deg if deg else '-':>5}"
        f" {report['formula_bound']:>10.3g} {report['theorem2']['closed_form']:>12.3g}"
        f" {report['linear']['abramovich']:>9.3g}"
        f" {'yes' if report['consistency_ok'] else '-':>3}"
    )

print()
log_n_star = crossover_check()
print(f"the general closed form reaches N itself at log N ~ {log_n_star:.3f}")
for log_n in (80.0, log_n_star, 90.0):
    n = math.exp(log_n)
    ratio = theorem2_closed_form(n) / n
    print(f"   log N = {log_n:6.2f}: closed_form / N = {ratio:.4f}")

"""Per-curve degree bounds on the bundled dataset, one record's bounds
step by step, and the crossover.

Every certified bound must sit below the known modular degree; the
linear bounds win at small conductor, and the N^(7/6) bound needs
N >= e^86.7 or so before it reaches N itself.  The step-by-step record
calls the public functions that ``build_report``'s numbers agree with.
"""

import json
import math
from importlib import resources

from moddeg import (
    CurveModel,
    crossover_check,
    degree_formula_bound,
    derive_invariants,
    fudge_factor_for,
    linear_bounds,
    period_data,
    theorem1,
    theorem2,
    theorem2_closed_form,
    two_torsion_roots,
)
from moddeg.curves import squared_primes
from moddeg.lvalue import L_VALUE_BOUND_NUMERATOR
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
record = next(r for r in records if r.label == "synthetic-25000")
n, n2 = record.conductor, record.conductor**2
inv = derive_invariants(CurveModel(*record.a))
omega = period_data(inv, two_torsion_roots(inv)).omega
fudge = [fudge_factor_for(inv, p, n) for p in squared_primes(n)]
th1, th2, lin = theorem1(n, omega), theorem2(n, n2, omega, fudge), linear_bounds(n)
formula = degree_formula_bound(n, omega, L_VALUE_BOUND_NUMERATOR / math.log(n2), [f["u_inverse_at_1"] for f in fudge])
print(f"{record.label} step by step: N = {n}, n2 = N^2, omega = {omega:.6g}")
print("   fudge factors  " + ", ".join(f"U_{f['p']}(1)^-1 >= {f['u_inverse_at_1']:.3g}" for f in fudge))
print(f"   formula bound  {formula:.3g}")
print(f"   theorem 1      analytic {th1['analytic']:.3g}, closed form {th1['closed_form']:.3g} (N is not squarefree)")
print(
    f"   theorem 2      analytic {th2['analytic']:.3g} >= intermediate {th2['intermediate']:.3g}"
    f" >= closed form {th2['closed_form']:.3g}: {th2['chain_ok']}"
)
print(f"   linear         7N/1600 = {lin['abramovich']:.3g}, N/192 = {lin['abramovich_selberg']:.3g}")

print()
log_n_star = crossover_check()
print(f"the general closed form reaches N itself at log N ~ {log_n_star:.3f}")
for log_n in (80.0, log_n_star, 90.0):
    n = math.exp(log_n)
    ratio = theorem2_closed_form(n) / n
    print(f"   log N = {log_n:6.2f}: closed_form / N = {ratio:.4f}")

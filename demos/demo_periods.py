"""Fundamental-parallelogram areas and the certified area bound.

Walks a handful of classical curves through invariants, 2-torsion roots,
AGM periods, and the Lemma 1 check 1/Omega >= D^(1/6)/14.045, then shows
the two extremal constants and where each case attains them.
"""

import math

from moddeg.agm import agm, lemma1_check, lemma1_constants, period_data
from moddeg.curves import CurveModel, derive_invariants, two_torsion_roots

CURVES = [
    ("11a1", (0, -1, 1, -10, -20)),
    ("37a1", (0, 0, 1, -1, 0)),
    ("389a1", (0, 1, 1, -2, 0)),
    ("y^2 = x^3 - x + 1", (0, 0, 0, -1, 1)),
]

print("periods and areas")
print("-" * 72)
for name, a in CURVES:
    inv = derive_invariants(CurveModel(*a))
    roots = two_torsion_roots(inv)
    data = period_data(inv, roots)
    check = lemma1_check(inv, data)
    print(f"{name:>20}: disc = {inv.disc:>8}, case {data.case_tag}")
    print(f"{'':>22}real period {data.real_period:.10f}, imag part {data.imag_part:.10f}")
    print(
        f"{'':>22}1/Omega = {check.value:.8f} >= D^(1/6)/14.045 = {check.bound:.8f}"
        f"  (margin {check.value - check.bound:.2e})"
    )

constants = lemma1_constants()
k1, k2 = (w.value for w in constants)
print()
print(f"extremal constants: k1 = {k1:.7f} (three real roots, at t = 1/2)")
print(f"                    k2 = {k2:.7f} (one real root, at c = +-sqrt(4/3))")
print(f"certified denominator 14.045 covers both: {all(w.passed for w in constants)}")

# the local constant along the shape parameter t of the positive case
ts = [0.05 + 0.1 * i for i in range(10)]
print()
print("local constant pi^2 * (4t(1-t))^(1/3) / (agm(1,sqrt(t)) agm(1,sqrt(1-t))):")
for t in ts:
    k_local = math.pi**2 * (4 * t * (1 - t)) ** (1 / 3) / (
        agm(1, math.sqrt(t)) * agm(1, math.sqrt(1 - t))
    )
    bar = "#" * int((k_local - 9.0) * 8)
    print(f"  t = {t:4.2f}: {k_local:9.5f} {bar}")
print("(worst at t = 1/2, where it equals k1)")

"""Certify every explicit constant behind the degree bounds.

Runs the three zero-free-region contradiction chains, the L-value chain,
and the shared machinery (the Q(zeta3) cosine polynomial's exact weights,
the quintic weight optimum), printing each waypoint against its certified
bound.  This is the library view of what `moddeg verify-lemmas` prints.
"""

from fractions import Fraction

from moddeg import (
    certify_cm_qi,
    certify_cm_zeta3,
    certify_noncm,
    lemma4_certify,
    quintic_beta_optimum,
    trig_poly_expand,
)

N2 = 142  # the smallest certified symmetric-square conductor


def show(case_name, waypoints):
    print(case_name)
    for wp in waypoints:
        bound = f"[{wp.bound[0]:g}, {wp.bound[1]:g}]" if isinstance(wp.bound, tuple) else f"{wp.bound:g}"
        print(f"   {'ok ' if wp.passed else 'BAD'} {wp.name:<32} {wp.value:+.9g}  {wp.op} {bound}")
    print()


# each waypoint is named "<case>.<step>", as verify-lemmas prints it
for waypoints in (certify_noncm(N2), certify_cm_qi(N2), certify_cm_zeta3(N2)):
    show(f"zero-free region, case {waypoints[0].name.split('.')[0]} (n2 = {N2}):", waypoints)

l4 = lemma4_certify(N2)
show(f"L-value lower bound 0.033/log(n2) (n2 = {N2}):", l4)
slack = next(wp.value for wp in l4 if wp.name == "lvalue.chain_slack")
print(f"   reconstructed chain value exceeds 0.033/log(n2) by {slack:.3e}")
print()

# the cosine polynomial machinery of the Q(zeta3) case
coeffs = trig_poly_expand(Fraction(5, 2))
print(f"(1+cos t)(1+(5/2)cos t)^2 = {coeffs[0]} + {coeffs[1]} cos t + {coeffs[2]} cos 2t + {coeffs[3]} cos 3t")
print(f"   optimal weight beta* = {quintic_beta_optimum():.9f} (5/2 loses little)")

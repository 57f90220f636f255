"""Shared test helpers: independent oracles and sample data."""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import quad

from moddeg import CurveModel, Invariants, derive_invariants, two_torsion_roots


def real_period_by_integration(inv: Invariants) -> tuple[float, float]:
    """Independent oracle: 2 * integral over [x0, inf) of dx/sqrt(p(x)),
    p the 2-torsion polynomial and x0 its largest real root.

    The substitution x = x0 + u^2 removes the endpoint singularity; the
    integrand becomes 2/sqrt(q(u)) with q(u) = p(x0 + u^2)/(4 u^2) smooth
    and positive.  Returns (value, quadrature error estimate).
    """
    roots = two_torsion_roots(inv)
    x0 = roots.e1 if inv.disc_positive else roots.r
    p_prime_quarter = ((12.0 * x0 + 2.0 * inv.b2) * x0 + 2.0 * inv.b4) / 4.0

    def q(u: float) -> float:
        if u == 0.0:
            return p_prime_quarter
        x = x0 + u * u
        val = ((4.0 * x + inv.b2) * x + 2.0 * inv.b4) * x + inv.b6
        return val / (4.0 * u * u)

    value, err = quad(lambda u: 2.0 / math.sqrt(q(u)), 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return value, err


def inv_omega_oracle(inv: Invariants) -> float:
    """Independent oracle: 1/Omega from mpmath, Omega being the real period
    times the imaginary part of the lattice.

    The roots come from mpmath.polyroots on the exact coefficients of
    4x^3 + b2 x^2 + 2 b4 x + b6, the periods from the classical AGM
    expressions (Cremona, Algorithms for Modular Elliptic Curves, 3.7).
    A model near a singular one loses about log10|c4^3/disc| digits in the
    roots and in 2 beta - alpha, so the working precision is 50 digits
    plus the number of decimal digits of |c4^3/disc|.
    """
    dps = 50 + len(str(abs(inv.c4**3) // inv.abs_disc))
    with mpmath.workdps(dps):
        b2, b4, b6 = (mpmath.mpf(v) for v in (inv.b2, inv.b4, inv.b6))
        roots = mpmath.polyroots([4, b2, 2 * b4, b6], maxsteps=500, extraprec=2 * dps)
        pi = mpmath.pi
        if inv.disc_positive:
            e1, e2, e3 = sorted((mpmath.re(z) for z in roots), reverse=True)
            real = pi / mpmath.agm(mpmath.sqrt(e1 - e3), mpmath.sqrt(e1 - e2))
            imag = pi / mpmath.agm(mpmath.sqrt(e1 - e3), mpmath.sqrt(e2 - e3))
        else:
            r = mpmath.re(min(roots, key=lambda z: abs(mpmath.im(z))))
            alpha = 3 * r + b2 / 4
            beta = mpmath.sqrt(3 * r * r + b2 * r / 2 + b4 / 2)
            real = 2 * pi / mpmath.agm(2 * mpmath.sqrt(beta), mpmath.sqrt(2 * beta + alpha))
            imag = pi / mpmath.agm(2 * mpmath.sqrt(beta), mpmath.sqrt(2 * beta - alpha))
        return float(1 / (real * imag))


def random_curves(count: int, seed: int = 0, span: int = 50) -> list[CurveModel]:
    """Deterministic stream of nondegenerate integer models."""
    rng = np.random.RandomState(seed)
    curves: list[CurveModel] = []
    while len(curves) < count:
        a = [int(v) for v in rng.randint(-span, span + 1, size=5)]
        model = CurveModel(*a)
        try:
            derive_invariants(model)
        except ValueError:
            continue
        curves.append(model)
    return curves


# The eight fixed curves of the Euler-product benchmark, with conductors,
# 210e2, whose rational torsion Z/2 x Z/8 gives points of small order mod
# p, and three seeded models without a conductor whose a1 and a3 are both
# nonzero.
EULER_CURVES = {
    "11a1": CurveModel(0, -1, 1, -10, -20, conductor=11),
    "37a1": CurveModel(0, 0, 1, -1, 0, conductor=37),
    "389a1": CurveModel(0, 1, 1, -2, 0, conductor=389),
    "14a1": CurveModel(1, 0, 1, 4, -6, conductor=14),
    "27a1": CurveModel(0, 0, 1, 0, -7, conductor=27),
    "32a1": CurveModel(0, 0, 0, 4, 0, conductor=32),
    "36a1": CurveModel(0, 0, 0, 0, 1, conductor=36),
    "49a1": CurveModel(1, -1, 0, -2, -1, conductor=49),
    "210e2": CurveModel(1, 0, 0, -1070, 7812, conductor=210),
    **{
        f"seeded{i}": model
        for i, model in enumerate([c for c in random_curves(12, seed=20, span=20) if c.a1 and c.a3][:3])
    },
}


def good_primes(curve: CurveModel, cutoff: int) -> list[int]:
    """The primes p <= cutoff, by trial division, not dividing |disc| * N."""
    bad = derive_invariants(curve).abs_disc * (curve.conductor or 1)
    primes = [p for p in range(2, cutoff + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    return [p for p in primes if bad % p]


def ap_by_euler_criterion(curve: CurveModel, p: int) -> int:
    """Independent oracle: a_p = p + 1 - #E(F_p), enumerating F_2 x F_2
    at p = 2 and summing the Legendre symbol of 4x^3 + b2 x^2 + 2 b4 x + b6,
    by Euler's criterion, over x in F_p at odd p."""
    a1, a2, a3, a4, a6 = curve.a_invariants
    if p == 2:
        affine = sum(
            (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
            for x in range(2)
            for y in range(2)
        )
        return 2 - affine
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    total = 0
    for x in range(p):
        v = (4 * x**3 + b2 * x * x + 2 * b4 * x + b6) % p
        if v:
            total += 1 if pow(v, (p - 1) // 2, p) == 1 else -1
    return -total

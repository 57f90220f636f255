"""Shared test helpers: independent oracles and sample data."""

from __future__ import annotations

import json
import math
from importlib import resources

import mpmath
import numpy as np
import pytest
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


def load_bundled_records() -> list[dict]:
    text = resources.files("moddeg").joinpath("data/curves.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


@pytest.fixture(scope="session")
def bundled_records() -> list[dict]:
    return load_bundled_records()

"""The Fourier weights of (1 + cos t)(1 + beta cos t)^2, the cosine
polynomial of the Q(zeta_3) zero-free region: one integer kernel gives
both ``trig_poly_expand``'s fractions and the weights that
``certify_cm_zeta3`` checks.

This module imports only the standard library, pytest and moddeg, and
no conftest, so it runs with none of the test extras installed.
"""

import random
from fractions import Fraction

import pytest

from moddeg import zerofree
from moddeg.zerofree import MIN_CERTIFIED_N2, _trig_poly_numerators, certify_cm_zeta3, trig_poly_expand


def _expansion(b: Fraction) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The coefficients of (1 + cos t)(1 + b cos t)^2, written out in fractions."""
    b2 = b * b
    return (1 + (b2 + 2 * b) / 2, 1 + 2 * b + 3 * b2 / 4, (b2 + 2 * b) / 2, b2 / 4)


def test_expand_is_the_kernel_over_its_common_denominator():
    rng = random.Random(45)
    for _ in range(2000):
        n = rng.randrange(10 ** rng.randint(1, 30))
        d = rng.randrange(1, 10 ** rng.randint(1, 30))
        numerators, denominator = _trig_poly_numerators(n, d)
        assert denominator == 4 * d * d
        kernel = tuple(Fraction(c, denominator) for c in numerators)
        assert trig_poly_expand(Fraction(n, d)) == kernel == _expansion(Fraction(n, d)), (n, d)


def _exactness_waypoint():
    (row,) = (w for w in certify_cm_zeta3(MIN_CERTIFIED_N2) if w.name == "cm_zeta3.trig_poly_exact")
    return row.value, row.passed


def test_the_weights_at_five_halves_pass():
    assert _trig_poly_numerators(5, 2) == ((106, 171, 90, 25), 16)
    assert _exactness_waypoint() == (1.0, True)


@pytest.mark.parametrize("step", [-1, 1])
@pytest.mark.parametrize("index", range(4))
def test_a_changed_weight_fails_the_exactness_waypoint(index, step, monkeypatch):
    weights = list(zerofree._ZETA3_WEIGHTS)
    weights[index] += step
    monkeypatch.setattr(zerofree, "_ZETA3_WEIGHTS", tuple(weights))
    assert _exactness_waypoint() == (0.0, False)

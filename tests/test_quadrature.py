import math

import numpy as np
import pytest

from qbrownian.coefficients import PhysicalParams, big_gamma, gamma_coeff
from qbrownian.quadrature import IntegrationError, integrate_fixed

FIG1 = PhysicalParams(g=0.1, r=0.05, kt_over_wc=1.0 / (2.0 * math.pi * 3.0e-5))


def test_fixed_gamma_integral_matches_closed_form():
    val = integrate_fixed(lambda s: gamma_coeff(FIG1, s), 0.0, 1.0, 100_000)
    assert abs(val - big_gamma(FIG1, 1.0) / 2.0) < 1e-10


def test_fixed_constant_any_panels():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, span, c = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 4.0), rng.uniform(-5.0, 5.0)
        b = a + span
        for panels in (1, 2, 7, 100):
            got = integrate_fixed(lambda x: float(c), float(a), float(b), panels)
            assert got == pytest.approx(c * span, rel=1e-14, abs=1e-14)


def test_fixed_exact_for_quadratic():
    assert integrate_fixed(lambda x: x * x, 0.0, 1.0, 2) == 1.0 / 3.0


def test_fixed_rounds_odd_panels_up():
    f = lambda x: x * x * x - x
    assert integrate_fixed(f, 0.0, 2.0, 3) == integrate_fixed(f, 0.0, 2.0, 4)


def test_nonfinite_integrand_reports_abscissa():
    def bad(x):
        return float("nan") if x == 0.5 else 1.0

    with pytest.raises(IntegrationError, match="0.5"):
        integrate_fixed(bad, 0.0, 1.0, 10)


def test_precondition_errors():
    with pytest.raises(ValueError):
        integrate_fixed(math.sin, 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        integrate_fixed(math.sin, 0.0, 1.0, 0)


def test_empty_interval():
    assert integrate_fixed(math.sin, 1.0, 1.0, 4) == 0.0

import math

import numpy as np
import pytest

from qbrownian.coefficients import PhysicalParams, big_gamma, gamma_coeff
from qbrownian.quadrature import IntegrationError, integrate_fixed, integrate_panels

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


def test_panels_exact_for_degree_19_with_error_estimate():
    a = np.array([0.0, -1.0, 2.0])
    b = np.array([1.0, 0.5, 2.0])
    value, error, magnitude = integrate_panels(lambda x: x**19 + x**4, a, b)
    want = (b**20 - a**20) / 20.0 + (b**5 - a**5) / 5.0
    np.testing.assert_allclose(value, want, rtol=1e-14, atol=1e-16)
    # the 5-point rule is exact only to degree 9, so x^19 shows in the estimate
    assert error[0] > 1e-6 and error[2] == 0.0
    assert np.all(magnitude >= np.abs(value))
    value, error, _ = integrate_panels(np.sin, [0.0], [math.pi])
    assert value[0] == pytest.approx(2.0, rel=1e-14)
    assert error[0] < 1e-6
    _, error, _ = integrate_panels(lambda x: np.where(x > 0.5, np.inf, x), [0.0], [1.0])
    assert np.isnan(error[0])

import math

import numpy as np
import pytest

from qbrownian.coefficients import PhysicalParams, big_gamma, delta_coeff, gamma_coeff
from qbrownian.quadrature import (
    ABS_FLOOR,
    IntegrationError,
    QuadratureResult,
    integrate_adaptive,
    integrate_fixed,
    integrate_panels,
)

FIG1 = PhysicalParams(g=0.1, r=0.05, kt_over_wc=1.0 / (2.0 * math.pi * 3.0e-5))


def test_constant_is_exact():
    res = integrate_adaptive(lambda x: 1.0, 0.0, 2.0)
    assert res.value == 2.0
    assert res.converged


def test_sin_over_half_period():
    res = integrate_adaptive(math.sin, 0.0, math.pi, tol=1e-12)
    assert abs(res.value - 2.0) < 1e-12
    assert res.converged
    # converged promises the error estimate met the relative tolerance
    assert res.error_estimate <= max(1e-12 * abs(res.value), ABS_FLOOR)


def test_zero_integral_hits_absolute_floor():
    # Cancellation drives the value to ~0; relative tolerance alone would
    # never be satisfiable there.
    res = integrate_adaptive(math.sin, 0.0, 2.0 * math.pi, tol=1e-10)
    assert abs(res.value) < 1e-12
    assert res.converged


def test_linearity():
    rng = np.random.default_rng(42)
    alpha, beta = rng.uniform(-2.0, 2.0, size=2)
    f = math.sin
    g = math.exp
    combo = integrate_adaptive(lambda x: alpha * f(x) + beta * g(x), 0.0, 1.5, tol=1e-11)
    fa = integrate_adaptive(f, 0.0, 1.5, tol=1e-11)
    ga = integrate_adaptive(g, 0.0, 1.5, tol=1e-11)
    assert abs(combo.value - (alpha * fa.value + beta * ga.value)) < 1e-9


def test_interval_additivity():
    rng = np.random.default_rng(3)
    for c in rng.uniform(0.1, math.pi - 0.1, size=5):
        left = integrate_adaptive(math.sin, 0.0, float(c), tol=1e-11)
        right = integrate_adaptive(math.sin, float(c), math.pi, tol=1e-11)
        whole = integrate_adaptive(math.sin, 0.0, math.pi, tol=1e-11)
        assert abs(left.value + right.value - whole.value) < 2e-10


def test_adaptive_and_fixed_agree_on_smooth_integrand():
    adaptive = integrate_adaptive(math.exp, 0.0, 1.0, tol=1e-11)
    fixed = integrate_fixed(math.exp, 0.0, 1.0, 10_000)
    assert abs(adaptive.value - fixed) < 1e-9


def test_damped_diffusion_integrand_matches_fixed_oracle():
    # the integrand whose antiderivative feeds the added-noise coefficient
    def f(s):
        return math.exp(big_gamma(FIG1, s)) * delta_coeff(FIG1, s)

    adaptive = integrate_adaptive(f, 0.0, 0.45, tol=1e-10)
    oracle = integrate_fixed(f, 0.0, 0.45, 100_000)
    assert adaptive.converged
    assert abs(adaptive.value - oracle) < 1e-8


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
        integrate_adaptive(bad, 0.0, 1.0)
    with pytest.raises(IntegrationError, match="0.5"):
        integrate_fixed(bad, 0.0, 1.0, 10)


def test_nonfinite_found_during_refinement():
    # 0.25 is only sampled once the interval splits
    def bad(x):
        return float("inf") if x == 0.25 else math.cos(40.0 * x)

    with pytest.raises(IntegrationError, match="0.25"):
        integrate_adaptive(bad, 0.0, 1.0)


def test_depth_cap_reports_not_converged():
    res = integrate_adaptive(math.sin, 0.0, math.pi, tol=1e-14, max_subdiv=2)
    assert not res.converged


def test_evaluation_cap_reports_not_converged():
    # far more structure than 1e6 samples can resolve at this tolerance
    res = integrate_adaptive(lambda x: math.sin(1e7 * x), 0.0, 1.0, tol=1e-12)
    assert not res.converged
    # in-flight splits may finish, so the cap can overshoot by O(depth)
    assert res.evaluations <= 1_000_200


def test_precondition_errors():
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 0.0, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        integrate_fixed(math.sin, 1.0, 0.0, 10)
    with pytest.raises(ValueError):
        integrate_fixed(math.sin, 0.0, 1.0, 0)


def test_empty_interval():
    res = integrate_adaptive(math.sin, 1.0, 1.0)
    assert res == QuadratureResult(0.0, 0.0, 0, True)
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

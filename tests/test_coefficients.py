import math
import pickle

import mpmath
import numpy as np
import pytest

from qbrownian.coefficients import (
    PhysicalParams,
    _delta_gamma,
    _negative_runs,
    big_gamma,
    classify_lindblad,
    closed_forms,
    coefficient_grid,
    delta_big_gamma,
    delta_coeff,
    gamma_coeff,
)
from qbrownian.quadrature import IntegrationError, integrate_fixed

FIG1 = PhysicalParams(g=0.1, r=0.05, kt_over_wc=1.0 / (2.0 * math.pi * 3.0e-5))

# 40-digit arbitrary-precision references (tanh-sinh quadrature for the
# damped diffusion integral, elementary antiderivatives for the rest)
REF_DELTA_05 = -1.346899854485094193409
REF_GAMMA_05 = 7.608084200703716919971e-4
REF_BIG_GAMMA_05 = 5.076211371207608397699e-4
REF_BIG_GAMMA_10 = 9.766107596793075968182e-4
REF_DG = {
    0.15: 0.5240471067261843099411,
    0.3: 0.160721861296828845001,
    0.45: 0.5281933737413356860968,
    0.5: 0.538057975246695925134,
    1.0: 0.4790476808167107304061,
}


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(g=-0.1, r=0.05, kt_over_wc=100.0)
    with pytest.raises(ValueError):
        PhysicalParams(g=0.1, r=0.0, kt_over_wc=100.0)
    with pytest.raises(ValueError):
        PhysicalParams(g=0.1, r=0.05, kt_over_wc=0.0)
    # g^2 overflows, or Delta's prefactor 2 g^2 kT r^2/(1+r^2) does
    for g, kt in ((1e200, 1.0), (1e153, FIG1.kt_over_wc), (1e150, 1e300)):
        with pytest.raises(ValueError, match="must be finite"):
            PhysicalParams(g=g, r=0.05, kt_over_wc=kt)
    assert FIG1.omega0 == 1.0 / 0.05


def test_all_coefficients_vanish_at_zero():
    assert delta_coeff(FIG1, 0.0) == 0.0
    assert gamma_coeff(FIG1, 0.0) == 0.0
    assert big_gamma(FIG1, 0.0) == 0.0
    assert delta_big_gamma(FIG1, 0.0) == 0.0


def test_negative_tau_rejected():
    for f in (delta_coeff, gamma_coeff, big_gamma, delta_big_gamma):
        with pytest.raises(ValueError):
            f(FIG1, -0.1)


def test_uncoupled_limit_is_identically_zero():
    p0 = PhysicalParams(g=0.0, r=0.05, kt_over_wc=FIG1.kt_over_wc)
    for tau in (0.0, 0.3, 2.0):
        assert delta_coeff(p0, tau) == 0.0
        assert gamma_coeff(p0, tau) == 0.0
        assert big_gamma(p0, tau) == 0.0
    assert classify_lindblad(p0, tau_max=1.0).is_lindblad_type


def test_frozen_values():
    assert delta_coeff(FIG1, 0.5) == pytest.approx(REF_DELTA_05, rel=1e-13)
    assert gamma_coeff(FIG1, 0.5) == pytest.approx(REF_GAMMA_05, rel=1e-13)
    assert big_gamma(FIG1, 0.5) == pytest.approx(REF_BIG_GAMMA_05, rel=1e-13)
    assert big_gamma(FIG1, 1.0) == pytest.approx(REF_BIG_GAMMA_10, rel=1e-13)
    for tau, ref in REF_DG.items():
        assert delta_big_gamma(FIG1, tau) == pytest.approx(ref, rel=2e-10)


def test_initial_diffusion_slope():
    # Delta'(0) = 2 g^2 kT/omega_c, the high-temperature heating rate
    h = 1e-6
    slope = (delta_coeff(FIG1, 2.0 * h) - delta_coeff(FIG1, h)) / h
    assert slope == pytest.approx(2.0 * 0.1**2 * FIG1.kt_over_wc, rel=1e-4)


def test_first_diffusion_dip():
    # the transient drives Delta through a deep negative excursion
    taus = np.linspace(0.0, 0.5, 20001)
    vals = np.array([delta_coeff(FIG1, t) for t in taus])
    i = int(np.argmin(vals))
    assert -4.0 < vals[i] < -3.8
    assert 0.225 < taus[i] < 0.245


def test_asymptotic_plateaus():
    b = 2.0 * 0.1**2 * FIG1.kt_over_wc * 0.05**2 / (1.0 + 0.05**2)
    a = 0.1**2 * 0.05 / (1.0 + 0.05**2)
    for tau in np.linspace(31.0, 40.0, 50):
        assert abs(delta_coeff(FIG1, float(tau)) / b - 1.0) < 1e-12
        assert abs(gamma_coeff(FIG1, float(tau)) / a - 1.0) < 1e-12


def test_exact_parameter_scaling():
    # kT enters Delta linearly and gamma not at all; g enters both as g^2.
    # Power-of-two factors make the identities exact in floating point.
    hot = PhysicalParams(g=0.1, r=0.05, kt_over_wc=2.0 * FIG1.kt_over_wc)
    strong = PhysicalParams(g=0.2, r=0.05, kt_over_wc=FIG1.kt_over_wc)
    for tau in (0.1, 0.37, 2.0):
        assert delta_coeff(hot, tau) == 2.0 * delta_coeff(FIG1, tau)
        assert gamma_coeff(hot, tau) == gamma_coeff(FIG1, tau)
        assert delta_coeff(strong, tau) == 4.0 * delta_coeff(FIG1, tau)
        assert gamma_coeff(strong, tau) == 4.0 * gamma_coeff(FIG1, tau)
        assert big_gamma(strong, tau) == 4.0 * big_gamma(FIG1, tau)


def test_big_gamma_derivative_is_twice_gamma():
    rng = np.random.default_rng(5)
    h = 1e-4
    for tau in rng.uniform(h, 5.0, size=100):
        tau = float(tau)
        # Richardson-extrapolated central difference
        d1 = (big_gamma(FIG1, tau + h) - big_gamma(FIG1, tau - h)) / (2.0 * h)
        d2 = (big_gamma(FIG1, tau + 0.5 * h) - big_gamma(FIG1, tau - 0.5 * h)) / h
        deriv = (4.0 * d2 - d1) / 3.0
        want = 2.0 * gamma_coeff(FIG1, tau)
        assert deriv == pytest.approx(want, rel=1e-6, abs=1e-12)


def test_big_gamma_matches_quadrature():
    for tau in (0.2, 0.5, 1.0, 3.0):
        want = integrate_fixed(lambda s: 2.0 * gamma_coeff(FIG1, s), 0.0, tau, 20_000)
        assert big_gamma(FIG1, tau) == pytest.approx(want, rel=1e-10)


def test_damped_diffusion_derivative_identity():
    # d(Delta_Gamma)/dtau = Delta - 2 gamma Delta_Gamma
    rng = np.random.default_rng(17)
    h = 1e-4
    for tau in rng.uniform(0.05, 2.0, size=12):
        tau = float(tau)
        d1 = (delta_big_gamma(FIG1, tau + h) - delta_big_gamma(FIG1, tau - h)) / (2.0 * h)
        d2 = (delta_big_gamma(FIG1, tau + 0.5 * h) - delta_big_gamma(FIG1, tau - 0.5 * h)) / h
        deriv = (4.0 * d2 - d1) / 3.0
        want = delta_coeff(FIG1, tau) - 2.0 * gamma_coeff(FIG1, tau) * delta_big_gamma(FIG1, tau)
        assert deriv == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_grid_matches_pointwise_evaluation():
    taus = np.linspace(0.0, 1.0, 51)
    grid = coefficient_grid(FIG1, taus)
    assert len(grid) == 51
    for k in range(0, 51, 10):
        tau = grid.tau[k]
        assert grid.delta[k] == delta_coeff(FIG1, tau)
        assert grid.gamma[k] == gamma_coeff(FIG1, tau)
        assert grid.big_gamma[k] == big_gamma(FIG1, tau)
        assert grid.delta_gamma[k] == pytest.approx(delta_big_gamma(FIG1, tau), abs=1e-9)


def test_grid_validation():
    with pytest.raises(ValueError):
        coefficient_grid(FIG1, [0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        coefficient_grid(FIG1, [-0.1, 0.5])
    assert len(coefficient_grid(FIG1, [])) == 0
    only = coefficient_grid(FIG1, [0.25])
    assert len(only) == 1 and only.tau[0] == 0.25


def test_scalar_functions_equal_array_kernel_bit_for_bit():
    # One time runs the formulas on Python floats, arrays on NumPy; at
    # r = 1e-6 the phase tau/r is reduced in extended precision.
    rng = np.random.default_rng(11)
    # (r, g) grid at FIG1's temperature (FIG1 among them), and a stronger
    # coupling, |c| = 0.13, for a longer Delta_Gamma series
    params = [
        PhysicalParams(g=g, r=r, kt_over_wc=FIG1.kt_over_wc)
        for r in (1e-6, 1e-3, 0.05, 1.0, 30.0)
        for g in (0.0, 0.1)
    ] + [PhysicalParams(g=0.3, r=1.7, kt_over_wc=20.0)]
    for p in params:
        taus = np.unique(np.concatenate((
            [0.0],
            rng.uniform(0.0, 60.0, size=4000),
            10.0 ** rng.uniform(-12.0, -3.0, size=3000),
            10.0 ** rng.uniform(-3.0, 3.0, size=3000),
            [1e3],
        )))
        assert taus.size > 10_000
        delta, gamma, big = closed_forms(p, taus)
        delta_gamma = coefficient_grid(p, taus).delta_gamma
        for k, tau in enumerate(taus.tolist()):
            values = delta_coeff(p, tau), gamma_coeff(p, tau), big_gamma(p, tau)
            assert all(type(v) is float for v in values)
            assert values == (delta[k], gamma[k], big[k])
        for k in range(0, taus.size, 7):
            assert delta_big_gamma(p, float(taus[k])) == delta_gamma[k]


def test_grid_delta_gamma_matches_single_shot():
    for p in (FIG1, PhysicalParams(g=0.1, r=1.0, kt_over_wc=FIG1.kt_over_wc)):
        for tau_max, n in ((1.0, 2000), (50.0, 1001), (300.0, 7)):
            grid = coefficient_grid(p, np.linspace(0.0, tau_max, n))
            for k in range(1, n, max(1, n // 40)):
                assert grid.delta_gamma[k] == delta_big_gamma(p, float(grid.tau[k]))


def _mp_delta_gamma(r, taus, g=0.1):
    """Delta_Gamma at increasing taus for coupling g and the FIG1 temperature,
    by 30-digit mpmath.quad of the unshifted integral exp(Gamma) * Delta.

    Gauss-Legendre on pieces of four oscillation periods up to tau = 45 (the
    transient), one piece after it; Delta and Gamma are written out here in
    mpmath, independently of the package's kernel.
    """
    mp = mpmath.mp.clone()
    mp.dps = 30
    g, kt, r = mp.mpf(g), mp.mpf(FIG1.kt_over_wc), mp.mpf(r)
    w = 1 / r
    a_delta = 2 * g**2 * kt * r**2 / (1 + r**2)
    a_gamma = g**2 * r / (1 + r**2)

    def big(s):
        e, c, sn = mp.exp(-s), mp.cos(w * s), mp.sin(w * s)
        int_cos = (1 - e * (c - w * sn)) / (1 + w**2)
        int_sin = (w - e * (sn + w * c)) / (1 + w**2)
        return 2 * a_gamma * (s - int_cos - r * int_sin)

    def f(s):
        delta = a_delta * (1 - mp.exp(-s) * (mp.cos(w * s) - w * mp.sin(w * s)))
        return mp.exp(big(s)) * delta

    piece = 4 * 2 * mp.pi * r
    out, total, prev = [], mp.mpf(0), mp.mpf(0)
    for tau in taus:
        t = mp.mpf(tau)
        osc_end = min(t, mp.mpf(45))
        pts = [prev]
        if osc_end > prev:
            n = int(mp.ceil((osc_end - prev) / piece))
            pts = [prev + (osc_end - prev) * k / n for k in range(n + 1)]
        if t > pts[-1]:
            pts.append(t)
        total += mp.quad(f, pts, method="gauss-legendre")
        prev = t
        out.append(float(total * mp.exp(-big(t))))
    return out


# _mp_delta_gamma(0.001, (0.01, 0.27, 0.45, 5, 40, 200))[3:], frozen: the
# 6400 oscillation periods of the r = 0.001 transient take half a minute.
MP_DG_R0001 = {
    5.0: 0.0006364720960360527035376602,
    40.0: 0.004348447973582974357994684,
    200.0: 0.02128393204161394232430822,
}


def test_delta_gamma_matches_mpmath():
    taus = (0.01, 0.27, 0.45, 5.0, 40.0, 200.0)
    for r in (0.001, 0.05, 1.0):
        p = PhysicalParams(g=0.1, r=r, kt_over_wc=FIG1.kt_over_wc)
        live = taus[:3] if r == 0.001 else taus
        refs = dict(zip(live, _mp_delta_gamma(r, live)))
        if r == 0.001:
            refs.update(MP_DG_R0001)
        for tau in taus:
            assert abs(delta_big_gamma(p, tau) / refs[tau] - 1.0) <= 1e-12, (r, tau)


@pytest.mark.parametrize("r, g, taus", [
    # 1e-5: up to 160 periods; tiny times where Delta_Gamma is ~1e-13
    (1e-5, 0.1, (1e-7, 1e-4, 1e-3, 0.01)),
    (1.0, 0.1, (1e-8, 1e-6)),
    # |c| = 1.8: the series runs to total degree 25
    (3.0, 1.0, (0.01, 0.3, 2.0, 20.0)),
])
def test_delta_gamma_matches_mpmath_at_extremes(r, g, taus):
    p = PhysicalParams(g=g, r=r, kt_over_wc=FIG1.kt_over_wc)
    for tau, ref in zip(taus, _mp_delta_gamma(r, taus, g)):
        assert abs(delta_big_gamma(p, tau) / ref - 1.0) <= 1e-12, (r, g, tau)


@pytest.mark.parametrize("r", [1e-6, 1e-5])
def test_delta_gamma_coefficients_match_mpmath_at_small_r(r):
    # tau/r reaches 3e6 radians: the phase must be reduced without first
    # rounding tau/r to a double
    p = PhysicalParams(g=0.1, r=r, kt_over_wc=FIG1.kt_over_wc)
    mp = mpmath.mp.clone()
    mp.dps = 30
    g2, kt, rr = mp.mpf(p.g) ** 2, mp.mpf(p.kt_over_wc), mp.mpf(r)
    for tau in (0.162, 0.294, 0.5, 1.0, 3.0):
        t = mp.mpf(tau)
        e, c, sn = mp.exp(-t), mp.cos(t / rr), mp.sin(t / rr)
        delta = 2 * g2 * kt * rr**2 / (1 + rr**2) * (1 - e * (c - sn / rr))
        gamma = g2 * rr / (1 + rr**2) * (1 - e * c - rr * e * sn)
        assert abs(delta_coeff(p, tau) / delta - 1) <= 1e-13, (r, tau)
        assert abs(gamma_coeff(p, tau) / gamma - 1) <= 1e-13, (r, tau)


def test_strong_coupling_above_series_cap_names_c():
    # |c| = 2 g^2 r^2/(1+r^2) = 17.8 at g = 3, r = 10
    with pytest.raises(IntegrationError, match=r"\|c\| = 17\.8"):
        coefficient_grid(PhysicalParams(g=3.0, r=10.0, kt_over_wc=20.0), [0.0, 1.0])
    with pytest.raises(IntegrationError, match=r"\|c\|"):
        delta_big_gamma(PhysicalParams(g=3.0, r=10.0, kt_over_wc=20.0), 1.0)


def test_delta_gamma_series_is_built_once_per_parameter_set():
    # Strong coupling still constructs; the series refuses it on first use,
    # on every call, with the same message.
    strong = PhysicalParams(g=3.0, r=10.0, kt_over_wc=20.0)
    message = (r"Delta_Gamma series needs \|c\| = 2 g\^2 r\^2/\(1\+r\^2\) <= 7.0, got "
               r"\|c\| = 17.82 \(g = 3.0, r = 10.0\)$")
    for _ in range(2):
        with pytest.raises(IntegrationError, match=message):
            coefficient_grid(strong, [0.0, 1.0])
    # The tables are kept with the parameters; a call, a repeated call and a
    # call on an equal fresh parameter set give the same bits.
    taus = np.linspace(0.0, 3.0, 301)
    first = _delta_gamma(FIG1, taus)
    assert FIG1._delta_gamma_series is FIG1._delta_gamma_series
    fresh = PhysicalParams(FIG1.g, FIG1.r, FIG1.kt_over_wc)
    for values in (_delta_gamma(FIG1, taus), _delta_gamma(fresh, taus),
                   coefficient_grid(fresh, taus).delta_gamma):
        assert np.array_equal(values, first)
    # a parameter set that holds its tables still pickles, as its fields
    assert pickle.loads(pickle.dumps(FIG1)) == FIG1


def test_negative_runs_end_at_the_first_double_past_each_change():
    # the first double where x < c fails is c itself, and where x > c holds
    # is the double after c
    c = 0.1 + 0.2  # 0.30000000000000004, not a short decimal
    t = np.array([0.0, 0.5, 1.0])
    assert _negative_runs(lambda x: x < c, t, t < c) == [(0.0, c)]
    assert _negative_runs(lambda x: x > c, t, t > c) == [(math.nextafter(c, 1.0), 1.0)]
    # a run that holds at both ends, around a gap whose ends are refined
    gap = lambda x: (x < c) | (x > 0.75)
    assert _negative_runs(gap, t, gap(t)) == [(0.0, c), (math.nextafter(0.75, 1.0), 1.0)]
    # no change between knots: every knot or none is negative
    assert _negative_runs(gap, t[::2], gap(t[::2])) == [(0.0, 1.0)]
    assert _negative_runs(lambda x: x > 2.0, t, t > 2.0) == []


def test_negative_runs_bisect_many_brackets_exactly():
    # 600 brackets get two parts per pass; each change sits on an integer
    odd = lambda x: np.floor(x) % 2.0 == 1.0
    t = np.arange(601) + 0.5
    runs = _negative_runs(odd, t, odd(t))
    assert runs == [(float(k), float(k + 1)) for k in range(1, 601, 2)]


def test_classification_fig1_is_not_lindblad_type():
    cls = classify_lindblad(FIG1, tau_max=1.0)
    assert not cls.is_lindblad_type
    assert set(cls.negative_intervals) == {"delta_plus_gamma", "delta_minus_gamma"}
    for name in ("delta_plus_gamma", "delta_minus_gamma"):
        assert len(cls.negative_intervals[name]) >= 1
        lo, hi = cls.negative_intervals[name][0]
        assert 0.0 < lo < hi < 1.0


def test_classification_boundaries_match_independent_root_find():
    from scipy.optimize import brentq

    cls = classify_lindblad(FIG1, tau_max=1.0)
    lo, hi = cls.negative_intervals["delta_plus_gamma"][0]
    f = lambda t: delta_coeff(FIG1, t) + gamma_coeff(FIG1, t)
    assert lo == pytest.approx(brentq(f, 0.1, 0.2, xtol=1e-13), abs=1e-8)
    assert hi == pytest.approx(brentq(f, 0.25, 0.35, xtol=1e-13), abs=1e-8)


def test_classification_interval_clipped_at_tau_max():
    # 0.25 sits inside the first negative excursion, so the interval must
    # close at the boundary rather than at a sign change
    cls = classify_lindblad(FIG1, tau_max=0.25)
    for name in ("delta_plus_gamma", "delta_minus_gamma"):
        assert cls.negative_intervals[name][-1][1] == 0.25


def test_classification_high_r_is_lindblad_type():
    p = PhysicalParams(g=0.01, r=10.0, kt_over_wc=5305.16)
    cls = classify_lindblad(p, tau_max=10.0)
    # oracle: direct sign scan at 10x the resolution, on the array kernel that
    # delta_coeff/gamma_coeff equal bit for bit
    # (test_scalar_functions_equal_array_kernel_bit_for_bit)
    delta, gamma, _ = closed_forms(p, np.linspace(0.0, 10.0, 100000))
    scan_ok = bool(np.all(delta - gamma >= 0.0) and np.all(delta + gamma >= 0.0))
    assert scan_ok
    assert cls.is_lindblad_type
    assert cls.negative_intervals == {"delta_plus_gamma": [], "delta_minus_gamma": []}


def test_classification_preconditions():
    with pytest.raises(ValueError):
        classify_lindblad(FIG1, tau_max=0.0)


def test_classification_horizon_and_long_windows():
    short = classify_lindblad(FIG1, tau_max=3.0)
    assert short.horizon["delta_plus_gamma"] == pytest.approx(2.9951, abs=1e-4)
    assert short.horizon["delta_minus_gamma"] == pytest.approx(2.9989, abs=1e-4)
    assert [len(v) for v in short.negative_intervals.values()] == [9, 9]
    # past both horizons the window length changes nothing, down to the last bit
    horizon = max(short.horizon.values())
    for tau_max in (horizon, 10.0, 1e3, 1e6):
        cls = classify_lindblad(FIG1, tau_max=tau_max)
        assert cls.negative_intervals == short.negative_intervals
        assert cls.horizon == short.horizon


@pytest.mark.parametrize("r", [0.05, 0.2])
def test_classification_boundaries_are_exact_roots(r):
    from scipy.optimize import brentq

    p = PhysicalParams(g=0.1, r=r, kt_over_wc=FIG1.kt_over_wc)
    tau_max = 3.0
    cls = classify_lindblad(p, tau_max=tau_max)
    for name, sign in (("delta_plus_gamma", 1.0), ("delta_minus_gamma", -1.0)):
        f = lambda t: delta_coeff(p, t) + sign * gamma_coeff(p, t)
        roots = [b for iv in cls.negative_intervals[name] for b in iv if b < tau_max]
        assert roots
        # each root is alone between the midpoints to its neighbours
        edges = [0.0, *roots, tau_max]
        for k, root in enumerate(roots, start=1):
            lo = 0.5 * (edges[k - 1] + root)
            hi = 0.5 * (root + edges[k + 1])
            assert abs(root - brentq(f, lo, hi, xtol=1e-15)) <= 1e-12


def test_classification_negative_plateau_reaches_tau_max():
    # kT r < 1/2 makes the plateau of Delta - gamma negative
    p = PhysicalParams(g=0.1, r=0.05, kt_over_wc=5.0)
    for tau_max in (10.0, 1e6):
        cls = classify_lindblad(p, tau_max=tau_max)
        assert not cls.is_lindblad_type
        last = cls.negative_intervals["delta_minus_gamma"][-1]
        assert last[0] < cls.horizon["delta_minus_gamma"] < last[1] == tau_max
        assert delta_coeff(p, tau_max) - gamma_coeff(p, tau_max) < 0.0

"""End-to-end acceptance checks.

Each test exercises one advertised guarantee of the package at its stated
tolerance, records a single PASS/FAIL verdict line (echoed in the terminal
summary), and then asserts.  Verdicts are computed before asserting so a
failing check still reports every sub-result it gathered.
"""

import math
import time

import numpy as np
import pytest
from conftest import record_acceptance

from qbrownian.coefficients import (
    PhysicalParams,
    big_gamma,
    classify_lindblad,
    delta_big_gamma,
    delta_coeff,
    gamma_coeff,
)
from qbrownian.fock import integrate_me, make_coherent_fock, make_squeezed_fock
from qbrownian.gaussian import (
    evolve_trajectory,
    make_coherent,
    make_squeezed,
    oscillation_period,
    propagate,
    squeeze_from_sigma2,
)
from qbrownian.quadrature import IntegrationError, integrate_fixed
from qbrownian.wigner import (
    GridSpec,
    grid_moments,
    wigner_by_convolution,
    wigner_coherent_closed,
    wigner_gaussian,
)

PARAMS = PhysicalParams(g=0.1, r=0.05, kt_over_wc=1.0 / (2.0 * math.pi * 3.0e-5))
ALPHA_COHERENT = math.sqrt(3.0)  # <n>(0) = 3
SQUEEZE_S = squeeze_from_sigma2(0.1)  # sigma^2 = 0.1, (Delta x)^2(0) = 0.05
CHECK_TIMES = (0.15, 0.3, 0.45)


def corotating_var_x(tau: float) -> float:
    state = propagate(make_squeezed(0.0, SQUEEZE_S), PARAMS, tau)
    return state.rotated(PARAMS.omega0 * tau).var_x


def test_criterion_1_mean_quanta_oscillation_period():
    t0 = time.monotonic()
    traj = evolve_trajectory(make_coherent(ALPHA_COHERENT), PARAMS, 1.0, 2001)
    period = oscillation_period(list(zip(traj.times, traj.n_mean)))
    elapsed = time.monotonic() - t0

    target = 2.0 * math.pi * 0.05
    checks = {
        "initial <n> = 3": abs(traj.n_mean[0] - 3.0) < 1e-9,
        "period within 2%": period is not None and abs(period / target - 1.0) < 0.02,
        "runtime < 5 s": elapsed < 5.0,
    }
    ok = record_acceptance(
        1,
        all(checks.values()),
        f"<n> period {period!r} vs {target:.5f} +/- 2%, <n>(0) = {float(traj.n_mean[0])!r}, "
        f"{elapsed:.2f} s",
    )
    assert ok, [name for name, good in checks.items() if not good]


def test_criterion_2_squeezed_variance_checkpoints():
    t0 = time.monotonic()
    var0 = make_squeezed(0.0, SQUEEZE_S).var_x
    v = {tau: corotating_var_x(tau) for tau in CHECK_TIMES}
    elapsed = time.monotonic() - t0

    checks = {
        "(Dx)^2(0) = 0.05": abs(var0 - 0.05) <= 1e-15,
        "(Dx)^2(0.15) < 0.5": v[0.15] < 0.5,
        "(Dx)^2(0.3) > 0.5": v[0.3] > 0.5,
        "(Dx)^2(0.45) > 0.5": v[0.45] > 0.5,
        "runtime < 5 s": elapsed < 5.0,
    }
    ok = record_acceptance(
        2,
        all(checks.values()),
        f"(Dx)^2 at (0, 0.15, 0.3, 0.45) = "
        f"({var0:.6f}, {v[0.15]:.6f}, {v[0.3]:.6f}, {v[0.45]:.6f}), "
        f"thresholds (=0.05, <0.5, >0.5, >0.5), {elapsed:.2f} s",
    )
    assert ok, [name for name, good in checks.items() if not good]


def test_criterion_3_non_lindblad_classification():
    cls = classify_lindblad(PARAMS, tau_max=1.0)
    inside = [
        iv
        for ivs in cls.negative_intervals.values()
        for iv in ivs
        if 0.0 < iv[0] < iv[1] < 1.0
    ]
    checks = {
        "not Lindblad-type": not cls.is_lindblad_type,
        "negativity interval in (0, 1)": len(inside) >= 1,
    }
    ok = record_acceptance(
        3,
        all(checks.values()),
        f"is_lindblad_type = {cls.is_lindblad_type}, "
        f"first intervals inside (0,1): {[tuple(round(x, 4) for x in iv) for iv in inside[:2]]}",
    )
    assert ok, [name for name, good in checks.items() if not good]


def test_criterion_4_fock_oracle_matches_gaussian_propagation():
    t0 = time.monotonic()
    configs = [
        ("coherent", lambda dim: make_coherent_fock(ALPHA_COHERENT, dim), 60),
        ("squeezed", lambda dim: make_squeezed_fock(SQUEEZE_S, dim), 80),
    ]
    gauss = {
        "coherent": evolve_trajectory(make_coherent(ALPHA_COHERENT), PARAMS, 1.0, 101),
        "squeezed": evolve_trajectory(make_squeezed(0.0, SQUEEZE_S), PARAMS, 1.0, 101),
    }
    failures: list[str] = []
    for label, make_state, dim in configs:
        try:
            fock = integrate_me(make_state(dim), PARAMS, 1.0, n_record=101)
        except IntegrationError as exc:
            failures.append(f"{label} N={dim} aborted: {exc}")
            continue
        ref = gauss[label]
        vx_ref = ref.variances(frame="corotating")[0]
        n_err = float(np.abs(fock.n_mean - ref.n_mean).max())
        vx_err = float(np.abs(fock.var_x - vx_ref).max())
        if n_err > 1e-3 or vx_err > 1e-3:
            failures.append(f"{label} N={dim}: n err {n_err:.2e}, var_x err {vx_err:.2e}")
            continue
        doubled = integrate_me(make_state(2 * dim), PARAMS, 1.0, n_record=101)
        shift = max(
            float(np.abs(fock.n_mean - doubled.n_mean).max()),
            float(np.abs(fock.var_x - doubled.var_x).max()),
        )
        if shift >= 1e-6:
            failures.append(f"{label} doubling N={dim}->{2*dim} shifted {shift:.2e}")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.0f} s >= 2 min")
    ok = record_acceptance(
        4,
        not failures,
        "; ".join(failures) if failures else f"both Fock runs within 1e-3, {elapsed:.0f} s",
    )
    assert ok, failures


def test_criterion_5_wigner_grid_consistency():
    failures: list[str] = []
    integrals: list[float] = []
    coh0 = make_coherent(ALPHA_COHERENT)
    sq0 = make_squeezed(0.0, SQUEEZE_S)
    inner = GridSpec.cover_state(coh0, n_sigma=8.0, nx=241, ny=241)
    for tau in CHECK_TIMES:
        # closed form vs brute-force propagator convolution (coherent input)
        evolved = propagate(coh0, PARAMS, tau)
        outer = GridSpec.cover_state(evolved, n_sigma=6.0, nx=61, ny=61)
        closed = wigner_coherent_closed(ALPHA_COHERENT, PARAMS, tau, outer)
        conv = wigner_by_convolution(coh0, PARAMS, tau, outer, inner)
        point_err = float(np.abs(closed.values - conv.values).max())
        if point_err > 1e-4:
            failures.append(f"tau={tau}: closed vs convolution {point_err:.2e}")
        integrals += [closed.integral(), conv.integral()]
        # grid-extracted moments vs analytic propagation, both configurations
        for label, state0 in (("coherent", coh0), ("squeezed", sq0)):
            st = propagate(state0, PARAMS, tau)
            grid = wigner_gaussian(st, GridSpec.cover_state(st))
            integrals.append(grid.integral())
            gm = grid_moments(grid)
            moment_err = max(
                float(np.abs(gm.mean - st.mean).max()),
                float(np.abs(gm.cov - st.cov).max()),
            )
            if moment_err > 1e-4:
                failures.append(f"tau={tau} {label}: grid moments off by {moment_err:.2e}")
    mass_err = max(abs(i - 1.0) for i in integrals)
    if mass_err > 1e-6:
        failures.append(f"worst grid integral off unity by {mass_err:.2e}")
    ok = record_acceptance(
        5,
        not failures,
        "; ".join(failures)
        if failures
        else f"{len(integrals)} grids: mass within {mass_err:.1e}, "
        "pointwise and moment checks within 1e-4",
    )
    assert ok, failures


def test_criterion_6_coefficient_calculus_identities():
    rng = np.random.default_rng(2026)
    taus = rng.uniform(0.01, 5.0, size=100)
    h = 1e-4
    worst_g, worst_dg, worst_q = 0.0, 0.0, 0.0
    for tau in taus:
        tau = float(tau)
        d1 = (big_gamma(PARAMS, tau + h) - big_gamma(PARAMS, tau - h)) / (2.0 * h)
        want = 2.0 * gamma_coeff(PARAMS, tau)
        worst_g = max(worst_g, abs(d1 / want - 1.0))

        d2 = (delta_big_gamma(PARAMS, tau + h) - delta_big_gamma(PARAMS, tau - h)) / (2.0 * h)
        want2 = delta_coeff(PARAMS, tau) - 2.0 * gamma_coeff(PARAMS, tau) * delta_big_gamma(
            PARAMS, tau
        )
        worst_dg = max(worst_dg, abs(d2 / want2 - 1.0))
    for tau in (0.2, 0.5, 1.0, 2.5, 5.0):
        want = integrate_fixed(lambda s: 2.0 * gamma_coeff(PARAMS, s), 0.0, tau, 20_000)
        worst_q = max(worst_q, abs(big_gamma(PARAMS, tau) / want - 1.0))
    checks = {
        "dGamma/dtau = 2 gamma (1e-5 rel)": worst_g < 1e-5,
        "dDelta_Gamma/dtau identity (1e-5 rel)": worst_dg < 1e-5,
        "closed-form Gamma vs quadrature (1e-10 rel)": worst_q < 1e-10,
    }
    ok = record_acceptance(
        6,
        all(checks.values()),
        f"worst rel errors: dGamma {worst_g:.1e}, dDelta_Gamma {worst_dg:.1e}, "
        f"Gamma vs quadrature {worst_q:.1e}",
    )
    assert ok, [name for name, good in checks.items() if not good]


def test_criterion_7_physicality():
    min_det = math.inf
    for state0 in (make_coherent(ALPHA_COHERENT), make_squeezed(0.0, SQUEEZE_S)):
        traj = evolve_trajectory(state0, PARAMS, 1.0, 2001)
        min_det = min(min_det, min(traj.state(k).det_cov() for k in range(len(traj.times))))
        grid_min = math.inf
        for tau in (0.0,) + CHECK_TIMES:
            st = traj.state(0) if tau == 0.0 else propagate(state0, PARAMS, tau)
            w = wigner_gaussian(st, GridSpec.cover_state(st))
            grid_min = min(grid_min, float(w.values.min()))
    checks = {
        "det cov >= 1/4 - 1e-9": min_det >= 0.25 - 1e-9,
        "Wigner grids non-negative": grid_min >= 0.0,
    }
    ok = record_acceptance(
        7,
        all(checks.values()),
        f"min det(cov) = {min_det:.12f}, min grid value = {grid_min:.3e}",
    )
    assert ok, [name for name, good in checks.items() if not good]


def test_criterion_8_markovian_contrast():
    # freeze the coefficients at their plateau values: the channel becomes a
    # one-parameter semigroup with Gamma_M = 2 gamma_inf tau and
    # Delta_Gamma_M = (delta_inf / 2 gamma_inf)(1 - e^(-2 gamma_inf tau))
    delta_inf = delta_coeff(PARAMS, 50.0)
    gamma_inf = gamma_coeff(PARAMS, 50.0)
    taus = np.linspace(0.0, 1.0, 2001)
    decay = np.exp(-2.0 * gamma_inf * taus)
    dg_m = delta_inf / (2.0 * gamma_inf) * (1.0 - decay)
    n_frozen = decay * 3.0 + dg_m + 0.5 * (decay - 1.0)
    vx_frozen = decay * 0.05 + dg_m

    coh = evolve_trajectory(make_coherent(ALPHA_COHERENT), PARAMS, 1.0, 2001)
    sq = evolve_trajectory(make_squeezed(0.0, SQUEEZE_S), PARAMS, 1.0, 2001)
    n_full = coh.n_mean
    vx_full = sq.variances(frame="corotating")[0]

    def monotone(arr):
        d = np.diff(arr)
        return bool(np.all(d >= -1e-12) or np.all(d <= 1e-12))

    checks = {
        "frozen <n> monotone": monotone(n_frozen),
        "frozen (Dx)^2 monotone": monotone(vx_frozen),
        "time-dependent <n> non-monotone": not monotone(n_full),
        "time-dependent (Dx)^2 non-monotone": not monotone(vx_full),
    }
    ok = record_acceptance(
        8,
        all(checks.values()),
        f"frozen runs monotone: {monotone(n_frozen)}/{monotone(vx_frozen)}, "
        f"time-dependent non-monotone: {not monotone(n_full)}/{not monotone(vx_full)}",
    )
    assert ok, [name for name, good in checks.items() if not good]

import math

import mpmath
import numpy as np
import pytest

from qbrownian.coefficients import PhysicalParams, delta_coeff, gamma_coeff
from qbrownian.fock import (
    FockState,
    annihilation,
    fock_to_wigner,
    integrate_me,
    make_coherent_fock,
    make_number_state,
    make_squeezed_fock,
    make_vacuum,
    me_rhs,
)
from qbrownian.gaussian import (
    make_coherent,
    make_squeezed,
    evolve_trajectory,
    propagate,
    squeeze_from_sigma2,
)
from qbrownian.quadrature import IntegrationError
from qbrownian.wigner import GridSpec, wigner_gaussian

FIG1 = PhysicalParams(g=0.1, r=0.05, kt_over_wc=1.0 / (2.0 * math.pi * 3.0e-5))
SQUEEZE_S = squeeze_from_sigma2(0.1)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return FockState(rho / rho.trace().real)


def dense_dissipator(L, rho):
    Ld = L.conj().T
    return L @ rho @ Ld - 0.5 * (Ld @ L @ rho + rho @ Ld @ L)


# ---------------------------------------------------------------- state types


def test_state_validation():
    with pytest.raises(ValueError):
        FockState(np.eye(3))  # trace 3
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        FockState(bad)  # not Hermitian
    with pytest.raises(ValueError):
        make_number_state(7, 5)


def test_constructors():
    vac = make_vacuum(10)
    assert vac.rho[0, 0] == 1.0
    assert vac.min_eigenvalue() >= -1e-12

    coh = make_coherent_fock(math.sqrt(3.0), 60)
    n = np.arange(60)
    assert float((np.diag(coh.rho).real * n).sum()) == pytest.approx(3.0, abs=1e-12)

    sq = make_squeezed_fock(SQUEEZE_S, 80)
    n = np.arange(80)
    got = float((np.diag(sq.rho).real * n).sum())
    assert got == pytest.approx(math.sinh(SQUEEZE_S) ** 2, abs=1e-6)
    # squeezed vacuum populates even levels only
    assert np.abs(np.diag(sq.rho).real[1::2]).max() < 1e-12


# ----------------------------------------------------------------------- rhs


def test_rhs_zero_for_zero_coefficients():
    st = random_state(12, seed=1)
    assert np.abs(me_rhs(st, 0.0, 0.0)).max() == 0.0


def test_rhs_matches_dense_dissipators_in_interior():
    # Discrepancies are confined to the top row/column, where the code keeps
    # the untruncated anticommutator weight n+1 (absorbing boundary) while
    # the dense truncated product aa^dag has a zero corner: the difference is
    # (delta-gamma) * dim/2 * rho on that border (dim * rho at the corner).
    dim = 20
    st = random_state(dim, seed=7)
    rho = np.asarray(st.rho)
    a = annihilation(dim)
    delta, gamma = 0.26, 5e-4
    got = me_rhs(st, delta, gamma)
    want = (delta + gamma) * dense_dissipator(a, rho) + (delta - gamma) * dense_dissipator(
        a.conj().T, rho
    )
    diff = want - got
    expected_border = (delta - gamma) * (dim / 2.0) * rho[-1, :-1]
    assert np.abs(diff[-1, :-1] - expected_border).max() < 1e-13
    assert diff[-1, -1] == pytest.approx((delta - gamma) * dim * rho[-1, -1].real, rel=1e-12)
    assert np.abs(diff[:-1, :-1]).max() < 1e-13


def test_rhs_hermitian_and_trace_free_below_truncation():
    st = make_coherent_fock(1.0 + 0.5j, 30)  # negligible top-level weight
    out = me_rhs(st, 0.3, 0.01)
    assert np.abs(out - out.conj().T).max() < 1e-15
    assert abs(np.trace(out)) <= 1e-12 * np.abs(out).max()


def test_thermal_fixed_point():
    # constant delta > gamma > 0: stationary <n> = (delta-gamma)/(2 gamma)
    delta, gamma = 0.15, 0.05
    dim = 30
    rho = np.asarray(make_vacuum(dim).rho)
    dt = 0.05
    for _ in range(3000):  # tau = 150, relaxation rate 2 gamma = 0.1
        k1 = me_rhs(FockState(rho), delta, gamma)
        k2 = me_rhs(FockState(rho + 0.5 * dt * k1), delta, gamma)
        k3 = me_rhs(FockState(rho + 0.5 * dt * k2), delta, gamma)
        k4 = me_rhs(FockState(rho + dt * k3), delta, gamma)
        rho = rho + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        rho /= rho.trace().real
    n_mean = float((np.diag(rho).real * np.arange(dim)).sum())
    assert n_mean == pytest.approx((delta - gamma) / (2.0 * gamma), abs=1e-6)


# ---------------------------------------------------------------- integration


def test_uncoupled_state_is_constant():
    p0 = PhysicalParams(g=0.0, r=0.05, kt_over_wc=FIG1.kt_over_wc)
    st0 = make_coherent_fock(1.2, 20)
    traj = integrate_me(st0, p0, tau_max=0.5, n_record=6)
    assert np.abs(traj.states[-1].rho - st0.rho).max() < 1e-14
    assert np.ptp(traj.n_mean) < 1e-14


def test_moment_closure_against_coefficients():
    # d<n>/dtau = -2 gamma <n> + (Delta - gamma), checked by 5-point stencil
    traj = integrate_me(make_coherent_fock(math.sqrt(3.0), 40), FIG1, tau_max=0.12, n_record=1201)
    t = traj.times
    h = t[1] - t[0]
    n = traj.n_mean
    lhs = (-n[4:] + 8.0 * n[3:-1] - 8.0 * n[1:-3] + n[:-4]) / (12.0 * h)
    mid = t[2:-2]
    rhs = np.array(
        [-2.0 * gamma_coeff(FIG1, tk) * nk + delta_coeff(FIG1, tk) - gamma_coeff(FIG1, tk)
         for tk, nk in zip(mid, n[2:-2])]
    )
    assert np.abs(lhs - rhs).max() < 1e-6


def test_coherent_matches_gaussian_before_recoherence_window():
    ft = integrate_me(make_coherent_fock(math.sqrt(3.0), 60), FIG1, tau_max=0.15, n_record=16)
    tr = evolve_trajectory(make_coherent(math.sqrt(3.0) + 0j), FIG1, 0.15, 16)
    vx, vy, _ = tr.variances(frame="corotating")
    mx, my = tr.means(frame="corotating")
    assert np.abs(ft.n_mean - tr.n_mean).max() < 1e-8
    assert np.abs(ft.var_x - vx).max() < 1e-8
    assert np.abs(ft.var_y - vy).max() < 1e-8
    assert np.abs(ft.mean_x - mx).max() < 1e-8
    assert np.abs(ft.mean_y - my).max() < 1e-8
    assert ft.max_trace_drift < 1e-9


def test_squeezed_matches_gaussian_before_recoherence_window():
    ft = integrate_me(make_squeezed_fock(SQUEEZE_S, 80), FIG1, tau_max=0.15, n_record=16)
    tr = evolve_trajectory(make_squeezed(0j, SQUEEZE_S), FIG1, 0.15, 16)
    vx, vy, _ = tr.variances(frame="corotating")
    # limited by the truncated squeeze tail at N=80, not by the integrator
    assert np.abs(ft.n_mean - tr.n_mean).max() < 1e-4
    assert np.abs(ft.var_x - vx).max() < 1e-4
    assert np.abs(ft.var_y - vy).max() < 1e-3


def test_moments_match_dense_operator_averages():
    ft = integrate_me(make_coherent_fock(1.0 + 0.7j, 40), FIG1, tau_max=0.1, n_record=6)
    a = annihilation(40)
    x = (a + a.conj().T) / math.sqrt(2.0)
    y = -1j * (a - a.conj().T) / math.sqrt(2.0)
    num = a.conj().T @ a
    for k in (0, 3, 5):
        rho = np.asarray(ft.states[k].rho)
        mx = np.trace(x @ rho).real
        vx = np.trace(x @ x @ rho).real - mx * mx
        assert ft.mean_x[k] == pytest.approx(mx, abs=1e-12)
        assert ft.var_x[k] == pytest.approx(vx, abs=1e-12)
        assert ft.n_mean[k] == pytest.approx(np.trace(num @ rho).real, abs=1e-12)
        my = np.trace(y @ rho).real
        assert ft.mean_y[k] == pytest.approx(my, abs=1e-12)


def test_integrator_matches_full_matrix_rk4_on_me_rhs():
    # integrate_me evolves only the packed upper bands of rho; a plain
    # full-matrix classical RK4 on the public me_rhs, with the same substep
    # times, coefficients and per-step trace renormalization, must agree.
    dim, tau_max, n_record = 12, 0.01, 5
    st0 = make_coherent_fock(0.8 + 0.3j, dim)
    ft = integrate_me(st0, FIG1, tau_max, n_record=n_record)
    rec_dt = tau_max / (n_record - 1)
    steps = math.ceil(rec_dt / (1e-3 * FIG1.r))
    h = rec_dt / steps
    assert steps * (n_record - 1) >= 20
    times = np.linspace(0.0, tau_max, n_record)
    rho = np.array(st0.rho)
    for k in range(n_record):
        for t0 in times[k - 1] + np.arange(steps if k else 0) * h:
            ts = (t0, t0 + 0.5 * h, t0 + h)
            (d0, dm, d1), (g0, gm, g1) = (
                [f(FIG1, t) for t in ts] for f in (delta_coeff, gamma_coeff)
            )
            k1 = me_rhs(FockState(rho), d0, g0)
            k2 = me_rhs(FockState(rho + 0.5 * h * k1), dm, gm)
            k3 = me_rhs(FockState(rho + 0.5 * h * k2), dm, gm)
            k4 = me_rhs(FockState(rho + h * k3), d1, g1)
            rho = rho + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            rho /= rho.trace().real
        got = ft.states[k].rho
        assert np.array_equal(got, got.conj().T)
        assert np.abs(got - rho).max() <= 1e-13


def test_negative_coefficient_window_aborts_at_default_truncations():
    # Between the first zero of Delta and the end of its negative lobe the
    # equation anti-diffuses, which amplifies the fine-scale truncation and
    # rounding content of rho at rate ~ |Delta| * dim; past dim ~ 15 the
    # integration cannot cross that window in double precision, and the
    # physicality guards are what reports it.
    with pytest.raises(IntegrationError, match="negativity|trace drift"):
        integrate_me(make_coherent_fock(math.sqrt(3.0), 60), FIG1, tau_max=1.0, n_record=101)
    with pytest.raises(IntegrationError, match="negativity|trace drift"):
        integrate_me(make_squeezed_fock(SQUEEZE_S, 80), FIG1, tau_max=1.0, n_record=101)


def test_trace_drift_abort_mentions_step_size():
    with pytest.raises(IntegrationError, match="trace drift"):
        integrate_me(make_coherent_fock(math.sqrt(3.0), 30), FIG1, tau_max=1.0, dt=0.02, n_record=2)


def test_integrate_preconditions():
    st = make_vacuum(5)
    with pytest.raises(ValueError):
        integrate_me(st, FIG1, tau_max=0.0)
    with pytest.raises(ValueError):
        integrate_me(st, FIG1, tau_max=1.0, dt=-1e-3)
    with pytest.raises(ValueError):
        integrate_me(st, FIG1, tau_max=1.0, n_record=1)


# -------------------------------------------------------------------- wigner


def test_wigner_vacuum_matches_gaussian():
    spec = GridSpec(-3.0, 3.0, -3.0, 3.0, 81, 81)
    wf = fock_to_wigner(make_vacuum(30), spec)
    wg = wigner_gaussian(make_coherent(0j), spec)
    assert np.abs(wf.values - wg.values).max() < 1e-8
    assert wf.values.max() == pytest.approx(2.0 / math.pi, abs=1e-12)


def test_wigner_single_photon_negative_at_origin():
    spec = GridSpec(-4.0, 4.0, -4.0, 4.0, 81, 81)
    wf = fock_to_wigner(make_number_state(1, 30), spec)
    ix = int(np.argmin(np.abs(spec.x_coords())))
    iy = int(np.argmin(np.abs(spec.y_coords())))
    assert wf.values[ix, iy] == pytest.approx(-2.0 / math.pi, abs=1e-9)
    assert wf.integral() == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n, dim, edge", [(20, 60, 6.0), (53, 160, 6.0), (99, 120, 6.0),
                                          (159, 160, 40.0)])
def test_wigner_number_state_matches_laguerre_closed_form(n, dim, edge):
    # W_n(alpha) = (2/pi) (-1)^n e^(-2|alpha|^2) L_n(4|alpha|^2) reaches the high bands;
    # at |alpha| ~ 40 the band sums would overflow where e^(-2|alpha|^2) underflows
    spec = GridSpec(-edge, edge, -edge, edge, 25, 25)
    r2 = spec.x_coords()[:, None] ** 2 + spec.y_coords()[None, :] ** 2
    mp = mpmath.mp.clone()
    mp.dps = 40
    closed = np.vectorize(
        lambda z: float(2 / mp.pi * (-1) ** n * mp.exp(-2 * z) * mp.laguerre(n, 0, 4 * z))
    )
    wf = fock_to_wigner(make_number_state(n, dim), spec)
    assert np.abs(wf.values - closed(r2)).max() <= 1e-13


def test_wigner_displaced_state_matches_gaussian():
    spec = GridSpec(-2.0, 5.0, -3.0, 4.0, 101, 101)
    wf = fock_to_wigner(make_coherent_fock(1.5 + 0.5j, 40), spec)
    wg = wigner_gaussian(make_coherent(1.5 + 0.5j), spec)
    assert np.abs(wf.values - wg.values).max() < 1e-12


def test_wigner_evolved_squeezed_matches_closed_form():
    # end-to-end oracle on the stable side of the first negative lobe;
    # the comparison frame is corotating, like the integrator
    tau = 0.12
    ft = integrate_me(make_squeezed_fock(SQUEEZE_S, 80), FIG1, tau_max=tau, n_record=5)
    st = propagate(make_squeezed(0j, SQUEEZE_S), FIG1, tau).rotated(FIG1.omega0 * tau)
    spec = GridSpec(-2.5, 2.5, -2.5, 2.5, 61, 61)
    wf = fock_to_wigner(ft.states[-1], spec)
    wg = wigner_gaussian(st, spec)
    assert np.abs(wf.values - wg.values).max() < 1e-6

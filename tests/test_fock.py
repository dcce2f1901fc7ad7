import math

import mpmath
import numpy as np
import pytest

from qbrownian.coefficients import PhysicalParams, delta_coeff, gamma_coeff
from qbrownian.fock import (
    STIFFNESS_BOUND,
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
    # S(s)|0> has psi_2k proportional to (-tanh s)^k sqrt((2k)!)/(2^k k!),
    # here through lgamma and renormalized over the 80 kept levels
    k = np.arange(40)
    log_mag = k * math.log(math.tanh(SQUEEZE_S)) + np.array(
        [0.5 * math.lgamma(2 * j + 1) - j * math.log(2.0) - math.lgamma(j + 1) for j in k])
    want = np.zeros(80)
    want[::2] = (-1.0) ** k * np.exp(log_mag)
    want /= np.linalg.norm(want)
    psi = sq.rho[:, 0].real / math.sqrt(sq.rho[0, 0].real)
    assert np.all(np.abs(psi[::2] / want[::2] - 1.0) <= 1e-13)
    got = float((np.diag(sq.rho).real * n).sum())
    assert got == pytest.approx(float((want * want * n).sum()), abs=1e-12)
    # squeezed vacuum populates even levels only
    assert np.abs(np.diag(sq.rho).real[1::2]).max() < 1e-12


# ----------------------------------------------------------------------- rhs


def test_rhs_zero_for_zero_coefficients():
    st = random_state(12, seed=1)
    assert np.abs(me_rhs(st, 0.0, 0.0)).max() == 0.0


@pytest.mark.parametrize("delta, gamma", [(0.26, 5e-4), (-0.4, 0.02), (0.0, 0.03), (0.1, 0.1),
                                          (0.1, -0.1)])
def test_rhs_matches_dense_dissipators_in_interior(delta, gamma):
    # Discrepancies are confined to the top row/column, where the code keeps
    # the untruncated anticommutator weight n+1 (absorbing boundary) while
    # the dense truncated product aa^dag has a zero corner: the difference is
    # (delta-gamma) * dim/2 * rho on that border (dim * rho at the corner).
    dim = 20
    st = random_state(dim, seed=7)
    rho = np.asarray(st.rho)
    a = annihilation(dim)
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
    assert np.abs(traj.rho[-1] - st0.rho).max() < 1e-14
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


@pytest.mark.parametrize("dim, g", [(40, FIG1.g), (2, 0.0), (1, 0.0)])
def test_moments_match_dense_operator_averages(dim, g):
    # The moments use a a^dag = a^dag a + 1, which the truncated a breaks on
    # the top level; the dense operators act on rho embedded in two more levels.
    p = PhysicalParams(g=g, r=FIG1.r, kt_over_wc=FIG1.kt_over_wc)
    ft = integrate_me(make_coherent_fock(1.0 + 0.7j, dim), p, tau_max=0.1, n_record=6)
    a = annihilation(dim + 2)
    x = (a + a.conj().T) / math.sqrt(2.0)
    y = -1j * (a - a.conj().T) / math.sqrt(2.0)
    num = a.conj().T @ a
    for k in (0, 3, 5):
        rho = np.zeros((dim + 2, dim + 2), dtype=complex)
        rho[:dim, :dim] = ft.rho[k]
        mx = np.trace(x @ rho).real
        vx = np.trace(x @ x @ rho).real - mx * mx
        assert ft.mean_x[k] == pytest.approx(mx, abs=1e-12)
        assert ft.var_x[k] == pytest.approx(vx, abs=1e-12)
        assert ft.n_mean[k] == pytest.approx(np.trace(num @ rho).real, abs=1e-12)
        my = np.trace(y @ rho).real
        vy = np.trace(y @ y @ rho).real - my * my
        assert ft.mean_y[k] == pytest.approx(my, abs=1e-12)
        assert ft.var_y[k] == pytest.approx(vy, abs=1e-12)


INITIAL_STATES = {
    "coherent": lambda dim: make_coherent_fock(0.8 + 0.3j, dim),
    "squeezed": lambda dim: make_squeezed_fock(0.3, dim),
    "number": lambda dim: make_number_state(2, dim),
}
ME_RHS_CASES = [(0.02, 5, FIG1.r, 12), (0.04, 3, 0.25, 12), (0.2, 3, FIG1.r, 20)]


@pytest.mark.parametrize("tau_max, n_record, r, dim, kind", [
    *(pytest.param(*case, "coherent", id="-".join(map(str, case))) for case in ME_RHS_CASES),
    *((*case, kind) for kind in ("squeezed", "number") for case in ME_RHS_CASES),
])
def test_integrator_matches_full_matrix_extrapolated_midpoint_on_me_rhs(tau_max, n_record, r, dim,
                                                                        kind):
    # integrate_me evolves only the packed upper bands of rho that the state
    # occupies, on increments from the start of each macro step; a plain
    # full-matrix modified midpoint rule on the public me_rhs, at the same
    # substep times, extrapolated by the Aitken-Neville tableau and
    # renormalized once per macro step, must agree.  The coherent state is
    # complex on every band; the squeezed vacuum is real on the even bands and
    # the number state is band 0 alone, so they run in real arithmetic on
    # fewer bands, while me_rhs packs every band in complex arithmetic.
    # At FIG1 both sit at rounding; at r = 0.25 the cap 0.04 r = 0.01 lets the
    # scheme's own error (about 7e-13) exceed the bound, so only the same
    # scheme agrees.  The run to tau = 0.2 crosses the window from tau = 0.1625
    # where Delta < 0 (at dim 12 it aborts on trace drift near tau = 0.075).
    p = PhysicalParams(g=FIG1.g, r=r, kt_over_wc=FIG1.kt_over_wc)
    st0 = INITIAL_STATES[kind](dim)
    ft = integrate_me(st0, p, tau_max, n_record=n_record)
    rec_dt = tau_max / (n_record - 1)
    steps = math.ceil(rec_dt / (0.04 * min(1.0, r)))
    h = rec_dt / steps
    # the cap, not the stiffness rule, sets the macro step here
    max_delta = max(abs(delta_coeff(p, t)) for t in np.linspace(0.0, tau_max, 201))
    assert h * 2 * dim * max_delta < STIFFNESS_BOUND
    assert steps >= 2

    def f(t, rho):
        # me_rhs is linear in rho and takes unit-trace states; leakage moves the trace
        tr = rho.trace().real
        return tr * me_rhs(FockState(rho / tr), delta_coeff(p, t), gamma_coeff(p, t))

    ns = (2, 4, 6, 8)
    times = np.linspace(0.0, tau_max, n_record)
    rho = np.array(st0.rho)
    for k in range(n_record):
        for t0 in times[k - 1] + np.arange(steps if k else 0) * h:
            f0 = f(t0, rho)
            table = []
            for n in ns:
                hn = h / n
                z_old, z = rho, rho + hn * f0
                for m in range(1, n):
                    z_old, z = z, z_old + 2.0 * hn * f(t0 + m * hn, z)
                table.append(0.5 * (z_old + z + hn * f(t0 + h, z)))
            for j in range(1, len(ns)):
                for i in range(len(ns) - 1, j - 1, -1):
                    ratio = (ns[i] / ns[i - j]) ** 2
                    table[i] = table[i] + (table[i] - table[i - 1]) / (ratio - 1.0)
            rho = table[-1] / table[-1].trace().real
        got = ft.rho[k]
        assert np.array_equal(got, got.conj().T)
        assert np.abs(got - rho).max() <= 1e-13


def test_phase_rotated_coherent_state_rotates_every_record():
    # The generator commutes with the phase rotation e^(i theta n), so rotating
    # the initial state rotates each record: rho_theta[m, n] = e^(i (m - n)
    # theta) rho_0[m, n].  At real alpha the run takes the real path, at
    # alpha e^(i theta) the complex one, on every band either way.
    alpha, theta, dim = 1.1, 0.7, 30
    ft0 = integrate_me(make_coherent_fock(alpha, dim), FIG1, tau_max=0.08, n_record=5)
    ft = integrate_me(make_coherent_fock(alpha * np.exp(1j * theta), dim), FIG1, tau_max=0.08,
                      n_record=5)
    n = np.arange(dim)
    phase = np.exp(1j * theta * (n[:, None] - n))
    assert np.abs(ft.rho - phase * ft0.rho).max() <= 1e-14
    assert not ft0.rho.imag.any()


def test_unoccupied_bands_and_imaginary_parts_stay_exactly_zero():
    # The master equation moves weight only along each band and has real
    # coefficients: the squeezed vacuum (phi = 0) keeps its odd bands and
    # every imaginary part at 0, and a number state stays diagonal, exactly.
    i, j = np.indices((40, 40))
    ft = integrate_me(make_squeezed_fock(0.5, 40), FIG1, tau_max=0.1, n_record=6)
    assert not ft.rho[:, (j - i) % 2 == 1].any()
    assert not ft.rho.imag.any()
    ft = integrate_me(make_number_state(3, 40), FIG1, tau_max=0.1, n_record=6)
    assert not ft.rho[:, i != j].any()
    assert ft.rho[-1, 2, 2] > 0.0 and ft.rho[-1, 4, 4] > 0.0


def test_band_occupied_only_by_the_hermitian_part_is_integrated():
    # FockState accepts rho Hermitian within 1e-12, and integrate_me evolves
    # the Hermitian part (rho + rho^dag) / 2.  A coherence that sits only below
    # the diagonal, and is imaginary, makes band 2 and the imaginary parts
    # occupied in that part, though the upper triangle has neither; the run
    # must equal the one from the Hermitian part itself, bit for bit.
    rho = np.zeros((12, 12), dtype=complex)
    rho[0, 0] = rho[2, 2] = 0.5
    rho[2, 0] = 2e-13j
    herm = 0.5 * (rho + rho.conj().T)
    ft = integrate_me(FockState(rho), FIG1, tau_max=0.02, n_record=3)
    ref = integrate_me(FockState(herm), FIG1, tau_max=0.02, n_record=3)
    assert np.array_equal(ft.rho, ref.rho)
    assert ft.rho[-1, 0, 2].imag < 0.0


def test_stiffness_rule_splits_a_single_record_interval():
    # The stiffness rule, not the cap 0.04 min(1, r), sets the macro steps that
    # split the one record interval: at FIG1 and dim 80 just (1.5 / (160 * 5.157)
    # < 0.002), and at r = 0.25 and dim 60 by far (the cap 0.01 alone would give
    # H 2 dim max|Delta| = 17, past the stable range, and the run would abort).
    # At this squeezing the weight near n = dim is negligible, so the moments
    # follow the exact law to rounding.
    s = squeeze_from_sigma2(0.5)
    for r, dim in ((FIG1.r, 80), (0.25, 60)):
        p = PhysicalParams(g=FIG1.g, r=r, kt_over_wc=FIG1.kt_over_wc)
        ft = integrate_me(make_squeezed_fock(s, dim), p, tau_max=0.15, n_record=2)
        tr = evolve_trajectory(make_squeezed(0j, s), p, 0.15, 2)
        vx, vy, _ = tr.variances(frame="corotating")
        assert np.abs(ft.n_mean - tr.n_mean).max() < 1e-8
        assert np.abs(ft.var_x - vx).max() < 1e-8
        assert np.abs(ft.var_y - vy).max() < 1e-8


def test_health_is_kept_per_record():
    ft = integrate_me(make_coherent_fock(1.0 + 0.7j, 40), FIG1, tau_max=0.1, n_record=6)
    assert ft.min_eigenvalue.shape == ft.trace_drift.shape == (6,)
    assert ft.rho.shape == (6, 40, 40)
    with pytest.raises(ValueError):
        ft.rho[0, 0, 0] = 0.0
    for k, state in enumerate(ft.states):
        assert np.array_equal(state.rho, ft.rho[k])
        assert ft.min_eigenvalue[k] == state.min_eigenvalue()
    assert ft.trace_drift[0] == 0.0
    assert ft.max_trace_drift == ft.trace_drift.max()


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
    with pytest.raises(IntegrationError, match="trace drift .*macro step H="):
        integrate_me(make_coherent_fock(math.sqrt(3.0), 30), FIG1, tau_max=1.0, n_record=2)


def test_integrate_preconditions():
    st = make_vacuum(5)
    with pytest.raises(ValueError):
        integrate_me(st, FIG1, tau_max=0.0)
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
    # at |alpha| ~ 40 the Hermite tables are 0, since psi_0 underflows for |2 alpha| > 38.6
    spec = GridSpec(-edge, edge, -edge, edge, 25, 25)
    r2 = spec.x_coords()[:, None] ** 2 + spec.y_coords()[None, :] ** 2
    mp = mpmath.mp.clone()
    mp.dps = 40
    closed = np.vectorize(
        lambda z: float(2 / mp.pi * (-1) ** n * mp.exp(-2 * z) * mp.laguerre(n, 0, 4 * z))
    )
    wf = fock_to_wigner(make_number_state(n, dim), spec)
    assert np.abs(wf.values - closed(r2)).max() <= 1e-13


def _mp_wigner(rho, alpha, mp):
    """W(alpha) = (2/pi) sum_mn rho_mn (-1)^m <n|D(2 alpha)|m> in mpmath, with the
    Cahill-Glauber forms, for x = |beta|^2,

        <n|D(beta)|m> = sqrt(m!/n!) beta^(n-m) e^(-x/2) L_m^(n-m)(x)            (n >= m)
                      = sqrt(n!/m!) (-conj(beta))^(m-n) e^(-x/2) L_n^(m-n)(x)   (n < m).
    """
    beta = 2 * mp.mpc(alpha.real, alpha.imag)
    x = abs(beta) ** 2
    total = mp.mpf(0)
    for m in range(rho.shape[0]):
        for n in range(rho.shape[0]):
            lo, hi = min(m, n), max(m, n)
            z = beta if n >= m else -mp.conj(beta)
            d = (mp.sqrt(mp.factorial(lo) / mp.factorial(hi)) * z ** (hi - lo)
                 * mp.exp(-x / 2) * mp.laguerre(lo, hi - lo, x))
            total += mp.mpc(rho[m, n].real, rho[m, n].imag) * (-1) ** m * d
    return float(2 / mp.pi * total.real)


@pytest.mark.parametrize("dim", [1, 2, 7, 12])
def test_wigner_random_state_matches_cahill_glauber_sum(dim):
    # Nodes near the origin, out to where psi_0(2 alpha) underflows (|2 alpha|
    # > 38.6), as 1 x 1 grids, and a 4 x 5 grid.
    mp = mpmath.mp.clone()
    mp.dps = 30
    # The convention of _mp_wigner is the one the number-state and coherent
    # tests fix: a truncated coherent state gives the displaced vacuum.
    coh = make_coherent_fock(0.5 - 0.3j, 30).rho
    for a in (0.4 + 0.1j, -0.7 + 1.2j):
        want = 2 / math.pi * math.exp(-2 * abs(a - (0.5 - 0.3j)) ** 2)
        assert _mp_wigner(coh, a, mp) == pytest.approx(want, abs=1e-14)
    rho = random_state(dim, seed=dim).rho
    rng = np.random.default_rng(dim)
    points = [complex(*z) for z in rng.uniform(-2.5, 2.5, size=(12, 2))]
    points += [4.0 + 0.5j, -1.0 - 5.0j, 7.5j, 12.0 - 3.0j, -19.0, 19.5 + 1.0j, 25.0j, 30.0 + 30.0j]
    for a in points:
        spec = GridSpec(a.real - 0.05, a.real + 0.05, a.imag - 0.05, a.imag + 0.05, 1, 1)
        node = complex(spec.x_coords()[0], spec.y_coords()[0])
        got = fock_to_wigner(FockState(rho), spec).values[0, 0]
        assert abs(got - _mp_wigner(rho, node, mp)) <= 1e-13
    spec = GridSpec(-2.0, 2.5, -3.0, 1.0, 4, 5)
    got = fock_to_wigner(FockState(rho), spec).values
    want = [[_mp_wigner(rho, complex(x, y), mp) for y in spec.y_coords()] for x in spec.x_coords()]
    assert np.abs(got - np.array(want)).max() <= 1e-13


def test_wigner_dim_one_is_the_vacuum():
    spec = GridSpec(-2.0, 3.0, -1.0, 1.5, 6, 3)
    r2 = spec.x_coords()[:, None] ** 2 + spec.y_coords()[None, :] ** 2
    got = fock_to_wigner(make_vacuum(1), spec).values
    assert np.abs(got - 2.0 / math.pi * np.exp(-2.0 * r2)).max() <= 1e-15


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

import math

import numpy as np
import pytest

from qbrownian.coefficients import PhysicalParams, big_gamma, coefficient_grid, delta_big_gamma
from qbrownian.gaussian import (
    GaussianState,
    Trajectory,
    detect_squeezing_intervals,
    evolve_trajectory,
    make_coherent,
    make_squeezed,
    mean_quanta,
    oscillation_period,
    propagate,
    squeeze_from_sigma2,
)

FIG1 = PhysicalParams(g=0.1, r=0.05, kt_over_wc=1.0 / (2.0 * math.pi * 3.0e-5))
SQUEEZE_S = squeeze_from_sigma2(0.1)


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState([0.0, 0.0], [[0.5, 0.3], [0.1, 0.5]])
    with pytest.raises(ValueError):
        GaussianState([0.0, 0.0], [[0.0, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError):
        GaussianState([np.nan, 0.0], 0.5 * np.eye(2))
    st = GaussianState([1.0, 2.0], 0.5 * np.eye(2))
    with pytest.raises(ValueError):
        st.mean[0] = 9.0


def test_rotation_by_quarter_turn_swaps_variances():
    st = GaussianState([1.0, 0.0], np.diag([0.05, 5.0]))
    rot = st.rotated(0.5 * math.pi)
    assert rot.var_x == pytest.approx(5.0, rel=1e-14)
    assert rot.var_y == pytest.approx(0.05, rel=1e-14)
    assert rot.mean[1] == pytest.approx(1.0, rel=1e-14)
    back = rot.rotated(-0.5 * math.pi)
    np.testing.assert_allclose(back.cov, st.cov, atol=1e-15)


def test_coherent_state_moments():
    st = make_coherent(1.0 + 2.0j)
    np.testing.assert_allclose(st.mean, [math.sqrt(2.0), 2.0 * math.sqrt(2.0)])
    np.testing.assert_allclose(st.cov, 0.5 * np.eye(2))
    assert mean_quanta(st) == pytest.approx(5.0, abs=1e-12)
    assert mean_quanta(make_coherent(0.0)) == 0.0


def test_squeezed_state_moments():
    st = make_squeezed(0.0, SQUEEZE_S)
    assert st.var_x == pytest.approx(0.05, rel=1e-14)
    assert st.var_y == pytest.approx(5.0, rel=1e-14)
    assert mean_quanta(st) == pytest.approx(math.sinh(SQUEEZE_S) ** 2, rel=1e-12)
    # phi rotates the squeezing ellipse by phi/2: phi = pi swaps the axes
    flipped = make_squeezed(0.0, SQUEEZE_S, phi=math.pi)
    assert flipped.var_x == pytest.approx(5.0, rel=1e-12)
    assert flipped.var_y == pytest.approx(0.05, rel=1e-9)
    with pytest.raises(ValueError):
        make_squeezed(0.0, -0.1)


def test_squeeze_from_sigma2():
    assert squeeze_from_sigma2(1.0) == 0.0
    assert squeeze_from_sigma2(0.1) == pytest.approx(0.5 * math.log(10.0), rel=1e-15)
    assert math.exp(-2.0 * squeeze_from_sigma2(0.3)) == pytest.approx(0.3, rel=1e-14)
    with pytest.raises(ValueError):
        squeeze_from_sigma2(0.0)


def test_mean_quanta_rejects_unphysical_state():
    st = GaussianState([0.0, 0.0], np.diag([0.1, 0.1]))
    assert not st.is_physical()
    with pytest.raises(ValueError, match="unphysical"):
        mean_quanta(st)


def test_mean_quanta_is_rotation_invariant():
    st = make_squeezed(1.0 - 0.5j, 0.7, phi=1.1)
    for theta in (0.3, 1.0, 2.5):
        assert mean_quanta(st.rotated(theta)) == pytest.approx(mean_quanta(st), rel=1e-12)


def test_propagate_at_zero_is_identity():
    st = make_squeezed(1.0 + 1.0j, SQUEEZE_S)
    out = propagate(st, FIG1, 0.0)
    np.testing.assert_allclose(out.mean, st.mean, atol=1e-15)
    np.testing.assert_allclose(out.cov, st.cov, atol=1e-15)
    with pytest.raises(ValueError):
        propagate(st, FIG1, -0.5)


def test_propagate_matches_closed_form():
    st = make_squeezed(1.0 + 1.0j, SQUEEZE_S)
    tau = 0.3
    out = propagate(st, FIG1, tau)
    gt = big_gamma(FIG1, tau)
    dg = delta_big_gamma(FIG1, tau)
    th = -FIG1.omega0 * tau
    c, s = math.cos(th), math.sin(th)
    rot = np.array([[c, -s], [s, c]])
    np.testing.assert_allclose(out.mean, math.exp(-0.5 * gt) * (rot @ st.mean), rtol=1e-13)
    want_cov = math.exp(-gt) * (rot @ st.cov @ rot.T) + dg * np.eye(2)
    np.testing.assert_allclose(out.cov, want_cov, rtol=1e-12, atol=1e-15)


def test_mean_quanta_closed_form_along_trajectory():
    # <n>(tau) = e^-Gamma n0 + Delta_Gamma + (e^-Gamma - 1)/2
    n0 = 3.0
    traj = evolve_trajectory(make_coherent(math.sqrt(3.0)), FIG1, 1.0, 41)
    for k in range(len(traj.times)):
        decay = math.exp(-traj.coeffs.big_gamma[k])
        want = decay * n0 + traj.coeffs.delta_gamma[k] + 0.5 * (decay - 1.0)
        assert traj.n_mean[k] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_trajectory_endpoint_matches_single_shot():
    st = make_squeezed(1.0 + 1.0j, SQUEEZE_S)
    traj = evolve_trajectory(st, FIG1, 0.45, 46)
    one = propagate(st, FIG1, 0.45)
    np.testing.assert_allclose(traj.state(-1).cov, one.cov, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(traj.state(-1).mean, one.mean, rtol=1e-12)
    assert traj.times[0] == 0.0 and traj.times[-1] == 0.45 and len(traj.times) == 46


def test_evolution_is_not_a_one_parameter_semigroup():
    # restarting the from-zero channel halfway re-applies the large early-time
    # diffusion transient, so two half steps badly overshoot one full step
    st = make_squeezed(1.0 + 1.0j, SQUEEZE_S)
    one = propagate(st, FIG1, 0.3)
    two = propagate(propagate(st, FIG1, 0.15), FIG1, 0.15)
    assert abs(two.var_x - one.var_x) > 0.5


def test_corotating_frame_undoes_free_rotation_exactly():
    # in the corotating frame cov(tau) = e^-Gamma cov(0) + Delta_Gamma * I
    st = make_squeezed(1.0 + 1.0j, SQUEEZE_S)
    traj = evolve_trajectory(st, FIG1, 0.5, 51)
    vx, vy, cxy = traj.variances(frame="corotating")
    for k in range(len(traj.times)):
        decay = math.exp(-traj.coeffs.big_gamma[k])
        dg = traj.coeffs.delta_gamma[k]
        assert vx[k] == pytest.approx(decay * 0.05 + dg, rel=1e-12, abs=1e-14)
        assert vy[k] == pytest.approx(decay * 5.0 + dg, rel=1e-12)
        assert abs(cxy[k]) < 1e-12
    # coherent-state covariance is isotropic, so both frames agree on it
    iso = evolve_trajectory(make_coherent(1.0), FIG1, 0.5, 11)
    lab_vx, lab_vy, _ = iso.variances(frame="lab")
    cor_vx, cor_vy, _ = iso.variances(frame="corotating")
    np.testing.assert_allclose(lab_vx, cor_vx, rtol=1e-12)
    np.testing.assert_allclose(lab_vy, cor_vy, rtol=1e-12)
    with pytest.raises(ValueError):
        traj.variances(frame="heliocentric")
    # a single-shot corotating state is the same law, bit for bit
    mx, my = traj.means(frame="corotating")
    for k in (0, 17, 50):
        one = propagate(st, FIG1, traj.times[k], frame="corotating")
        assert one.mean.tolist() == [mx[k], my[k]]
        assert one.cov.ravel().tolist() == [vx[k], cxy[k], cxy[k], vy[k]]
    with pytest.raises(ValueError):
        propagate(st, FIG1, 0.1, frame="heliocentric")


def test_means_decay_and_rotate():
    st = make_coherent(math.sqrt(3.0))
    traj = evolve_trajectory(st, FIG1, 0.5, 101)
    mx, my = traj.means(frame="corotating")
    # corotating means only decay: direction fixed, magnitude e^(-Gamma/2)
    assert abs(my).max() < 1e-12
    for k in range(len(traj.times)):
        want = math.sqrt(6.0) * math.exp(-0.5 * traj.coeffs.big_gamma[k])
        assert mx[k] == pytest.approx(want, rel=1e-12)
    lab_mx, lab_my = traj.means(frame="lab")
    assert abs(lab_my).max() > 1.0  # the lab frame sees the rotation


def test_evolve_trajectory_preconditions():
    st = make_coherent(1.0)
    with pytest.raises(ValueError):
        evolve_trajectory(st, FIG1, 1.0, 1)
    with pytest.raises(ValueError):
        evolve_trajectory(st, FIG1, 0.0, 10)


def test_uncertainty_bound_saturates_for_pure_states():
    st = make_squeezed(1.0 + 1.0j, SQUEEZE_S)
    assert st.det_cov() == pytest.approx(0.25, rel=1e-14)
    traj = evolve_trajectory(st, FIG1, 0.5, 501)
    dets = np.array([traj.state(k).det_cov() for k in range(len(traj.times))])
    assert dets.min() >= 0.25 - 1e-9
    assert dets[1:].min() > 0.25  # added noise lifts the state off the bound


def test_squeezing_intervals_frozen_reference():
    st = make_squeezed(1.0 + 1.0j, SQUEEZE_S)
    traj = evolve_trajectory(st, FIG1, 0.5, 2001)
    iv = detect_squeezing_intervals(traj)
    assert len(iv) == 2
    assert iv[0][0] == 0.0
    assert iv[0][1] == pytest.approx(0.119621, abs=5e-4)
    assert iv[1][0] == pytest.approx(0.207588, abs=5e-4)
    assert iv[1][1] == pytest.approx(0.420226, abs=5e-4)
    # the anti-squeezed axis never drops below vacuum variance
    assert detect_squeezing_intervals(traj, quadrature_axis="y") == []
    with pytest.raises(ValueError):
        detect_squeezing_intervals(traj, quadrature_axis="z")


def test_squeezing_interval_ends_do_not_depend_on_the_grid():
    # the ends are refined on the law, so the grid only has to bracket them
    st = make_squeezed(0.0, SQUEEZE_S)
    want = [(0.0, 0.11962051861207038), (0.20758841401699088, 0.42022628464836603)]
    for n_steps in (200, 2000, 65536):
        traj = evolve_trajectory(st, FIG1, 0.5, n_steps)
        assert detect_squeezing_intervals(traj) == want, n_steps


def test_squeezing_intervals_edge_cases():
    # coherent input is never squeezed
    traj = evolve_trajectory(make_coherent(1.0), FIG1, 0.5, 201)
    assert detect_squeezing_intervals(traj) == []
    # with the reservoir switched off, a squeezed input stays squeezed for
    # the whole window (corotating variance is constant)
    p0 = PhysicalParams(g=0.0, r=0.05, kt_over_wc=FIG1.kt_over_wc)
    still = evolve_trajectory(make_squeezed(0.0, squeeze_from_sigma2(0.8)), p0, 1.0, 101)
    assert detect_squeezing_intervals(still) == [(0.0, 1.0)]


@pytest.mark.parametrize("s", [1.15, 5.0, 12.0])
def test_uncoupled_corotating_moments_stay_exactly_initial(s):
    # g = 0 is the identity channel: the corotating moments never move, and
    # the uncertainty bound holds exactly however strong the squeezing
    p0 = PhysicalParams(g=0.0, r=0.05, kt_over_wc=FIG1.kt_over_wc)
    st = make_squeezed(0j, s)
    traj = evolve_trajectory(st, p0, 1.0, 201)
    vx, vy, cxy = traj.variances(frame="corotating")
    mx, my = traj.means(frame="corotating")
    assert np.all(vx == st.var_x) and np.all(vy == st.var_y) and np.all(cxy == st.cov_xy)
    assert np.all(mx == st.mean[0]) and np.all(my == st.mean[1])


def test_trajectory_must_start_at_zero():
    traj = evolve_trajectory(make_coherent(1.0), FIG1, 0.5, 11)
    with pytest.raises(ValueError, match="start at 0"):
        Trajectory(traj.times + 0.1, traj.mean, traj.cov, traj.n_mean, traj.coeffs, FIG1)


def _loop_period(t, v):
    # Reference for `oscillation_period`: its detrending, then the
    # hysteresis as a per-sample loop.
    t, v = np.asarray(t, dtype=float), np.asarray(v, dtype=float)
    half = (t[-1] - t[0]) / 6.0
    csum = np.concatenate([[0.0], np.cumsum(v)])
    lo = np.searchsorted(t, t - half, side="left")
    hi = np.searchsorted(t, t + half, side="right")
    d = v - (csum[hi] - csum[lo]) / (hi - lo)
    eps = 1e-9 * float(np.max(np.abs(d)))
    crossings, armed = [], False
    for i in range(len(d) - 1):
        if d[i] > eps:
            armed = True
        if armed and d[i] > 0.0 >= d[i + 1]:
            frac = d[i] / (d[i] - d[i + 1])
            crossings.append(float(t[i] + frac * (t[i + 1] - t[i])))
            armed = False
    if len(crossings) < 2:
        return None
    return float((crossings[-1] - crossings[0]) / (len(crossings) - 1))


def test_oscillation_period_equals_loop_reference():
    rng = np.random.default_rng(7)
    for k in range(600):
        n = int(rng.integers(3, 80))
        t = np.cumsum(rng.uniform(0.01, 1.0, n))
        if k % 3 == 0:  # small integers: ties, zeros and exact crossings
            v = rng.integers(-2, 3, n).astype(float)
        elif k % 3 == 1:
            v = rng.normal(size=n)
        else:
            v = np.sin(rng.uniform(0.5, 8.0) * t) + rng.uniform(-1.0, 1.0) * t
        want = _loop_period(t, v)
        assert oscillation_period(np.column_stack((t, v))) == want, k
        assert oscillation_period(zip(t, v)) == want, k


def test_oscillation_period_on_synthetic_signal():
    t = np.linspace(0.0, 1.0, 2001)
    v = 0.3 * t + np.sin(2.0 * math.pi * t / 0.31416)
    per = oscillation_period(zip(t, v))
    assert per == pytest.approx(0.31416, rel=0.01)


def test_oscillation_period_none_and_validation():
    t = np.linspace(0.0, 1.0, 101)
    assert oscillation_period(zip(t, np.ones_like(t))) is None
    assert oscillation_period(zip(t, t * 2.0)) is None
    with pytest.raises(ValueError):
        oscillation_period([(0.0, 1.0), (0.5, 2.0)])
    with pytest.raises(ValueError):
        oscillation_period([(0.0, 1.0), (0.5, 2.0), (0.5, 3.0)])


def test_quanta_oscillation_period_tracks_free_rotation():
    traj = evolve_trajectory(make_coherent(math.sqrt(3.0)), FIG1, 1.0, 2001)
    per = oscillation_period(zip(traj.times, traj.n_mean))
    assert per == pytest.approx(2.0 * math.pi * 0.05, rel=0.02)
    assert traj.n_mean[0] == pytest.approx(3.0, abs=1e-12)


def test_trajectory_field_length_validation():
    times = np.array([0.0, 0.1])
    st = make_coherent(1.0)
    with pytest.raises(ValueError):
        Trajectory(times, st.mean[None, :], st.cov[None], np.array([1.0, 1.0]),
                   coefficient_grid(FIG1, times[:1]), FIG1)

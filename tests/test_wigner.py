import math

import numpy as np
import pytest

from qbrownian.coefficients import PhysicalParams, big_gamma, delta_big_gamma
from qbrownian.gaussian import (
    GaussianState,
    make_coherent,
    make_squeezed,
    propagate,
    squeeze_from_sigma2,
)
from qbrownian.wigner import (
    _CONV_BLOCK,
    GridSpec,
    WignerGrid,
    grid_moments,
    propagator,
    wigner_by_convolution,
    wigner_coherent_closed,
    wigner_gaussian,
)

FIG1 = PhysicalParams(g=0.1, r=0.05, kt_over_wc=1.0 / (2.0 * math.pi * 3.0e-5))
ALPHA0 = 1.0 + 1.0j


def test_grid_spec_geometry():
    g = GridSpec(-2.0, 2.0, -1.0, 3.0, 8, 5)
    assert g.dx == 0.5 and g.dy == 0.8
    x = g.x_coords()
    assert x[0] == -2.0 + 0.25 and x[-1] == 2.0 - 0.25
    assert len(x) == 8 and len(g.y_coords()) == 5
    # odd point count puts a node exactly at the midpoint of the extent
    mid = GridSpec(-3.0, 3.0, -3.0, 3.0, 31, 31)
    assert mid.x_coords()[15] == 0.0


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, -1.0, 1.0, 10, 10)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1.0, -1.0, 1.0, 0, 10)


def test_cover_state_tracks_mean_and_spread():
    st = make_squeezed(2.0 - 1.0j, 0.5)
    g = GridSpec.cover_state(st, n_sigma=4.0, nx=11, ny=21)
    cx, cy = st.mean / math.sqrt(2.0)
    assert 0.5 * (g.x_min + g.x_max) == pytest.approx(cx, rel=1e-12)
    assert 0.5 * (g.y_min + g.y_max) == pytest.approx(cy, rel=1e-12)
    assert g.x_max - g.x_min == pytest.approx(8.0 * math.sqrt(st.var_x / 2.0), rel=1e-12)
    assert g.y_max - g.y_min == pytest.approx(8.0 * math.sqrt(st.var_y / 2.0), rel=1e-12)
    assert (g.nx, g.ny) == (11, 21)


UNCOUPLED = PhysicalParams(g=0.0, r=0.05, kt_over_wc=FIG1.kt_over_wc)
SYMMETRY_STATES = {
    "vacuum": make_coherent(0.0),
    "coherent": make_coherent(-1.7 + 0.4j),
    "squeezed on the axes": make_squeezed(0.3 - 2.0j, squeeze_from_sigma2(1e-3)),
    "squeezed, lab-rotated": propagate(make_squeezed(ALPHA0, squeeze_from_sigma2(0.1)), FIG1, 0.15),
    "squeezed, lab-rotated at g = 0": propagate(
        make_squeezed(-0.6 + 0.9j, squeeze_from_sigma2(0.02), 0.7), UNCOUPLED, 0.013),
    "coherent after the transient": propagate(make_coherent(ALPHA0), FIG1, 0.45),
}


@pytest.mark.parametrize("name", SYMMETRY_STATES)
@pytest.mark.parametrize("nx, ny", [(151, 151), (201, 201), (8, 8), (9, 14), (1, 2)])
def test_cover_state_grids_are_point_symmetric_bit_for_bit(name, nx, ny):
    st = SYMMETRY_STATES[name]
    w = wigner_gaussian(st, GridSpec.cover_state(st, nx=nx, ny=ny)).values
    assert np.array_equal(w, w[::-1, ::-1])


def test_off_centre_grids_match_the_density_at_the_nodes():
    # A user grid, an inner grid pushed off the mean, and a grid whose centre
    # is off by a few thousand ulp: the centre's offset must enter every value.
    st = propagate(make_squeezed(0.4 - 0.3j, squeeze_from_sigma2(0.1), 0.5), FIG1, 0.3)
    cover = GridSpec.cover_state(st, nx=40, ny=33)
    shift = 1e-12
    grids = (GridSpec(-2.3, 1.7, -0.9, 3.1, 40, 33),
             GridSpec(cover.x_min - 0.3, cover.x_max + 0.1, cover.y_min, cover.y_max + 0.6, 15, 13),
             GridSpec(cover.x_min + shift, cover.x_max + shift,
                      cover.y_min - shift, cover.y_max - shift, 40, 33))
    inv = np.linalg.inv(st.cov / 2.0)
    pref = 1.0 / (2.0 * math.pi * math.sqrt(st.det_cov() / 4.0))
    for grid in grids:
        u = np.stack(np.meshgrid(grid.x_coords(), grid.y_coords(), indexing="ij"), axis=-1)
        u -= st.mean / math.sqrt(2.0)
        want = pref * np.exp(-0.5 * np.einsum("...i,ij,...j->...", u, inv, u))
        got = wigner_gaussian(st, grid).values
        assert np.abs(got - want).max() <= 1e-14 * want.max()


def test_wigner_grid_validation():
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        WignerGrid(spec, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        WignerGrid(spec, np.full((4, 4), np.inf))
    grid = WignerGrid(spec, np.ones((4, 4)))
    with pytest.raises(ValueError):
        grid.values[0, 0] = 2.0
    assert grid.integral() == pytest.approx(4.0, rel=1e-14)


def test_vacuum_peak_and_mass():
    vac = make_coherent(0.0)
    grid = GridSpec(-4.0, 4.0, -4.0, 4.0, 201, 201)
    w = wigner_gaussian(vac, grid)
    # cell-centered odd grid has a node exactly at the origin
    assert w.values[100, 100] == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert w.values.max() == w.values[100, 100]
    assert w.integral() == pytest.approx(1.0, abs=1e-6)


def test_gaussian_wigner_is_positive_with_unit_mass():
    st = make_squeezed(ALPHA0, squeeze_from_sigma2(0.1))
    w = wigner_gaussian(st, GridSpec.cover_state(st))
    assert np.all(w.values > 0.0)
    assert w.integral() == pytest.approx(1.0, abs=1e-6)
    gm = grid_moments(w)
    # 10:1 marginal standard-deviation aspect ratio for sigma^2 = 0.1
    assert math.sqrt(gm.cov[1, 1] / gm.cov[0, 0]) == pytest.approx(10.0, rel=1e-3)


def test_wigner_gaussian_rejects_indefinite_covariance():
    bad = GaussianState([0.0, 0.0], [[0.5, 0.6], [0.6, 0.5]])
    with pytest.raises(ValueError, match="det"):
        wigner_gaussian(bad, GridSpec(-1.0, 1.0, -1.0, 1.0, 8, 8))


def test_grid_moments_recover_state_moments():
    st = propagate(make_squeezed(ALPHA0, squeeze_from_sigma2(0.1)), FIG1, 0.3)
    gm = grid_moments(wigner_gaussian(st, GridSpec.cover_state(st)))
    assert gm.norm == pytest.approx(1.0, abs=1e-7)
    np.testing.assert_allclose(gm.mean, st.mean, atol=1e-10)
    np.testing.assert_allclose(gm.cov, st.cov, atol=1e-5)


def test_propagator_peak_value_and_isotropy():
    tau = 0.3
    dg = delta_big_gamma(FIG1, tau)
    c = math.exp(-0.5 * big_gamma(FIG1, tau)) * complex(
        math.cos(FIG1.omega0 * tau), -math.sin(FIG1.omega0 * tau)
    )
    center = c * ALPHA0
    assert propagator(FIG1, tau, center, ALPHA0) == pytest.approx(
        1.0 / (math.pi * dg), rel=1e-12
    )
    # the kernel depends on alpha only through |alpha - c alpha0|
    ring = [propagator(FIG1, tau, center + 0.7 * complex(math.cos(t), math.sin(t)), ALPHA0)
            for t in (0.0, 1.1, 2.9, 4.4)]
    assert max(ring) - min(ring) < 1e-14 * ring[0]
    with pytest.raises(ValueError):
        propagator(FIG1, 0.0, 0.0, 0.0)


def test_propagator_forgets_initial_displacement():
    # early on, the kernel still points at the initial condition; after many
    # damping times the thermal spread dwarfs the residual displacement
    probe = 0.3 + 0.2j
    early_a = propagator(FIG1, 0.5, probe, 0.0)
    early_b = propagator(FIG1, 0.5, probe, 2.0)
    late_a = propagator(FIG1, 300.0, probe, 0.0)
    late_b = propagator(FIG1, 300.0, probe, 2.0)
    assert abs(early_b / early_a - 1.0) > 0.5
    assert abs(late_b / late_a - 1.0) < 0.03


def test_coherent_closed_form_reduces_to_initial_state():
    grid = GridSpec(-3.0, 3.0, -3.0, 3.0, 101, 101)
    w0 = wigner_coherent_closed(ALPHA0, FIG1, 0.0, grid)
    ref = wigner_gaussian(make_coherent(ALPHA0), grid)
    np.testing.assert_allclose(w0.values, ref.values, atol=1e-14)
    with pytest.raises(ValueError):
        wigner_coherent_closed(ALPHA0, FIG1, -0.1, grid)


def test_coherent_closed_form_matches_moment_evaluation():
    st = propagate(make_coherent(ALPHA0), FIG1, 0.3)
    grid = GridSpec.cover_state(st, nx=101, ny=101)
    closed = wigner_coherent_closed(ALPHA0, FIG1, 0.3, grid)
    ref = wigner_gaussian(st, grid)
    assert np.abs(closed.values - ref.values).max() < 1e-13


def test_convolution_matches_closed_form_for_coherent_input():
    coh = make_coherent(ALPHA0)
    st = propagate(coh, FIG1, 0.3)
    outer = GridSpec.cover_state(st, n_sigma=5.0, nx=41, ny=41)
    inner = GridSpec.cover_state(coh, n_sigma=8.0, nx=201, ny=201)
    conv = wigner_by_convolution(coh, FIG1, 0.3, outer, inner)
    closed = wigner_coherent_closed(ALPHA0, FIG1, 0.3, outer)
    assert np.abs(conv.values - closed.values).max() < 1e-12
    assert conv.integral() == pytest.approx(1.0, abs=1e-5)


def test_convolution_matches_moment_evaluation_for_squeezed_input():
    sq = make_squeezed(ALPHA0, squeeze_from_sigma2(0.1))
    st = propagate(sq, FIG1, 0.3)
    outer = GridSpec.cover_state(st, n_sigma=5.0, nx=41, ny=41)
    inner = GridSpec.cover_state(sq, n_sigma=8.0, nx=301, ny=301)
    conv = wigner_by_convolution(sq, FIG1, 0.3, outer, inner)
    ref = wigner_gaussian(st, outer)
    assert np.abs(conv.values - ref.values).max() < 1e-12


def test_convolution_is_the_propagator_sum_over_inner_nodes():
    # The oracle must stay the midpoint sum of the public propagator over the
    # inner nodes, however its kernel is evaluated.  At tau = 0.3, w0 tau =
    # 6 rad, so the contracted image of the inner grid is turned 16 degrees
    # off the axes; the inner grid is also off-centre, with unequal spacings.
    sq = make_squeezed(0.4 - 0.3j, squeeze_from_sigma2(0.3))
    tau = 0.3
    outer = GridSpec.cover_state(propagate(sq, FIG1, tau), n_sigma=4.0, nx=7, ny=5)
    cover = GridSpec.cover_state(sq, n_sigma=6.0)
    inner = GridSpec(cover.x_min - 0.3, cover.x_max + 0.1,
                     cover.y_min - 0.05, cover.y_max + 0.6, 15, 13)
    w0 = wigner_gaussian(sq, inner).values
    da = inner.dx * inner.dy
    nodes = [(complex(x0, y0), w0[a, b] * da)
             for a, x0 in enumerate(inner.x_coords())
             for b, y0 in enumerate(inner.y_coords())]
    ref = np.array([
        [sum(propagator(FIG1, tau, complex(x, y), a0) * w for a0, w in nodes)
         for y in outer.y_coords()]
        for x in outer.x_coords()
    ])
    conv = wigner_by_convolution(sq, FIG1, tau, outer, inner)
    assert np.abs(conv.values - ref).max() <= 1e-14 * np.abs(ref).max()


def _unblocked_convolution(state0, p, tau, grid, inner):
    """The kernel sum over all inner nodes at once, as two (n x inner nodes) arrays."""
    dg = delta_big_gamma(p, tau)
    c = math.exp(-0.5 * big_gamma(p, tau)) * complex(math.cos(p.omega0 * tau),
                                                     -math.sin(p.omega0 * tau))
    x0, y0 = inner.x_coords(), inner.y_coords()
    px = (c.real * x0[:, None] - c.imag * y0[None, :]).ravel()
    py = (c.imag * x0[:, None] + c.real * y0[None, :]).ravel()
    w = wigner_gaussian(state0, inner).values.ravel() * inner.dx * inner.dy / (math.pi * dg)
    ex = np.exp(-((grid.x_coords()[:, None] - px) ** 2) / dg) * w
    ey = np.exp(-((grid.y_coords()[:, None] - py) ** 2) / dg)
    return ex @ ey.T


@pytest.mark.parametrize("shape", [(1, 1), (1, _CONV_BLOCK - 1), (_CONV_BLOCK + 1, 1), (37, 29)])
def test_blocked_convolution_matches_the_unblocked_sum(shape):
    sq = make_squeezed(0.4 - 0.3j, squeeze_from_sigma2(0.3))
    tau = 0.3
    outer = GridSpec.cover_state(propagate(sq, FIG1, tau), n_sigma=4.0, nx=9, ny=7)
    inner = GridSpec.cover_state(sq, n_sigma=8.0, nx=shape[0], ny=shape[1])
    got = wigner_by_convolution(sq, FIG1, tau, outer, inner).values
    want = _unblocked_convolution(sq, FIG1, tau, outer, inner)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_convolution_input_validation():
    coh = make_coherent(ALPHA0)
    outer = GridSpec(-3.0, 3.0, -3.0, 3.0, 21, 21)
    narrow = GridSpec.cover_state(coh, n_sigma=4.0, nx=101, ny=101)
    with pytest.raises(ValueError, match="cover"):
        wigner_by_convolution(coh, FIG1, 0.3, outer, narrow)
    wide = GridSpec.cover_state(coh, n_sigma=8.0, nx=101, ny=101)
    with pytest.raises(ValueError):
        wigner_by_convolution(coh, FIG1, 0.0, outer, wide)


def test_peak_height_breathes_with_the_diffusion_transient():
    # the evolved-coherent width v = Delta_Gamma + e^-Gamma / 2 swells, then
    # recontracts during the negative-diffusion window, then swells again;
    # the peak height 1/(pi v) mirrors that sequence
    peaks = {}
    for tau in (0.15, 0.3, 0.45):
        st = propagate(make_coherent(ALPHA0), FIG1, tau)
        grid = GridSpec.cover_state(st, nx=121, ny=121)
        peaks[tau] = wigner_coherent_closed(ALPHA0, FIG1, tau, grid).values.max()
        v = delta_big_gamma(FIG1, tau) + 0.5 * math.exp(-big_gamma(FIG1, tau))
        assert peaks[tau] == pytest.approx(1.0 / (math.pi * v), rel=1e-3)
    assert peaks[0.3] > peaks[0.15]
    assert peaks[0.3] > peaks[0.45]

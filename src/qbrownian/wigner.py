"""Wigner functions on rectangular phase-space grids.

Grids live in alpha coordinates (alpha_x = x/sqrt(2), alpha_y = y/sqrt(2))
and are normalized so the midpoint-rule integral over d^2alpha is 1; the
vacuum then peaks at 2/pi.  Nodes sit at cell centers: the ``x_min``/``x_max``
extents are outer cell edges, so the midpoint rule is exact bookkeeping.

Three evaluation paths are provided and cross-checked in tests:
closed-form Gaussian evaluation from state moments, a closed form for evolved
coherent states, and a brute-force convolution of the initial Wigner function
with the channel's Gaussian propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import PhysicalParams, big_gamma, delta_big_gamma
from .gaussian import GaussianState

_SQRT2 = math.sqrt(2.0)

# Inner nodes per block of `wigner_by_convolution`'s kernel sum.
_CONV_BLOCK = 512


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid in alpha coordinates with cell-centered nodes."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError(f"grid extents must be increasing, got {self!r}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid point counts must be >= 1, got {self!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    def x_coords(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.dx

    def y_coords(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.dy

    @classmethod
    def cover_state(
        cls, state: GaussianState, n_sigma: float = 6.0, nx: int = 401, ny: int = 401
    ) -> "GridSpec":
        """Grid covering ``n_sigma`` marginal standard deviations of a state.

        The box is centred on the mean: each extent is the centre plus or
        minus a half-width, rounded once, so the extents' midpoint is within
        1 ulp of the larger extent of the mean.  `wigner_gaussian` counts
        such a grid as centred, and its values are then point-symmetric about
        the mean bit for bit: W[nx-1-i, ny-1-j] == W[i, j].

        Known limit: the box is axis-aligned, so it undersamples a strongly
        squeezed ellipse rotated off the axes, and the grid's mass is wrong.
        """
        cx, cy = (state.mean / _SQRT2).tolist()
        sx = math.sqrt(state.var_x / 2.0)
        sy = math.sqrt(state.var_y / 2.0)
        return cls(
            cx - n_sigma * sx, cx + n_sigma * sx,
            cy - n_sigma * sy, cy + n_sigma * sy,
            nx, ny,
        )


@dataclass(frozen=True)
class WignerGrid:
    """Wigner values sampled on a GridSpec; values[ix, iy] = W(x_i, y_j)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.spec.nx, self.spec.ny):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({self.spec.nx}, {self.spec.ny})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("Wigner values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def integral(self) -> float:
        """Midpoint-rule integral over the grid."""
        return float(self.values.sum() * self.spec.dx * self.spec.dy)


@dataclass(frozen=True)
class GridMoments:
    """Moments extracted from a grid, in quadrature coordinates."""

    norm: float
    mean: np.ndarray
    cov: np.ndarray


def grid_moments(grid: WignerGrid) -> GridMoments:
    """Zeroth/first/second moments of a grid by the midpoint rule.

    Means and covariances are converted from alpha to quadrature coordinates
    (x = sqrt(2) alpha_x), directly comparable with GaussianState fields.
    """
    w = grid.values
    x = grid.spec.x_coords()
    y = grid.spec.y_coords()
    da = grid.spec.dx * grid.spec.dy
    norm = float(w.sum() * da)
    mx = float((w * x[:, None]).sum() * da) / norm
    my = float((w * y[None, :]).sum() * da) / norm
    cxx = float((w * (x[:, None] - mx) ** 2).sum() * da) / norm
    cyy = float((w * (y[None, :] - my) ** 2).sum() * da) / norm
    cxy = float((w * (x[:, None] - mx) * (y[None, :] - my)).sum() * da) / norm
    mean_q = _SQRT2 * np.array([mx, my])
    cov_q = 2.0 * np.array([[cxx, cxy], [cxy, cyy]])
    return GridMoments(norm, mean_q, cov_q)


def _offsets(lo: float, hi: float, n: int, d: float, mean: float) -> np.ndarray:
    """Offsets from ``mean`` of the ``n`` cell-centred nodes of spacing ``d`` on [lo, hi].

    Node k sits at (k - (n-1)/2) d from the axis centre; a half-integer times
    d negates exactly, so these offsets are exactly antisymmetric.  The
    centre's own offset from the mean is added unless it is within 4 ulp of
    the larger extent, the rounding the node coordinates lo + (k+1/2) d carry
    anyway.
    """
    s = (np.arange(n) - 0.5 * (n - 1)) * d
    centre = 0.5 * (lo + hi) - mean
    if abs(centre) > 4.0 * math.ulp(max(abs(lo), abs(hi))):
        s += centre
    return s


def wigner_gaussian(state: GaussianState, grid: GridSpec) -> WignerGrid:
    """Wigner function of a Gaussian state evaluated on a grid.

    In alpha coordinates W(alpha) = exp(-u^T C^-1 u / 2) / (2 pi sqrt(det C))
    with C = cov/2 and u = alpha - mean/sqrt(2); equivalently the quadrature
    -coordinate density times the Jacobian factor 2, so that the integral over
    d^2alpha is 1.  Gaussian states give strictly positive values everywhere.

    u is measured from the grid's centre (see `_offsets`).  Where the centre
    lies within 4 ulp of the larger extent from the mean on both axes, as on
    every `GridSpec.cover_state` grid, u is exactly antisymmetric and the
    values are point-symmetric bit for bit: W[nx-1-i, ny-1-j] == W[i, j].
    Other grids add the centre's offset and agree with u taken at
    `x_coords`/`y_coords` to rounding.
    """
    det = state.det_cov()
    if det <= 0.0:
        raise ValueError(f"covariance is singular or indefinite: det = {det!r}")
    cov_a = state.cov / 2.0
    inv = np.linalg.inv(cov_a)
    pref = 1.0 / (2.0 * math.pi * math.sqrt(det / 4.0))
    mx, my = (state.mean / _SQRT2).tolist()
    ux = _offsets(grid.x_min, grid.x_max, grid.nx, grid.dx, mx)
    uy = _offsets(grid.y_min, grid.y_max, grid.ny, grid.dy, my)
    # Quadratic form expanded over the tensor grid.
    q = (
        inv[0, 0] * ux[:, None] ** 2
        + 2.0 * inv[0, 1] * ux[:, None] * uy[None, :]
        + inv[1, 1] * uy[None, :] ** 2
    )
    return WignerGrid(grid, pref * np.exp(-0.5 * q))


def _drift_factor(p: PhysicalParams, tau: float) -> complex:
    """Complex contraction e^(-Gamma/2) e^(-i w0 tau) applied to alpha_0."""
    return math.exp(-0.5 * big_gamma(p, tau)) * complex(
        math.cos(p.omega0 * tau), -math.sin(p.omega0 * tau)
    )


def propagator(
    p: PhysicalParams,
    tau: float,
    alpha: complex,
    alpha0: complex,
) -> float:
    """Phase-space propagator W_tau(alpha | alpha0) of the Gaussian channel.

    exp(-|alpha - c alpha0|^2 / Delta_Gamma) / (pi Delta_Gamma) with
    c = e^(-Gamma/2) e^(-i w0 tau); normalized to unit integral over
    d^2alpha.  At tau = 0 the propagator degenerates to a delta distribution
    and is rejected.
    """
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError(
            f"propagator requires tau > 0 (delta distribution at tau=0), got {tau!r}"
        )
    dg = delta_big_gamma(p, tau)
    if dg <= 0.0:
        raise ValueError(f"non-positive Delta_Gamma = {dg!r} is unphysical")
    b = complex(alpha) - _drift_factor(p, tau) * complex(alpha0)
    return math.exp(-(b.real * b.real + b.imag * b.imag) / dg) / (math.pi * dg)


def wigner_coherent_closed(
    alpha0: complex,
    p: PhysicalParams,
    tau: float,
    grid: GridSpec,
) -> WignerGrid:
    """Closed-form evolved Wigner function of an initial coherent state.

    An isotropic Gaussian of width v(tau) = Delta_Gamma + e^(-Gamma)/2
    centered on the damped, rotated displacement c(tau) alpha0:

        W(alpha) = exp(-|alpha - c alpha0|^2 / v) / (pi v)

    The e^(-Gamma) factor on the vacuum half of the width is required for
    consistency with the propagator convolution (the contraction acts on the
    initial spread too); at tau = 0 this reduces exactly to the coherent-state
    Wigner function with peak 2/pi.
    """
    tau = float(tau)
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    gt = big_gamma(p, tau)
    dg = delta_big_gamma(p, tau) if tau > 0.0 else 0.0
    v = dg + 0.5 * math.exp(-gt)
    center = _drift_factor(p, tau) * complex(alpha0)
    ux = grid.x_coords() - center.real
    uy = grid.y_coords() - center.imag
    vals = np.exp(-(ux[:, None] ** 2 + uy[None, :] ** 2) / v) / (math.pi * v)
    return WignerGrid(grid, vals)


def _kernel_factor(nodes: np.ndarray, centers: np.ndarray, dg: float) -> np.ndarray:
    """exp(-(node - center)^2 / dg) for every (node, center) pair, built in place."""
    f = np.subtract.outer(nodes, centers)
    np.square(f, out=f)
    f /= -dg
    return np.exp(f, out=f)


def wigner_by_convolution(
    state0: GaussianState,
    p: PhysicalParams,
    tau: float,
    grid: GridSpec,
    inner: GridSpec,
) -> WignerGrid:
    """Evolved Wigner function by brute-force propagator convolution.

    W_tau(alpha) = integral d^2alpha0 W_tau(alpha | alpha0) W_0(alpha0),
    evaluated by tensor-product midpoint quadrature on the ``inner`` grid.
    This is the oracle path against closed-form evaluation; it shares no
    algebra with `wigner_gaussian` beyond the initial-state values.

    The propagator is an isotropic Gaussian, so its kernel separates:
    with p = c alpha0 the image of an inner node,

        exp(-|alpha - p|^2 / Delta_Gamma)
            = exp(-(x - p_x)^2 / Delta_Gamma) exp(-(y - p_y)^2 / Delta_Gamma).

    The x factor for every (outer x, inner node) pair, times the quadrature
    weights, and the y factor for every (outer y, inner node) pair are two
    arrays of nx and ny rows by one column per inner node, and the sum over
    inner nodes is their matrix product.  The product is accumulated over
    blocks of _CONV_BLOCK inner nodes, so the kernel takes two such arrays
    of _CONV_BLOCK columns, 0.7 MB at 81 outer points per axis, however many
    inner nodes there are; the inner grid itself is held as a few arrays of
    one value per node.  Both factors are <= 1, so nothing overflows.

    The inner grid must cover at least 6 marginal standard deviations of the
    initial state, otherwise the quadrature misses initial-state mass.
    """
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError(
            f"convolution requires tau > 0 (delta propagator at tau=0), got {tau!r}"
        )
    cover = GridSpec.cover_state(state0, n_sigma=6.0)
    if (
        inner.x_min > cover.x_min or inner.x_max < cover.x_max
        or inner.y_min > cover.y_min or inner.y_max < cover.y_max
    ):
        raise ValueError(
            "inner grid does not cover 6 standard deviations of the initial state"
        )

    dg = delta_big_gamma(p, tau)
    if dg <= 0.0:
        raise ValueError(f"non-positive Delta_Gamma = {dg!r} is unphysical")
    c = _drift_factor(p, tau)

    w0 = wigner_gaussian(state0, inner)
    # Images of the inner nodes under the contraction alpha0 -> c alpha0.
    x0 = inner.x_coords()
    y0 = inner.y_coords()
    px = (c.real * x0[:, None] - c.imag * y0[None, :]).ravel()
    py = (c.imag * x0[:, None] + c.real * y0[None, :]).ravel()
    weights = w0.values.ravel() * inner.dx * inner.dy / (math.pi * dg)

    # The separable kernel, block by block; the weights go into the x factor.
    xs, ys = grid.x_coords(), grid.y_coords()
    values = np.zeros((grid.nx, grid.ny))
    for k in range(0, weights.size, _CONV_BLOCK):
        block = slice(k, k + _CONV_BLOCK)
        ex = _kernel_factor(xs, px[block], dg)
        ex *= weights[block]
        values += ex @ _kernel_factor(ys, py[block], dg).T
    return WignerGrid(grid, values)

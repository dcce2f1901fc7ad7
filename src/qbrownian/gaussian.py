"""Gaussian phase-space states and their exact propagation.

States are described by the means and covariances of the dimensionless
quadratures x = (a + a^dag)/sqrt(2), y = -i(a - a^dag)/sqrt(2).  The channel
acts on the characteristic function as

    chi_tau(xi) = exp(-Delta_Gamma(tau) |xi|^2) * chi_0(e^(-Gamma/2) e^(-i w0 tau) xi)

In the frame corotating with the oscillator, where the free rotation
e^(-i w0 tau) is undone, it contracts the state and adds isotropic noise:

    mean(tau) = e^(-Gamma/2) mean(0),   cov(tau) = e^(-Gamma) cov(0) + Delta_Gamma * I

`_channel` applies this law on a time grid.  The lab frame is one rotation
R(-w0 tau) of its result, applied where a lab state leaves this module: the
state `propagate` returns (unless asked for the corotating one) and the
moments `evolve_trajectory` stores.
Corotating moments (`Trajectory.variances`/`means`, squeezing intervals)
evaluate the law itself; the uncertainty bound and <n>, both rotation
invariants, are taken on them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .coefficients import (CoefficientGrid, PhysicalParams, _delta_gamma, _negative_runs,
                           closed_forms, coefficient_grid)

# Tolerance slack on the uncertainty bound det(cov) >= 1/4.
PHYSICALITY_TOL = 1e-9

# Variance threshold below which a quadrature counts as squeezed (vacuum = 1/2,
# exactly 1/2 counts as non-squeezed).
SQUEEZING_THRESHOLD = 0.5


def _rotate(mean: np.ndarray, cov: np.ndarray, theta) -> tuple[np.ndarray, np.ndarray]:
    """R(theta) mean and R(theta) cov R(theta)^T, R the counterclockwise rotation.

    Works on one state (mean (2,), cov (2, 2), scalar theta) or on stacks
    (mean (n, 2), cov (n, 2, 2), theta (n,)).  Only the upper triangle of
    ``cov`` is read, and the result is symmetric by construction.
    """
    c, s = np.cos(theta), np.sin(theta)
    mx, my = mean[..., 0], mean[..., 1]
    a, b, d = cov[..., 0, 0], cov[..., 0, 1], cov[..., 1, 1]
    cc, ss, cs = c * c, s * s, c * s
    xx = cc * a - 2.0 * cs * b + ss * d
    yy = ss * a + 2.0 * cs * b + cc * d
    xy = cs * (a - d) + (cc - ss) * b
    rmean = np.stack([c * mx - s * my, s * mx + c * my], axis=-1)
    rcov = np.stack([np.stack([xx, xy], axis=-1), np.stack([xy, yy], axis=-1)], axis=-2)
    return rmean, rcov


def _det(cov: np.ndarray) -> np.ndarray:
    return cov[..., 0, 0] * cov[..., 1, 1] - cov[..., 0, 1] ** 2


def _quanta(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """<n> = [var_x + var_y + <x>^2 + <y>^2 - 1]/2, elementwise over stacks."""
    mx, my = mean[..., 0], mean[..., 1]
    return 0.5 * (cov[..., 0, 0] + cov[..., 1, 1] + mx * mx + my * my - 1.0)


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and 2x2 covariance matrix of a Gaussian state.

    ``mean`` is (<x>, <y>); ``cov`` is [[var_x, cov_xy], [cov_xy, var_y]].
    Construction enforces symmetry and positive variances only; the
    uncertainty bound det(cov) >= 1/4 is checked by `is_physical` and by the
    operations whose contracts require a physical state, so that deliberately
    unphysical covariances remain constructible for testing.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(2).copy()
        cov = np.asarray(self.cov, dtype=float).reshape(2, 2).copy()
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("state moments must be finite")
        if abs(cov[0, 1] - cov[1, 0]) > 1e-12 * max(1.0, abs(cov[0, 1])):
            raise ValueError(f"covariance must be symmetric, got {cov!r}")
        if cov[0, 0] <= 0.0 or cov[1, 1] <= 0.0:
            raise ValueError(f"variances must be positive, got {cov!r}")
        cov[0, 1] = cov[1, 0] = 0.5 * (cov[0, 1] + cov[1, 0])
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def var_x(self) -> float:
        return float(self.cov[0, 0])

    @property
    def var_y(self) -> float:
        return float(self.cov[1, 1])

    @property
    def cov_xy(self) -> float:
        return float(self.cov[0, 1])

    def det_cov(self) -> float:
        return float(_det(self.cov))

    def is_physical(self) -> bool:
        """Uncertainty bound det(cov) >= 1/4 within `PHYSICALITY_TOL`."""
        return self.det_cov() >= 0.25 - PHYSICALITY_TOL

    def rotated(self, theta: float) -> "GaussianState":
        """State with phase space rotated by ``theta`` (counterclockwise)."""
        return GaussianState(*_rotate(self.mean, self.cov, theta))


def make_coherent(alpha0: complex) -> GaussianState:
    """Coherent state |alpha0>: displaced vacuum, isotropic covariance 1/2."""
    alpha0 = complex(alpha0)
    mean = np.array([math.sqrt(2.0) * alpha0.real, math.sqrt(2.0) * alpha0.imag])
    return GaussianState(mean, 0.5 * np.eye(2))


def make_squeezed(alpha0: complex, s: float, phi: float = 0.0) -> GaussianState:
    """Displaced squeezed state with squeeze magnitude ``s`` and angle ``phi``.

    For phi = 0 the covariance is diag(e^(-2s)/2, e^(2s)/2): the x quadrature
    is squeezed.  General phi rotates that covariance by phi/2.
    """
    if s < 0.0:
        raise ValueError(f"squeeze magnitude must be >= 0, got {s!r}")
    alpha0 = complex(alpha0)
    mean = np.array([math.sqrt(2.0) * alpha0.real, math.sqrt(2.0) * alpha0.imag])
    cov0 = np.diag([0.5 * math.exp(-2.0 * s), 0.5 * math.exp(2.0 * s)])
    return GaussianState(mean, _rotate(mean, cov0, 0.5 * phi)[1])


def squeeze_from_sigma2(sigma2: float) -> float:
    """Squeeze magnitude s such that the squeezed variance is sigma2/2.

    sigma2 = e^(-2s) is the squeezed-variance ratio to vacuum; sigma2 < 1
    squeezes and sigma2 = 1 is the vacuum.  sigma2 > 1 gives s < 0, which
    `make_squeezed` refuses.
    """
    if sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2!r}")
    return -0.5 * math.log(sigma2)


def _channel(state0: GaussianState, coeffs: CoefficientGrid) -> tuple[np.ndarray, np.ndarray]:
    """Corotating means (n, 2) and covariances (n, 2, 2) at the grid's times.

    mean = e^(-Gamma/2) mean0, cov = e^(-Gamma) cov0 + Delta_Gamma I.
    """
    decay = np.exp(-coeffs.big_gamma)
    mean = np.sqrt(decay)[:, None] * state0.mean
    cov = decay[:, None, None] * state0.cov + coeffs.delta_gamma[:, None, None] * np.eye(2)
    return mean, cov


def _check_frame(frame: str) -> str:
    if frame not in ("lab", "corotating"):
        raise ValueError(f"frame must be 'lab' or 'corotating', got {frame!r}")
    return frame


def propagate(
    state0: GaussianState, p: PhysicalParams, tau: float, frame: str = "lab"
) -> GaussianState:
    """Evolve a Gaussian state to time ``tau``, single shot.

    ``frame`` is "lab" or "corotating" (the channel law itself, without the
    final rotation R(-w0 tau)).  The coefficients are closed forms; a
    coupling above the Delta_Gamma series' cap raises IntegrationError.
    """
    tau = float(tau)
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    coeffs = coefficient_grid(p, [tau])
    mean, cov = _channel(state0, coeffs)
    if _check_frame(frame) == "lab":
        mean, cov = _rotate(mean, cov, -p.omega0 * coeffs.tau)
    return GaussianState(mean[0], cov[0])


def mean_quanta(state: GaussianState) -> float:
    """Mean excitation number <n> = [var_x + var_y + <x>^2 + <y>^2 - 1]/2."""
    if not state.is_physical():
        raise ValueError(
            f"state is unphysical: det(cov) = {state.det_cov()!r} < 1/4"
        )
    return float(_quanta(state.mean, state.cov))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled evolution of a Gaussian state (lab frame), as arrays.

    At ``times[k]`` the state has mean ``mean[k]`` (shape (n, 2) overall) and
    covariance ``cov[k]`` (shape (n, 2, 2)), mean quantum number
    ``n_mean[k]``, and coefficient values ``coeffs.<column>[k]``; `state`
    returns it as a `GaussianState`.  ``times`` starts at 0, where the frames
    coincide, so corotating moments follow from the first state and
    ``coeffs``; ``params`` records the model.  The arrays are read-only.
    """

    times: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    n_mean: np.ndarray
    coeffs: CoefficientGrid
    params: PhysicalParams

    def __post_init__(self) -> None:
        n = len(self.times)
        for name, shape in (("times", (n,)), ("mean", (n, 2)), ("cov", (n, 2, 2)),
                            ("n_mean", (n,))):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"trajectory {name} has shape {arr.shape}, expected {shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if len(self.coeffs) != n:
            raise ValueError("trajectory field lengths differ")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        if not (n and self.times[0] == 0.0):
            raise ValueError("trajectory times must start at 0")

    def state(self, k: int) -> GaussianState:
        """The state at ``times[k]`` (lab frame)."""
        return GaussianState(self.mean[k], self.cov[k])

    def _in_frame(self, frame: str) -> tuple[np.ndarray, np.ndarray]:
        if _check_frame(frame) == "lab":
            return self.mean, self.cov
        return _channel(self.state(0), self.coeffs)

    def variances(self, frame: str = "lab") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(var_x, var_y, cov_xy) arrays in the requested frame.

        ``frame`` is "lab" (as propagated) or "corotating" (free rotation
        e^(-i w0 tau) undone; the frame in which squeezing is defined).
        """
        _, cov = self._in_frame(frame)
        return cov[:, 0, 0], cov[:, 1, 1], cov[:, 0, 1]

    def means(self, frame: str = "lab") -> tuple[np.ndarray, np.ndarray]:
        """(mean_x, mean_y) arrays in the requested frame."""
        mean, _ = self._in_frame(frame)
        return mean[:, 0], mean[:, 1]


def evolve_trajectory(
    state0: GaussianState,
    p: PhysicalParams,
    tau_max: float,
    n_steps: int,
) -> Trajectory:
    """Propagate on a uniform grid of ``n_steps`` points over [0, tau_max].

    Each state equals a single-shot `propagate` to the same time bit for bit:
    every coefficient comes from its own time alone.  Raises ValueError if
    some state violates the uncertainty bound det(cov) >= 1/4 beyond
    `PHYSICALITY_TOL`.
    """
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps!r}")
    if not (tau_max > 0.0 and math.isfinite(tau_max)):
        raise ValueError(f"tau_max must be finite and > 0, got {tau_max!r}")
    times = np.linspace(0.0, tau_max, n_steps)
    coeffs = coefficient_grid(p, times)
    mean, cov = _channel(state0, coeffs)
    physical = (_det(cov) >= 0.25 - PHYSICALITY_TOL) & (cov[:, 0, 0] > 0.0)
    if not physical.all():
        k = int(np.argmin(physical))
        raise ValueError(
            f"state at tau={float(times[k])!r} is unphysical: det(cov) = {float(_det(cov[k]))!r}"
        )
    n_mean = _quanta(mean, cov)
    return Trajectory(times, *_rotate(mean, cov, -p.omega0 * times), n_mean, coeffs, p)


def detect_squeezing_intervals(
    traj: Trajectory, quadrature_axis: str = "x"
) -> list[tuple[float, float]]:
    """Intervals of tau where the chosen corotating variance drops below 1/2.

    A variance exactly at 1/2 counts as non-squeezed.  Variances are taken in
    the corotating frame, where squeezing is meaningful: in the lab frame the
    free rotation shuffles the squeezed axis continuously.  Each crossing
    between grid samples is refined on the law e^(-Gamma) v0 + Delta_Gamma by
    `_negative_runs` to the first double past it, so the ends do not depend
    on the grid; a dip that starts and ends between two samples is missed.
    """
    if quadrature_axis not in ("x", "y"):
        raise ValueError(f"quadrature_axis must be 'x' or 'y', got {quadrature_axis!r}")
    k = 0 if quadrature_axis == "x" else 1
    v0, p = traj.cov[0, k, k], traj.params

    def squeezed(x: np.ndarray) -> np.ndarray:
        dg = _delta_gamma(p, x.ravel()).reshape(x.shape)
        return np.exp(-closed_forms(p, x)[2]) * v0 + dg < SQUEEZING_THRESHOLD

    below = traj.variances("corotating")[k] < SQUEEZING_THRESHOLD
    return _negative_runs(squeezed, traj.times, below)


def oscillation_period(samples: np.ndarray | Iterable[Sequence[float]]) -> float | None:
    """Mean spacing of downward zero crossings of a detrended signal.

    ``samples`` is an (n, 2) array or an iterable of (tau, value) pairs.  The
    trend is a moving average with time window equal to one-third of the
    sampled span.  Crossings (detrended value passing from > 0 to <= 0) are
    located by linear interpolation, and only count once the detrended signal
    has risen above a small fraction of its own amplitude since the previous
    crossing — without that hysteresis, trend-dominated signals (e.g.
    monotone ramps) register their floating-point ripple as oscillations.
    Returns None when fewer than two crossings are found.
    """
    pts = np.asarray(samples if isinstance(samples, np.ndarray) else list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (tau, value) samples")
    t = pts[:, 0]
    v = pts[:, 1]
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("sample times must be strictly increasing")

    window = (t[-1] - t[0]) / 3.0
    half = 0.5 * window
    # Boxcar average over the time window [t_i - half, t_i + half] using
    # prefix sums; near the edges the window is clipped to the sampled span.
    csum = np.concatenate([[0.0], np.cumsum(v)])
    lo = np.searchsorted(t, t - half, side="left")
    hi = np.searchsorted(t, t + half, side="right")
    trend = (csum[hi] - csum[lo]) / (hi - lo)
    d = v - trend

    eps = 1e-9 * float(np.max(np.abs(d)))
    # Downward crossing i counts iff some d_j > eps with j in (previous
    # downward crossing, i], whether or not that previous one counted.
    i = np.flatnonzero((d[:-1] > 0.0) & (d[1:] <= 0.0))
    risen = np.cumsum(d > eps)[i]
    i = i[risen > np.concatenate(([0], risen[:-1]))]
    if len(i) < 2:
        return None
    # Linear interpolation for the zero of d on [t_i, t_i+1].
    frac = d[i] / (d[i] - d[i + 1])
    crossings = t[i] + frac * (t[i + 1] - t[i])
    return float((crossings[-1] - crossings[0]) / (len(crossings) - 1))

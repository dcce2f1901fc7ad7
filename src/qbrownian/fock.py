"""Brute-force master-equation integrator in a truncated number basis.

This is the test oracle: it integrates

    drho/dtau = (Delta+gamma)/2 * [2 a rho a^dag - {a^dag a, rho}]
              + (Delta-gamma)/2 * [2 a^dag rho a - {a a^dag, rho}]

with the time-dependent coefficients sampled at the Runge-Kutta substep
times, entirely independently of the Gaussian-channel solution.  There is no
Hamiltonian commutator: the equation lives in the frame corotating with the
oscillator, so moments computed from rho are corotating-frame moments and the
e^(-i w0 tau) rotation must be applied separately when lab-frame means are
wanted.

The equation couples rho[i, j] only to rho[i-1, j-1] and rho[i+1, j+1], so
every diagonal band j - i = d evolves on its own, and rho stays Hermitian.
The integrator therefore evolves only the bands d >= 0, packed band after
band into one vector of dim (dim + 1) / 2 entries, and rebuilds the full
matrix at recorded samples; `me_rhs` applies the same packed right-hand side
and returns the full matrix.

Fixed-step classical RK4 is used on purpose (reproducibility over speed);
the guidance dt <= 1e-3 * min(1, r) keeps it comfortably inside the
stability region for the default parameter ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import PhysicalParams, closed_forms
from .quadrature import IntegrationError
from .wigner import GridSpec, WignerGrid

# Abort threshold on per-step trace drift (renormalized away each step).
TRACE_DRIFT_ABORT = 1e-6

# Most negative eigenvalue tolerated at recorded samples (truncation leakage).
NEGATIVITY_TOL = 1e-7


@dataclass(frozen=True)
class FockState:
    """Density matrix truncated to the lowest ``dim`` number states."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"rho must be a square matrix, got shape {rho.shape}")
        if np.abs(rho - rho.conj().T).max() > 1e-12:
            raise ValueError("rho must be Hermitian within 1e-12")
        tr = rho.trace().real
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"rho must have unit trace within 1e-9, got {tr!r}")
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho)[0])


def annihilation(dim: int) -> np.ndarray:
    """Ladder operator a with a|n> = sqrt(n)|n-1>, truncated to dim x dim."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def make_vacuum(dim: int) -> FockState:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return FockState(rho)


def make_number_state(n: int, dim: int) -> FockState:
    if not 0 <= n < dim:
        raise ValueError(f"need 0 <= n < dim, got n={n!r}, dim={dim!r}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return FockState(rho)


def make_coherent_fock(alpha: complex, dim: int) -> FockState:
    """Coherent state |alpha><alpha| in the truncated basis (renormalized)."""
    alpha = complex(alpha)
    psi = np.empty(dim, dtype=complex)
    psi[0] = 1.0
    for n in range(1, dim):
        psi[n] = psi[n - 1] * alpha / math.sqrt(n)
    psi *= math.exp(-0.5 * abs(alpha) ** 2)
    psi /= math.sqrt(float(np.vdot(psi, psi).real))
    return FockState(np.outer(psi, psi.conj()))


def make_squeezed_fock(s: float, dim: int) -> FockState:
    """Squeezed vacuum from the truncated squeeze operator exp((s/2)(a^2 - a^dag^2)).

    For phi = 0 this squeezes the x quadrature: (Dx)^2 = e^(-2s)/2.
    The generator G is real antisymmetric, so iG is Hermitian and
    exp(G) = V exp(-i lambda) V^dag from its eigenpairs (lambda, V).
    Truncation artifacts concentrate near n = dim, so dim must comfortably
    exceed the significant number-state support.
    """
    if s < 0.0:
        raise ValueError(f"squeeze magnitude must be >= 0, got {s!r}")
    a = annihilation(dim)
    lam, vec = np.linalg.eigh(0.5j * s * (a @ a - a.conj().T @ a.conj().T))
    psi = vec @ (np.exp(-1j * lam) * vec[0].conj())
    psi /= math.sqrt(float(np.vdot(psi, psi).real))
    return FockState(np.outer(psi, psi.conj()))


class _RhsWork:
    """The master-equation right-hand side on the upper diagonal bands of rho.

    The equation maps rho[i, i+d] only to rho[i-1, i+d-1], rho[i, i+d] and
    rho[i+1, i+d+1], so each band d >= 0 evolves on its own, and Hermiticity
    gives the bands below the diagonal.  The bands d = 0, 1, ..., dim-1 are
    packed one after another into a flat vector of dim (dim + 1) / 2 entries.
    Neighbours in a band are neighbours in the vector, and the shift weights
    are zero at the band ends, so the shifted terms never mix two bands.

    A packed vector v lives in a buffer [0, v, 0], so that `_neighbours`
    can view it as the rows (v[k-1], v[k], v[k+1]) that the weight rows
    (down, diagonal, up) multiply.
    """

    def __init__(self, dim: int) -> None:
        lengths = np.arange(dim, 0, -1)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        self.dim = dim
        self.size = dim * (dim + 1) // 2
        self.rows = np.arange(self.size) - starts
        self.cols = self.rows + np.repeat(np.arange(dim), lengths)
        i = self.rows.astype(float)
        j = self.cols.astype(float)
        self.n_sum = i + j
        # Both jumps move along the band with weight sqrt(i+1) sqrt(j+1):
        # a rho a^dag gives out[i, j] from rho[i+1, j+1] (none past the band
        # end j = dim-1), a^dag rho a gives out[i, j] from rho[i-1, j-1]
        # (none before the band start i = 0, where sqrt(i) = 0).
        self.up = np.where(self.cols < dim - 1, np.sqrt(i + 1.0) * np.sqrt(j + 1.0), 0.0)
        self.down = np.sqrt(i) * np.sqrt(j)

    def pack(self, rho: np.ndarray) -> np.ndarray:
        """Buffer [0, upper bands of the Hermitian part of ``rho``, 0]."""
        rho = np.asarray(rho, dtype=complex)
        buf = np.zeros(self.size + 2, dtype=complex)
        buf[1:-1] = (0.5 * (rho + rho.conj().T))[self.rows, self.cols]
        return buf

    def unpack(self, v: np.ndarray) -> np.ndarray:
        """The Hermitian dim x dim matrix whose upper bands are ``v``."""
        rho = np.empty((self.dim, self.dim), dtype=complex)
        rho[self.cols, self.rows] = v.conj()
        rho[self.rows, self.cols] = v
        return rho

    def weights(self, delta, gamma, out: np.ndarray) -> None:
        """Weight rows (down, diagonal, up) into the (3, size) array ``out``.

        With (m, 1) columns of ``delta`` and ``gamma``, m weight sets go into
        an (m, 3, size) ``out`` at once.
        """
        down, diag, up = out[..., 0, :], out[..., 1, :], out[..., 2, :]
        # The anticommutator terms of both jumps add up to
        # -(Delta (n_i + n_j) + Delta - gamma) rho[i, j].
        np.multiply(self.n_sum, -delta, out=diag)
        np.subtract(diag, delta - gamma, out=diag)
        np.multiply(self.down, delta - gamma, out=down)
        np.multiply(self.up, delta + gamma, out=up)

    @staticmethod
    def apply(w: np.ndarray, nbrs: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
        """out = drho/dtau on the packed bands whose `_neighbours` are ``nbrs``."""
        np.multiply(w, nbrs, out=tmp)
        np.add(tmp[1], tmp[2], out=out)
        out += tmp[0]


def _neighbours(buf: np.ndarray) -> np.ndarray:
    """Rows (v[k-1], v[k], v[k+1]) of v = buf[1:-1], a view that follows ``buf``."""
    return sliding_window_view(buf, buf.size - 2)


def me_rhs(state: FockState, delta: float, gamma: float) -> np.ndarray:
    """Right-hand side drho/dtau for given instantaneous coefficient values.

    Hermiticity-preserving, and trace-free except for leakage out of the top
    basis level (the upward transition out of n = dim-1 has nowhere to go, so
    population there drains trace at rate ~ dim * rho[-1, -1]).  That loss is
    the truncation-error signal that integrate_me watches via trace drift.
    Implies the moment equation d<n>/dtau = -2 gamma <n> + (Delta - gamma).
    The full dim x dim matrix is returned.
    """
    if not (math.isfinite(delta) and math.isfinite(gamma)):
        raise ValueError(f"coefficients must be finite, got {delta!r}, {gamma!r}")
    work = _RhsWork(state.dim)
    w = np.empty((3, work.size))
    work.weights(delta, gamma, w)
    out = np.empty(work.size, dtype=complex)
    tmp = np.empty((3, work.size), dtype=complex)
    work.apply(w, _neighbours(work.pack(state.rho)), out, tmp)
    return work.unpack(out)


def _moments(rho: np.ndarray) -> tuple[float, float, float, float, float]:
    """(n_mean, var_x, var_y, mean_x, mean_y) from a density matrix.

    Corotating frame: x = (a + a^dag)/sqrt(2), y = -i(a - a^dag)/sqrt(2).
    """
    dim = rho.shape[0]
    n = np.arange(dim, dtype=float)
    n_mean = float((rho.diagonal().real * n).sum())
    root1 = np.sqrt(n[1:])  # sqrt(n) for n = 1..dim-1
    a_mean = complex((root1 * rho.diagonal(-1)).sum())
    root2 = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) if dim > 2 else np.array([])
    a2_mean = complex((root2 * rho.diagonal(-2)).sum()) if dim > 2 else 0.0
    mean_x = math.sqrt(2.0) * a_mean.real
    mean_y = math.sqrt(2.0) * a_mean.imag
    x2 = a2_mean.real + n_mean + 0.5
    y2 = -a2_mean.real + n_mean + 0.5
    return n_mean, x2 - mean_x**2, y2 - mean_y**2, mean_x, mean_y


@dataclass(frozen=True)
class FockTrajectory:
    """Recorded samples of a master-equation integration (corotating frame)."""

    times: np.ndarray
    states: list[FockState]
    n_mean: np.ndarray
    var_x: np.ndarray
    var_y: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    max_trace_drift: float


def integrate_me(
    state0: FockState,
    p: PhysicalParams,
    tau_max: float,
    dt: float | None = None,
    n_record: int = 101,
) -> FockTrajectory:
    """Integrate the master equation by fixed-step RK4.

    Coefficients are sampled at the substep times (t, t+dt/2, t+dt), those
    of one recording interval in a single `closed_forms` call.  Only the
    upper diagonal bands of rho are integrated (see `_RhsWork`), packed into
    one vector of dim (dim + 1) / 2 entries; the stage inputs and the four
    slopes live in buffers allocated once, and the full Hermitian matrix is
    rebuilt only at recorded samples, so the states are exactly Hermitian.
    The state starts from the Hermitian part of ``state0.rho``.  The trace
    is renormalized every step; per-step drift beyond 1e-6 aborts, and
    eigenvalue negativity beyond 1e-7 at a recorded sample aborts.  ``dt``
    defaults to 1e-3 * min(1, r) and is rounded down so records land exactly
    on integration steps.
    """
    if not (tau_max > 0.0 and math.isfinite(tau_max)):
        raise ValueError(f"tau_max must be finite and > 0, got {tau_max!r}")
    if n_record < 2:
        raise ValueError(f"n_record must be >= 2, got {n_record!r}")
    if dt is None:
        dt = 1e-3 * min(1.0, p.r)
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")

    # Integer number of steps per recording interval.
    rec_dt = tau_max / (n_record - 1)
    steps_per_rec = max(1, math.ceil(rec_dt / dt))
    h = rec_dt / steps_per_rec

    dim = state0.dim
    work = _RhsWork(dim)
    v_buf = work.pack(state0.rho)
    y_buf = np.zeros_like(v_buf)  # stage inputs
    v, y = v_buf[1:-1], y_buf[1:-1]
    v_nbrs, y_nbrs = _neighbours(v_buf), _neighbours(y_buf)
    k1, k2, k3, k4 = np.empty((4, work.size), dtype=complex)
    tmp = np.empty((3, work.size), dtype=complex)
    # Weights at the start, middle and end of a step.
    w_step = np.empty((3, 3, work.size))
    w0, wm, w1 = w_step

    times = np.linspace(0.0, tau_max, n_record)
    states: list[FockState] = []
    n_mean = np.empty(n_record)
    var_x = np.empty(n_record)
    var_y = np.empty(n_record)
    mean_x = np.empty(n_record)
    mean_y = np.empty(n_record)
    max_drift = 0.0

    def record(k: int) -> None:
        state = FockState(work.unpack(v))
        low = state.min_eigenvalue()
        if low < -NEGATIVITY_TOL:
            raise IntegrationError(
                f"density matrix negativity {low:.3e} at tau={float(times[k])!r} "
                f"exceeds tolerance {NEGATIVITY_TOL:.1e}; increase the truncation "
                f"dimension"
            )
        states.append(state)
        n_mean[k], var_x[k], var_y[k], mean_x[k], mean_y[k] = _moments(state.rho)

    record(0)
    for k in range(1, n_record):
        t0s = times[k - 1] + np.arange(steps_per_rec) * h
        substeps = np.stack([t0s, t0s + 0.5 * h, t0s + h])
        deltas, gammas, _ = closed_forms(p, substeps)
        for t1, d, g in zip(substeps[2].tolist(), deltas.T[:, :, None], gammas.T[:, :, None]):
            work.weights(d, g, w_step)
            work.apply(w0, v_nbrs, k1, tmp)
            np.multiply(k1, 0.5 * h, out=y)
            y += v
            work.apply(wm, y_nbrs, k2, tmp)
            np.multiply(k2, 0.5 * h, out=y)
            y += v
            work.apply(wm, y_nbrs, k3, tmp)
            np.multiply(k3, h, out=y)
            y += v
            work.apply(w1, y_nbrs, k4, tmp)
            # v += h/6 (k1 + 2 (k2 + k3) + k4)
            k2 += k3
            k2 *= 2.0
            k2 += k1
            k2 += k4
            k2 *= h / 6.0
            v += k2
            # Band 0 holds the diagonal.
            tr = v[:dim].sum().real
            drift = abs(tr - 1.0)
            if drift > TRACE_DRIFT_ABORT:
                raise IntegrationError(
                    f"trace drift {drift:.3e} at tau={float(t1)!r} exceeds "
                    f"{TRACE_DRIFT_ABORT:.1e} (dt={h!r} too large or truncation too small)"
                )
            max_drift = max(max_drift, drift)
            v /= tr
        record(k)

    return FockTrajectory(
        times, states, n_mean, var_x, var_y, mean_x, mean_y, max_drift
    )


def fock_to_wigner(state: FockState, grid: GridSpec) -> WignerGrid:
    """Wigner function of a number-basis density matrix on a grid.

    Uses the displaced-parity expansion W(alpha) = (2/pi) Tr[rho D(2 alpha) P],
    summed diagonal band by diagonal band.  Within the band m - n = d >= 0,
    <n+d|D(beta)|n> = s_d P_n(x) with x = |beta|^2, the complex seed
    s_d = e^(-x/2) beta^d / sqrt(d!) and real P_n from P_0 = 1 and

        k_n P_{n+1} = (2n+d+1-x) P_n - k_{n-1} P_{n-1},   k_n = sqrt((n+1)(n+d+1)).

    Clenshaw's backward recurrence (1955) sums the band: with c_n =
    (-1)^n rho[n, n+d], b = 0 past the band end and b_n = c_n +
    (2n+d+1-x)/k_n b_{n+1} - (k_n/k_{n+1}) b_{n+2}, the sum is s_d b_0.  The
    b_n grow like P_n (about x^n/n! past x ~ 4n) while s_d P_n stays O(1), so
    where e^(-x/2) underflows, and every seed is 0, the sums run at x = 0.
    With <n|D|m> = (-1)^(m-n) conj(<m|D|n>) and rho Hermitian the bands
    combine as A_0 + 2 Re A_d.  Normalization matches the grid convention
    (vacuum peak 2/pi, unit integral over d^2alpha).
    """
    dim = state.dim
    beta = 2.0 * (grid.x_coords()[:, None] + 1j * grid.y_coords()[None, :]).ravel()
    x = np.abs(beta) ** 2
    seed = np.exp(-0.5 * x).astype(complex)  # s_0
    x[seed == 0.0] = 0.0
    n = np.arange(dim + 1.0)
    total = np.zeros(beta.size)
    for d in range(dim):
        if d > 0:
            seed = seed * beta / math.sqrt(d)  # e^(-x/2) beta^d / sqrt(d!)
        c = (-1.0) ** n[: dim - d] * state.rho.diagonal(d)
        k = np.sqrt((n[: dim - d + 1] + 1.0) * (n[: dim - d + 1] + d + 1.0))
        b1 = b2 = 0.0  # b_{m+1}, b_{m+2}
        for m in range(dim - d - 1, -1, -1):
            b1, b2 = c[m] + (2.0 * m + d + 1.0 - x) / k[m] * b1 - k[m] / k[m + 1] * b2, b1
        total += (1.0 if d == 0 else 2.0) * (seed * b1).real
    return WignerGrid(grid, (2.0 / math.pi) * total.reshape(grid.nx, grid.ny))

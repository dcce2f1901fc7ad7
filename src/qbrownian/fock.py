"""Brute-force master-equation integrator in a truncated number basis.

This is the test oracle: it integrates

    drho/dtau = (Delta+gamma)/2 * [2 a rho a^dag - {a^dag a, rho}]
              + (Delta-gamma)/2 * [2 a^dag rho a - {a a^dag, rho}]
              = Delta L_Delta rho + gamma L_gamma rho

(L_Delta, L_gamma = D[a] +/- D[a^dag], D[L] rho = L rho L^dag - {L^dag L, rho}/2)
with the time-dependent coefficients sampled at the integrator's substep
times, entirely independently of the Gaussian-channel solution.  There is no
Hamiltonian commutator: the equation lives in the frame corotating with the
oscillator, so moments computed from rho are corotating-frame moments and the
e^(-i w0 tau) rotation must be applied separately when lab-frame means are
wanted.

The equation couples rho[i, j] only to rho[i-1, j-1] and rho[i+1, j+1], so
every diagonal band j - i = d evolves on its own, and rho stays Hermitian;
a band that starts at 0 stays exactly 0, and the generator is real, so a real
rho stays real.  The integrator therefore evolves only the bands d >= 0 that
the initial state occupies, in real arithmetic if it is real, packed band
after band into one vector of sum (dim - d) entries, and rebuilds the full
matrix at recorded samples; `me_rhs` packs every band and returns the full matrix.

Each macro step H runs Gragg's modified midpoint rule at 2, 4, 6 and 8
substeps and extrapolates to zero substep length: the Bulirsch-Stoer scheme
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.9) without adaptivity, so
runs reproduce at a fixed BLAS thread count (records under 1 and 2 OpenBLAS
threads differ by up to 3.0e-31).  H is at most the fixed cap 0.04 min(1, r)
and at most STIFFNESS_BOUND / (2 dim max|Delta|), the stability rule; see
`integrate_me`.
A macro step takes its 13 substep weight sets from one matrix product; each of
its 21 right-hand sides is an elementwise product and a row contraction.
`FockTrajectory.rho` stacks the records, read-only, as (n_record, dim, dim);
`states` builds `FockState`s from it and `max_trace_drift` reads `trace_drift`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import PhysicalParams, _rates
from .quadrature import IntegrationError
from .wigner import GridSpec, WignerGrid

# Abort threshold on trace drift per macro step (renormalized away each macro step).
TRACE_DRIFT_ABORT = 1e-6

# Most negative eigenvalue tolerated at recorded samples (truncation leakage).
NEGATIVITY_TOL = 1e-7

# Largest H * 2 dim max|Delta| of a macro step H.  The packed right-hand side
# has real eigenvalues down to about -1.9 * 2 dim max|Delta| (dim 80), and
# the extrapolated step is stable on the negative real axis down to -5.5.
STIFFNESS_BOUND = 1.5

# Substep counts n of one macro step, their distinct times j H / n (j = 0..n)
# in ticks of H / lcm(n), and for each n the indices of its own times among them.
SUBSTEPS = (2, 4, 6, 8)
_LCM = math.lcm(*SUBSTEPS)
_TICKS = sorted({j * (_LCM // n) for n in SUBSTEPS for j in range(n + 1)})
_NODES = np.array(_TICKS) / _LCM
_NODE_INDEX = [[_TICKS.index(j * (_LCM // n)) for j in range(n + 1)] for n in SUBSTEPS]
# The Aitken-Neville value at h = 0 of the polynomial in h^2 through the results
# of each n, as fixed weights: the product over m != n of n^2 / (n^2 - m^2).
_EXTRAPOLATION = np.array([math.prod(n * n for m in SUBSTEPS if m != n)
                           / math.prod(n * n - m * m for m in SUBSTEPS if m != n)
                           for n in SUBSTEPS])


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
    return make_number_state(0, dim)


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
    """Squeezed vacuum S(s)|0>, S(s) = exp((s/2)(a^2 - a^dag^2)), in the truncated basis.

    For phi = 0 this squeezes the x quadrature: (Dx)^2 = e^(-2s)/2.  The
    amplitudes are exact: psi_0 = 1, psi_(2k+2) = -tanh(s) sqrt((2k+1)/(2k+2))
    psi_(2k), odd levels 0, renormalized over the kept levels.  Truncation
    drops the weight above n = dim, so dim must comfortably exceed the
    significant number-state support.
    """
    if s < 0.0:
        raise ValueError(f"squeeze magnitude must be >= 0, got {s!r}")
    n = np.arange(1.0, dim - 1.0, 2.0)  # 2k + 1 for each level 2k + 2 < dim
    psi = np.zeros(dim)
    psi[::2] = np.cumprod(np.concatenate(([1.0], -math.tanh(s) * np.sqrt(n / (n + 1.0)))))
    psi /= math.sqrt(float(psi @ psi))
    return FockState(np.outer(psi, psi))


class _RhsWork:
    """The master-equation right-hand side on some upper diagonal bands of rho.

    The equation maps rho[i, i+d] only to rho[i-1, i+d-1], rho[i, i+d] and
    rho[i+1, i+d+1], so each band d >= 0 evolves on its own, and Hermiticity
    gives the bands below the diagonal.  The increasing ``bands`` from d = 0
    are packed one after another into a flat vector of sum (dim - d) entries.
    Neighbours in a band are neighbours in the vector, and the shift weights
    are zero at the band ends, so the shifted terms never mix two bands: a
    band left out (read as 0) is exact if it starts at 0.  The weights are
    real, so a packed vector of ``dtype`` float stays real.

    A packed vector v lives in a buffer [0, v, 0], so that `_neighbours`
    can view it as the rows (v[k-1], v[k], v[k+1]) that the weight rows
    (down, diagonal, up) multiply.

    The generator Delta L_Delta + gamma L_gamma has two fixed band operators,
    so the weight rows are (Delta, gamma) @ ``basis``, a real (2, 3 size)
    array.  A right-hand side is their elementwise product with the neighbour
    rows, whose real view one matrix product with a 3-vector sums and scales.
    """

    def __init__(self, dim: int, bands: np.ndarray, dtype: type) -> None:
        lengths = dim - bands
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        self.dim = dim
        self.dtype = dtype
        self.size = int(lengths.sum())
        self.rows = np.arange(self.size) - starts
        self.cols = self.rows + np.repeat(bands, lengths)
        i = self.rows.astype(float)
        j = self.cols.astype(float)
        # Both jumps move along the band with weight sqrt(i+1) sqrt(j+1):
        # a rho a^dag gives out[i, j] from rho[i+1, j+1] (none past the band
        # end j = dim-1), a^dag rho a gives out[i, j] from rho[i-1, j-1]
        # (none before the band start i = 0, where sqrt(i) = 0).  The
        # anticommutators of both jumps add up to -(Delta (n_i + n_j + 1) -
        # gamma) rho[i, j].  Rows (down, diagonal, up) of L_Delta, then L_gamma:
        up = np.where(self.cols < dim - 1, np.sqrt(i + 1.0) * np.sqrt(j + 1.0), 0.0)
        down = np.sqrt(i) * np.sqrt(j)
        self.basis = np.concatenate([down, -(i + j + 1.0), up, -down, np.ones(self.size),
                                     up]).reshape(2, 3 * self.size)

    @classmethod
    def occupied(cls, rho: np.ndarray) -> _RhsWork:
        """The work on band 0 (the trace) and every band where the Hermitian part
        of ``rho``, which `pack` reads, has a nonzero entry; float unless one of
        its imaginary parts is nonzero.  The zero tests are exact, with no tolerance."""
        herm = 0.5 * (rho + rho.conj().T)
        i, j = np.nonzero(np.triu(herm))
        bands = np.flatnonzero(np.bincount(np.append(j - i, 0)))  # band 0 always, increasing
        return cls(rho.shape[0], bands, complex if herm.imag.any() else float)

    def pack(self, rho: np.ndarray) -> np.ndarray:
        """Buffer [0, packed bands of the Hermitian part of ``rho``, 0]."""
        herm = 0.5 * (rho + rho.conj().T)
        buf = np.zeros(self.size + 2, dtype=self.dtype)
        buf[1:-1] = (herm if self.dtype is complex else herm.real)[self.rows, self.cols]
        return buf

    def unpack(self, v: np.ndarray) -> np.ndarray:
        """The Hermitian dim x dim matrix whose packed bands are ``v``, 0 elsewhere."""
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[self.cols, self.rows] = v.conj()
        rho[self.rows, self.cols] = v
        return rho


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
    work = _RhsWork(state.dim, np.arange(state.dim), complex)
    w = np.array([delta, gamma]) @ work.basis
    terms = w.reshape(3, work.size) * _neighbours(work.pack(state.rho))
    return work.unpack((np.ones(3) @ terms.view(float)).view(complex))


def _moments(rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """(n_mean, var_x, var_y, mean_x, mean_y) arrays from a stack of density matrices.

    Corotating frame: x = (a + a^dag)/sqrt(2), y = -i(a - a^dag)/sqrt(2).
    """
    n = np.arange(rho.shape[-1], dtype=float)
    n_mean = (rho.diagonal(0, -2, -1).real * n).sum(-1)
    a_mean = (np.sqrt(n[1:]) * rho.diagonal(-1, -2, -1)).sum(-1)
    a2_mean = (np.sqrt(n[1:-1] * n[2:]) * rho.diagonal(-2, -2, -1)).sum(-1).real
    mean = math.sqrt(2.0) * a_mean  # mean_x + i mean_y
    var_x = a2_mean + n_mean + 0.5 - mean.real**2
    var_y = -a2_mean + n_mean + 0.5 - mean.imag**2
    return n_mean, var_x, var_y, mean.real, mean.imag


@dataclass(frozen=True)
class FockTrajectory:
    """Recorded samples of a master-equation integration (corotating frame)."""

    times: np.ndarray
    rho: np.ndarray  # (n_record, dim, dim), read-only
    n_mean: np.ndarray
    var_x: np.ndarray
    var_y: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    min_eigenvalue: np.ndarray  # of each recorded density matrix
    trace_drift: np.ndarray  # per record, the largest since the previous one

    @property
    def states(self) -> list[FockState]:
        """The recorded density matrices as validated states, built on each access."""
        return [FockState(rho) for rho in self.rho]

    @property
    def max_trace_drift(self) -> float:
        return float(self.trace_drift.max())


def integrate_me(
    state0: FockState,
    p: PhysicalParams,
    tau_max: float,
    n_record: int = 101,
) -> FockTrajectory:
    """Integrate the master equation by extrapolated modified midpoint steps.

    A macro step H runs Gragg's modified midpoint rule, with its smoothing end
    step, at n = 2, 4, 6, 8 substeps from one start slope (21 right-hand sides)
    and extrapolates to zero substep length (Aitken-Neville in h^2).  Its weight
    rows at 13 substep times are one product of their (Delta, gamma) with
    `_RhsWork.basis`; the row contraction of a right-hand side scales it by 1,
    2 hn (midpoint step) or hn (smoothing step).  In each recording interval
    H = min(0.04 * min(1, r), STIFFNESS_BOUND / (2 dim max|Delta|)), rounded
    down so the record lands on a macro step, with max|Delta| over the
    coefficients at the interval's substep times (one `_rates` call).  The
    bands that the Hermitian part of ``state0.rho`` occupies are integrated,
    in real arithmetic if it is real (`_RhsWork.occupied`); the others stay
    exactly 0.  The trace is renormalized every macro step; a drift
    beyond 1e-6 in one aborts, as does negativity beyond 1e-7 at a record.
    ``trace_drift`` holds per record the largest drift since the previous one.
    """
    if not (tau_max > 0.0 and math.isfinite(tau_max)):
        raise ValueError(f"tau_max must be finite and > 0, got {tau_max!r}")
    if n_record < 2:
        raise ValueError(f"n_record must be >= 2, got {n_record!r}")

    dim = state0.dim
    times = np.linspace(0.0, tau_max, n_record)
    rec_dt = tau_max / (n_record - 1)
    work = _RhsWork.occupied(state0.rho)
    v_buf, z_buf = work.pack(state0.rho), np.zeros(work.size + 2, dtype=work.dtype)
    v, z, v_nbrs, z_nbrs = v_buf[1:-1], z_buf[1:-1], _neighbours(v_buf), _neighbours(z_buf)
    # The midpoint rule runs on increments e = z - v, whose rounding stays far
    # below that of v; each n leaves its smoothed result in a row of ``ends``.
    f0, *es = np.empty((3, work.size), dtype=work.dtype)
    ends = np.empty((len(SUBSTEPS), work.size), dtype=work.dtype)
    terms = np.empty((3, work.size), dtype=work.dtype)
    w = np.empty((len(_NODES), 3, work.size))  # weight rows at the nodes of a macro step
    ones = np.ones(3)

    def slope(i: int, nbrs: np.ndarray, scale: np.ndarray, out: np.ndarray) -> None:
        """out = (each of ``scale``) * drho/dtau at node i, on the bands of ``nbrs``."""
        np.multiply(w[i], nbrs, out=terms)
        np.matmul(scale, terms.view(float), out=out.view(float))

    rho = np.empty((n_record, dim, dim), dtype=complex)
    min_eig, drifts = np.zeros((2, n_record))

    def record(k: int) -> None:
        rho[k] = work.unpack(v)
        low = min_eig[k] = np.linalg.eigvalsh(rho[k])[0]
        if low < -NEGATIVITY_TOL:
            raise IntegrationError(
                f"density matrix negativity {low:.3e} at tau={float(times[k])!r} exceeds "
                f"tolerance {NEGATIVITY_TOL:.1e}; increase the truncation dimension"
            )

    record(0)
    for k in range(1, n_record):
        # Macro steps in this recording interval: as many as the cap asks for,
        # and more until H meets the stiffness rule on the coefficients at its nodes.
        steps, need = 0, max(1, math.ceil(rec_dt / (0.04 * min(1.0, p.r))))
        while need > steps:
            steps = need
            h = rec_dt / steps
            t0s = times[k - 1] + np.arange(steps) * h
            deltas, gammas, _ = _rates(p, t0s[:, None] + _NODES * h)
            need = math.ceil(rec_dt * 2.0 * dim * np.abs(deltas).max() / STIFFNESS_BOUND)
        # Per n: hn and the row sums that scale a slope by 2 hn and hn.
        scales = [(h / n, np.full(3, 2.0 * (h / n)), np.full(3, h / n)) for n in SUBSTEPS]
        for t0, pairs in zip(t0s.tolist(), np.stack((deltas, gammas), axis=-1)):
            np.matmul(pairs, work.basis, out=w.reshape(len(_NODES), -1))
            slope(0, v_nbrs, ones, f0)
            for end, nodes, (hn, mid, smooth) in zip(ends, _NODE_INDEX, scales):
                e_old, e = es  # e_{m-1} and e_m, from m = 1
                e_old[:] = 0.0
                np.multiply(f0, hn, out=e)
                for i in nodes[1:-1]:
                    # e_{m+1} = e_{m-1} + 2 hn f(v + e_m), written over e_{m-1}.
                    np.add(v, e, out=z)
                    slope(i, z_nbrs, mid, end)
                    e_old += end
                    e_old, e = e, e_old
                # The smoothing step (e_{n-1} + e_n + hn f(v + e_n)) / 2 ends the run.
                np.add(v, e, out=z)
                slope(nodes[-1], z_nbrs, smooth, end)
                end += e_old
                end += e
                end *= 0.5
            v += _EXTRAPOLATION @ ends
            tr = v[:dim].sum().real  # band 0 holds the diagonal
            drift = abs(tr - 1.0)
            if drift > TRACE_DRIFT_ABORT:
                raise IntegrationError(
                    f"trace drift {drift:.3e} at tau={t0 + h!r} exceeds {TRACE_DRIFT_ABORT:.1e} "
                    f"per macro step (macro step H={h!r} too large or truncation too small)"
                )
            drifts[k] = max(drifts[k], drift)
            v /= tr
        record(k)

    rho.flags.writeable = False
    return FockTrajectory(times, rho, *_moments(rho), min_eig, drifts)


def _hermite_functions(count: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions psi_0 .. psi_{count-1} at ``t``, one row each.

    psi_0 = pi^(-1/4) e^(-t^2/2), psi_1 = sqrt(2) t psi_0 and
    psi_{k+1} = sqrt(2/(k+1)) t psi_k - sqrt(k/(k+1)) psi_{k-1}.
    """
    psi = np.empty((count, t.size))
    psi[0] = math.pi ** -0.25 * np.exp(-0.5 * t * t)
    if count > 1:
        psi[1] = math.sqrt(2.0) * t * psi[0]
    for k in range(1, count - 1):
        psi[k + 1] = math.sqrt(2.0 / (k + 1)) * t * psi[k] - math.sqrt(k / (k + 1)) * psi[k - 1]
    return psi


def _wigner_matrix(rho: np.ndarray) -> np.ndarray:
    """The real K x K matrix M of `fock_to_wigner`, K = 2 dim - 1.

    M_ab = Re[(-i)^b sum_{m+n=a+b} rho_mn V_{a+b}[a, m]], where V_N[a, m] =
    <a, N-a|m, N-m> takes the two-mode number states of (u, v) to those of
    ((u+v)/sqrt(2), (u-v)/sqrt(2)).  Level N+1 of V follows from level N by
    raising one of the modes u, v:

        sqrt(m+1) V'[a, m+1] = (sqrt(a) V[a-1, m] + sqrt(b) V[a, m]) / sqrt(2)
        sqrt(n+1) V'[a, m]   = (sqrt(a) V[a-1, m] - sqrt(b) V[a, m]) / sqrt(2)

    with b = N+1-a and n = N-m.  Each column is raised along the mode whose
    count is larger, so it divides by the larger root; raising one mode only
    loses every digit by n = 99.  A level keeps only the columns m, n < dim,
    which are the ones raised from such columns, and is folded into M as
    soon as it is built; no level outlives the next.
    """
    dim = rho.shape[0]
    size = 2 * dim - 1
    root = np.sqrt(np.arange(size + 1.0))
    root2 = math.sqrt(2.0) * root
    # rho[m, N-m] for the columns m of level N, as (real, imaginary) rows,
    # and Re((-i)^b z) as (1, 0), (0, 1), (-1, 0), (0, -1) times (Re z, Im z).
    pairs = np.ascontiguousarray(rho, dtype=complex).view(float).reshape(dim, dim, 2)[:, ::-1]
    phase = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])[np.arange(size) % 4]
    out = np.zeros((size, size))
    antidiagonals = out.reshape(-1)  # a + b = N sits at N + a (size - 1)
    # Level N fills rows 1 .. N+1 of one buffer, with zero rows around it:
    # V[a-1] and V[a] for a = 0 .. N+1 are rows 0 .. N+1 and 1 .. N+2.
    bufs = np.zeros((2, size + 2, dim))
    bufs[0, 1, 0] = 1.0  # V_0 = [[1]]
    lo = 0  # the first column m of the level
    for n in range(size):
        cur, nxt = bufs[n % 2], bufs[(n + 1) % 2]
        width = min(n, dim - 1) - lo + 1
        z = cur[1:n + 2, :width] @ np.diagonal(pairs, dim - 1 - n).T
        antidiagonals[n:n * size + 1:max(size - 1, 1)] = (z * phase[n::-1]).sum(axis=1)
        if n + 1 == size:
            break
        up = root[:n + 2, None] * cur[:n + 2, :width]  # sqrt(a) V[a-1, m]
        down = root[n + 1::-1, None] * cur[1:n + 3, :width]  # sqrt(b) V[a, m]
        # Columns m' < half of level n+1 raise v on column m', the others
        # raise u on column m'-1; lo_next <= half <= hi_next.
        lo_next, hi_next = max(0, n + 2 - dim), min(n + 1, dim - 1)
        half = (n + 2) // 2
        k, rows = half - lo_next, nxt[1:n + 3]
        np.subtract(up[:, lo_next - lo:half - lo], down[:, lo_next - lo:half - lo],
                    out=rows[:, :k])
        rows[:, :k] /= root2[n + 1 - lo_next:n + 1 - half:-1]
        np.add(up[:, half - 1 - lo:hi_next - lo], down[:, half - 1 - lo:hi_next - lo],
               out=rows[:, k:hi_next - lo_next + 1])
        rows[:, k:hi_next - lo_next + 1] /= root2[half:hi_next + 1]
        lo = lo_next
    return out


def fock_to_wigner(state: FockState, grid: GridSpec) -> WignerGrid:
    """Wigner function of a number-basis density matrix on a grid.

    With q, p the quadratures, W(q, p) = (1/pi) integral <q+s|rho|q-s>
    e^(-2ips) ds.  Written in the orthonormal Hermite functions psi_k, the
    matrix element sum_mn rho_mn psi_m(q+s) psi_n(q-s) turned by 45 degrees
    is a sum of psi_a(sqrt(2) q) psi_b(sqrt(2) s), a + b = m + n, and the
    s-integral takes psi_b to sqrt(pi) (-i)^b psi_b(sqrt(2) p).  In alpha
    coordinates (sqrt(2) q = 2 alpha_x) that gives

        W(alpha) = (2/sqrt(pi)) sum_ab M_ab psi_a(2 alpha_x) psi_b(2 alpha_y),

    a, b < K = 2 dim - 1, with the real K x K matrix M of `_wigner_matrix`
    (real because rho is Hermitian).  The grid values are Psi_x^T (M Psi_y),
    two Hermite-function tables from the three-term recurrence and two matrix
    products: O(dim^3 + K^2 ny + K nx ny) operations, against O(dim^2 nx ny)
    for a sum over the matrix elements at every node.  Where psi_0 = pi^(-1/4)
    e^(-t^2/2) underflows to 0, at |t| > 38.6 for t = 2 alpha_x or 2 alpha_y,
    every psi_k of the table is 0 and so is W; for dim <= 160 every true
    |psi_k| there is below 1e-109.  Normalization matches the grid convention
    (vacuum peak 2/pi, unit integral over d^2alpha).
    """
    m = _wigner_matrix(state.rho)
    psi_x = _hermite_functions(m.shape[0], 2.0 * grid.x_coords())
    psi_y = _hermite_functions(m.shape[0], 2.0 * grid.y_coords())
    return WignerGrid(grid, (2.0 / math.sqrt(math.pi)) * (psi_x.T @ (m @ psi_y)))

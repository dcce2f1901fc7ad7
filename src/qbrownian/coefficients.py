"""Model parameters and time-dependent rate coefficients.

A harmonic oscillator (frequency omega_0) is weakly coupled to a
high-temperature Ohmic reservoir with exponential cutoff omega_c.  Everything
is nondimensionalized: hbar = 1, times are tau = omega_c * t, rates are in
units of omega_c, and the temperature enters only through kT/(hbar*omega_c).

The reduced dynamics is governed by a diffusion coefficient Delta(tau), a
dissipation coefficient gamma(tau), and their integrated forms

    Gamma(tau)       = 2 * integral_0^tau gamma(s) ds          (closed form)
    Delta_Gamma(tau) = exp(-Gamma(tau)) *
                       integral_0^tau exp(Gamma(s)) Delta(s) ds (quadrature)

Both Delta and gamma are linear combinations of 1, e^(-tau)cos(tau/r) and
e^(-tau)sin(tau/r), so Gamma has an elementary antiderivative; Delta_Gamma
does not, hence Gauss-Legendre panels over the e^(-tau) transient and a
closed-form relaxation towards kT*r after it.

`closed_forms` evaluates Delta, gamma and Gamma on arrays; the scalar
functions `delta_coeff`, `gamma_coeff` and `big_gamma` call it on one time,
so a scalar value equals the corresponding grid entry bit for bit.

The generator is of Lindblad type while both rates Delta +/- gamma are
non-negative.  Each rate is A (1 - e^(-tau) cos(tau/r)) + C e^(-tau) sin(tau/r),
monotone between extrema at known phases pi*r apart, and past its horizon
tau* = ln(sqrt(A^2+C^2)/|A|) it keeps the sign of its plateau A.
`classify_lindblad` therefore brackets every sign change between consecutive
extrema before min(tau_max, tau*) and refines the brackets to adjacent
doubles; no time grid is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadrature import IntegrationError, integrate_panels

# Default relative tolerance for the Delta_Gamma quadrature.
DEFAULT_TOL = 1e-10

# Candidate sign-change brackets (monotone pieces of Delta +/- gamma) per
# Lindblad classification: about min(tau_max, tau*)/(pi r) per combination.
# The cap bounds time (about 2 s) and memory.  Each pass of the multisection
# that refines the brackets evaluates about _PASS_POINTS times, so few
# brackets are cut into many parts per pass.
_MAX_BRACKETS = 1 << 17
_PASS_POINTS = 512

# -ln of double-precision epsilon: past the transient end, e^(-tau) times the
# largest oscillation amplitude is below 2^-53 of the coefficients' plateaus.
_NEG_LOG_EPS = 53.0 * math.log(2.0)

# Delta_Gamma panels per call (a panel is at most min(r, 1)/2 wide), and per
# array pass; the cap bounds memory and time, and is reached for r below
# about 1e-4.
_MAX_PANELS = 1 << 20
_PANEL_CHUNK = 4096


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensionless parameters of the oscillator-reservoir model.

    Attributes
    ----------
    g : float
        System-reservoir coupling constant, g >= 0.
    r : float
        Cutoff-to-oscillator frequency ratio omega_c/omega_0, r > 0.
    kt_over_wc : float
        Reservoir temperature kT/(hbar*omega_c), > 0.

    The high-temperature regime (kT >> hbar*omega_c, hbar*omega_0) is assumed
    by the coefficient formulas but deliberately not enforced; they stay
    well-defined for any admissible parameter values.
    """

    g: float
    r: float
    kt_over_wc: float

    def __post_init__(self) -> None:
        # g = 0 (zero coupling) is allowed: it is the exactly-solvable
        # identity channel used as a sanity anchor throughout the tests.
        if not (self.g >= 0.0 and math.isfinite(self.g)):
            raise ValueError(f"g must be finite and >= 0, got {self.g!r}")
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError(f"r must be finite and > 0, got {self.r!r}")
        if not (self.kt_over_wc > 0.0 and math.isfinite(self.kt_over_wc)):
            raise ValueError(
                f"kt_over_wc must be finite and > 0, got {self.kt_over_wc!r}"
            )
        pref_delta, pref_gamma = self.prefactors
        if not (math.isfinite(pref_delta) and math.isfinite(pref_gamma)):
            raise ValueError(
                f"rate prefactors 2 g^2 (kT/omega_c) r^2/(1+r^2) = {pref_delta!r} and "
                f"g^2 r/(1+r^2) = {pref_gamma!r} must be finite, got g = {self.g!r}, "
                f"kt_over_wc = {self.kt_over_wc!r}"
            )

    @property
    def omega0(self) -> float:
        """Oscillator frequency in units of omega_c (= 1/r)."""
        return 1.0 / self.r

    @property
    def prefactors(self) -> tuple[float, float]:
        """Plateaus of Delta and gamma: 2 g^2 (kT/omega_c) r^2/(1+r^2), g^2 r/(1+r^2)."""
        g2 = self.g * self.g
        r = self.r
        return 2.0 * g2 * self.kt_over_wc * ((r * r) / (1.0 + r * r)), g2 * (r / (1.0 + r * r))


@dataclass(frozen=True, eq=False)
class CoefficientGrid:
    """Coefficient columns on a time grid: entry k of each array is at ``tau[k]``."""

    tau: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    big_gamma: np.ndarray
    delta_gamma: np.ndarray

    def __len__(self) -> int:
        return len(self.tau)


@dataclass(frozen=True)
class LindbladClassification:
    """Sign analysis of the combinations Delta(tau) +/- gamma(tau).

    The generator has Lindblad structure with time-dependent rates
    Delta + gamma and Delta - gamma; it is of Lindblad type on an interval
    iff both stay non-negative there.  An endpoint sitting exactly at zero
    counts as non-negative.  Past ``horizon[name]`` (inf when the plateau of
    the combination is 0) the combination keeps the sign of its plateau.
    """

    is_lindblad_type: bool
    negative_intervals: dict[str, list[tuple[float, float]]]
    horizon: dict[str, float]


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not (tau >= 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")
    return tau


def closed_forms(
    p: PhysicalParams, tau
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Delta, gamma, Gamma) at the times ``tau``, elementwise on arrays.

    The formulas are those documented on `delta_coeff`, `gamma_coeff` and
    `big_gamma`.  Times are not validated here; the scalar functions and
    `coefficient_grid` check them.
    """
    tau = np.asarray(tau, dtype=float)
    w = 1.0 / p.r
    pref_delta, pref_gamma = p.prefactors
    e = np.exp(-tau)
    c = np.cos(w * tau)
    s = np.sin(w * tau)
    bracket = 1.0 - e * (c - w * s)
    delta = pref_delta * bracket
    gamma = pref_gamma * (1.0 - e * c - p.r * e * s)
    denom = 1.0 + w * w
    int_cos = bracket / denom
    int_sin = (w - e * (s + w * c)) / denom
    big = 2.0 * pref_gamma * (tau - int_cos - p.r * int_sin)
    return delta, gamma, big


def delta_coeff(p: PhysicalParams, tau: float) -> float:
    """Diffusion coefficient Delta(tau) in units of omega_c.

    Delta(tau) = 2 g^2 (kT/omega_c) r^2/(1+r^2)
                 * {1 - e^(-tau) [cos(tau/r) - (1/r) sin(tau/r)]}.

    Starts at 0, oscillates with period 2*pi*r (transiently negative for
    r << 1), and relaxes to the positive asymptote as the e^(-tau) transient
    dies out.
    """
    return float(closed_forms(p, _check_tau(tau))[0])


def gamma_coeff(p: PhysicalParams, tau: float) -> float:
    """Dissipation coefficient gamma(tau) in units of omega_c.

    gamma(tau) = g^2 r/(1+r^2)
                 * [1 - e^(-tau) cos(tau/r) - r e^(-tau) sin(tau/r)].
    """
    return float(closed_forms(p, _check_tau(tau))[1])


def big_gamma(p: PhysicalParams, tau: float) -> float:
    """Integrated dissipation Gamma(tau) = 2 * integral_0^tau gamma, closed form.

    Uses the elementary antiderivatives
        integral_0^tau e^(-s) cos(ws) ds = [1 - e^(-tau)(cos - w sin)] / (1+w^2)
        integral_0^tau e^(-s) sin(ws) ds = [w - e^(-tau)(sin + w cos)] / (1+w^2)
    with w = 1/r; no quadrature is involved.
    """
    return float(closed_forms(p, _check_tau(tau))[2])


def _delta_gamma(
    p: PhysicalParams, taus: np.ndarray, big: np.ndarray, tol: float
) -> np.ndarray:
    """Delta_Gamma at increasing times ``taus`` >= 0, where Gamma equals ``big``.

    Segment k runs from the previous time (0 for k = 0) to taus[k] and

        D_k = exp(Gamma_{k-1} - Gamma_k) D_{k-1}
              + integral_segment exp(Gamma(s) - Gamma_k) Delta(s) ds,

    whose exponents stay near or below 0, so a large Gamma cannot overflow.
    Each segment's integral splits at the transient's end: before it,
    Gauss-Legendre panels at most min(r, 1)/2 wide resolve the oscillation
    period 2*pi*r; after it Delta and gamma are constant to double precision,
    and the integral is kT r (1 - exp(Gamma(split) - Gamma_k)) in closed form.
    A segment fails when the panels' summed error estimate exceeds ``tol``
    times their summed integral of |integrand|.
    """
    if p.g == 0.0 or taus.size == 0:
        return np.zeros(taus.shape)
    starts = np.concatenate(([0.0], taus[:-1]))
    transient_end = _NEG_LOG_EPS + math.log((1.0 + 1.0 / p.r) * (1.0 + p.r))
    split = np.minimum(np.maximum(starts, transient_end), taus)
    relaxed = -np.expm1(closed_forms(p, split)[2] - big)
    sums = p.kt_over_wc * p.r * relaxed

    # Panels resolve the oscillation period 2*pi*r, the e^(-tau) transient and
    # the growth of exp(Gamma), whose rate 2*gamma is below 2 g^2 r (2+r)/(1+r^2).
    rate = max(1.0 / p.r, 1.0, 2.0 * p.g * p.g * p.r * (2.0 + p.r) / (1.0 + p.r * p.r))
    width = split - starts
    counts = np.ceil(width * (2.0 * rate))
    total = counts.sum()
    # Checked as floats: for huge g an int64 count wraps round to negative,
    # and an infinite rate gives inf or NaN counts.
    if not (total <= _MAX_PANELS):
        raise IntegrationError(
            f"Delta_Gamma quadrature up to tau={float(taus[-1])!r} needs "
            f"{total:.4g} panels, more than the limit of {_MAX_PANELS}"
        )
    n_panels = counts.astype(np.int64)
    total = int(total)
    seg = np.repeat(np.arange(taus.size), n_panels)
    index = np.arange(total) - np.repeat(np.cumsum(n_panels) - n_panels, n_panels)
    scale = width[seg] / n_panels[seg]
    lo = starts[seg] + index * scale
    hi = starts[seg] + (index + 1) * scale
    errors = np.zeros(taus.shape)
    magnitudes = np.zeros(taus.shape)
    for first in range(0, total, _PANEL_CHUNK):
        part = slice(first, first + _PANEL_CHUNK)
        shift = big[seg[part]][:, None]

        def integrand(s: np.ndarray) -> np.ndarray:
            delta, _, gs = closed_forms(p, s)
            return np.exp(gs - shift) * delta

        value, error, magnitude = integrate_panels(integrand, lo[part], hi[part])
        np.add.at(sums, seg[part], value)
        np.add.at(errors, seg[part], error)
        np.add.at(magnitudes, seg[part], magnitude)
    bad = ~(errors <= tol * magnitudes)
    if bad.any():
        k = int(np.argmax(bad))
        raise IntegrationError(
            f"Delta_Gamma quadrature did not converge at tau={float(taus[k])!r} "
            f"(error estimate {errors[k]:.3e} against integral of |integrand| "
            f"{magnitudes[k]:.3e})"
        )

    decay = np.exp(np.concatenate(([0.0], big[:-1])) - big)
    values = []
    d = 0.0
    for q, inc in zip(decay.tolist(), sums.tolist()):
        d = q * d + inc
        values.append(d)
    return np.array(values)


def delta_big_gamma(p: PhysicalParams, tau: float, tol: float = DEFAULT_TOL) -> float:
    """Damped integrated diffusion Delta_Gamma(tau).

    exp(-Gamma(tau)) * integral_0^tau exp(Gamma(s)) Delta(s) ds, computed by
    the code behind `coefficient_grid` on the one-point grid [tau]; ``tol``
    is the relative tolerance on the quadrature's error estimate.

    Raises
    ------
    IntegrationError
        If the quadrature's error estimate misses the tolerance.
    """
    t = np.array([_check_tau(tau)])
    return float(_delta_gamma(p, t, closed_forms(p, t)[2], tol)[0])


def coefficient_grid(
    p: PhysicalParams, taus: Sequence[float], tol: float = DEFAULT_TOL
) -> CoefficientGrid:
    """Evaluate all four coefficients on an increasing time grid.

    Delta, gamma and Gamma come from `closed_forms`; Delta_Gamma is carried
    from one grid point to the next, so the quadrature cost is O(n) panels
    plus the panels spanning the transient.
    """
    taus = np.array(taus, dtype=float)
    if taus.ndim != 1:
        raise ValueError(f"grid times must be a 1-D sequence, got shape {taus.shape}")
    if taus.size:
        if not np.all(np.isfinite(taus)):
            raise ValueError("grid times must be finite")
        if taus[0] < 0.0:
            raise ValueError(f"grid times must be >= 0, got {float(taus[0])!r}")
        if np.any(np.diff(taus) <= 0.0):
            raise ValueError("grid times must be strictly increasing")
    delta, gamma, big = closed_forms(p, taus)
    return CoefficientGrid(taus, delta, gamma, big, _delta_gamma(p, taus, big, tol))


def classify_lindblad(
    p: PhysicalParams, tau_max: float, n_samples: int | None = None
) -> LindbladClassification:
    """Classify the generator as Lindblad-type or not on [0, tau_max], exactly.

    Each f = Delta +/- gamma is A (1 - e^(-tau) cos(w tau)) + C e^(-tau) sin(w tau),
    w = 1/r, so f' is proportional to e^(-tau) cos(w tau - phi): f is monotone
    between extrema pi*r apart, and past the horizon tau* = ln(sqrt(A^2+C^2)/|A|)
    it has the sign of A.  The sign changes on [0, min(tau_max, tau*)], each
    bracketed between consecutive extrema, are cut down together on
    `closed_forms` to adjacent doubles; a boundary is the first double past its
    sign change.  Nothing is sampled, so tau_max beyond tau* changes nothing.
    ``n_samples`` is ignored.  Raises IntegrationError above _MAX_BRACKETS.
    """
    if not (tau_max > 0.0 and math.isfinite(tau_max)):
        raise ValueError(f"tau_max must be finite and > 0, got {tau_max!r}")
    w, (pd, pg) = 1.0 / p.r, p.prefactors
    combos = [(pd + pg, pd * w - pg * p.r), (pd - pg, pd * w + pg * p.r)]
    horizon = [math.log(math.hypot(a, c) / abs(a)) if a else math.inf for a, c in combos]
    # With C = 0, f has the sign of A (or is 0) for every tau > 0.
    ends = [min(tau_max, h) if c else 0.0 for h, (_, c) in zip(horizon, combos)]
    count = sum(end / (math.pi * p.r) + 4.0 for end in ends)
    if not count <= _MAX_BRACKETS:
        raise IntegrationError(f"Lindblad classification up to tau={tau_max!r} needs "
                               f"{count:.4g} brackets, more than the limit of {_MAX_BRACKETS}")
    knots = []
    for (a, c), end in zip(combos, ends):
        k = np.arange(math.ceil(end / (math.pi * p.r)) + 2)
        ext = p.r * (math.atan2(a * w - c, a + c * w) + math.pi * (k + 0.5))
        knots.append(np.concatenate(([0.0], ext[(ext > 0.0) & (ext < end)], [end, tau_max])))
    sizes = [len(k) for k in knots]
    t, sign = np.concatenate(knots), np.repeat([1.0, -1.0], sizes)
    d, g, _ = closed_forms(p, t)
    neg = d + sign * g < 0.0
    i = np.flatnonzero((neg[:-1] != neg[1:]) & (sign[:-1] == sign[1:]))
    # Cut every bracket into equal parts and keep the one where f changes
    # sign, until each bracket is two adjacent doubles.
    lo, hi, s, lo_neg = t[i], t[i + 1], sign[i, None], neg[i, None]
    rows, parts = np.arange(len(i)), max(2, _PASS_POINTS // max(len(i), 1))
    inner, far = np.arange(1, parts) / parts, np.ones((len(i), 1), dtype=bool)
    while np.any(np.nextafter(lo, hi) < hi):
        x = lo[:, None] + (hi - lo)[:, None] * inner
        d, g, _ = closed_forms(p, x)
        j = np.argmax(np.hstack(((d + s * g < 0.0) != lo_neg, far)), axis=1)
        x = np.hstack((lo[:, None], x, hi[:, None]))
        lo, hi = x[rows, j], x[rows, j + 1]
    names, negative_intervals = ("delta_plus_gamma", "delta_minus_gamma"), {}
    # f(0) = 0 exactly, so every negative run starts at a sign change.
    for name, sk, last in zip(names, (1.0, -1.0), np.cumsum(sizes) - 1):
        bounds = hi[s[:, 0] == sk].tolist() + [tau_max] * bool(neg[last])
        negative_intervals[name] = list(zip(bounds[::2], bounds[1::2]))
    is_lindblad = not any(negative_intervals.values())
    return LindbladClassification(is_lindblad, negative_intervals, dict(zip(names, horizon)))

"""Model parameters and time-dependent rate coefficients.

A harmonic oscillator (frequency omega_0) is weakly coupled to a
high-temperature Ohmic reservoir with exponential cutoff omega_c.  Everything
is nondimensionalized: hbar = 1, times are tau = omega_c * t, rates are in
units of omega_c, and the temperature enters only through kT/(hbar*omega_c).

The reduced dynamics is governed by a diffusion coefficient Delta(tau), a
dissipation coefficient gamma(tau), and their integrated forms

    Gamma(tau)       = 2 * integral_0^tau gamma(s) ds
    Delta_Gamma(tau) = exp(-Gamma(tau)) *
                       integral_0^tau exp(Gamma(s)) Delta(s) ds

Both Delta and gamma are linear combinations of 1, e^(-tau)cos(tau/r) and
e^(-tau)sin(tau/r), so Gamma has an elementary antiderivative.  exp(Gamma) is
e^(a tau) times the exponential of a damped oscillation, whose power series
(in e^((-1 +/- i/r) tau)) integrates term by term against Delta: Delta_Gamma
is a finite sum of exponentials, evaluated to double precision at every time
without quadrature.  The series converges for any coupling, but its terms
cancel as |c| = 2 g^2 r^2/(1+r^2) grows, so strong coupling (|c| above 7) is
refused as a numerical failure.

`closed_forms` evaluates Delta, gamma and Gamma on arrays, on top of
`_rates`, which evaluates Delta and gamma alone; the scalar functions
`delta_coeff`, `gamma_coeff` and `big_gamma` call them on one time,
and `delta_big_gamma` calls the array series behind `coefficient_grid`, so a
scalar value equals the corresponding grid entry bit for bit.  One time runs
the arithmetic on Python floats, without NumPy's per-call cost on 0-d values;
each operation rounds as its array counterpart does, and exp, cos and sin are
NumPy's on both paths.

The generator is of Lindblad type while both rates Delta +/- gamma are
non-negative.  Each rate is A (1 - e^(-tau) cos(tau/r)) + C e^(-tau) sin(tau/r),
monotone between extrema at known phases pi*r apart, and past its horizon
tau* = ln(sqrt(A^2+C^2)/|A|) it keeps the sign of its plateau A.
`classify_lindblad` therefore brackets every sign change between consecutive
extrema before min(tau_max, tau*) and refines the brackets to adjacent
doubles; no time grid is sampled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quadrature import IntegrationError

# Candidate sign-change brackets (monotone pieces of Delta +/- gamma) per
# Lindblad classification: about min(tau_max, tau*)/(pi r) per combination.
# The cap bounds time (about 2 s) and memory.  Each pass of `_negative_runs`
# evaluates about _PASS_POINTS times, so few brackets are cut into many parts.
_MAX_BRACKETS = 1 << 17
_PASS_POINTS = 512

# Delta_Gamma series (see `_delta_gamma`).  exp(Re(c z)) is kept to the degree
# N before the first K = N + 1 with |c|^K/K! < _SERIES_TAIL.  The terms cancel
# like e^(|c| - Re c), worst where c is almost imaginary (r >> 1): against
# 40-digit references the error reaches 4e-13 at |c| = 7 and 1.1e-12 at
# |c| = 8, so |c| above _MAX_C is refused.  Times with y = tau*max|lambda|
# <= _TAYLOR_REACH use the Taylor series in y, whose _TAYLOR_TERMS terms reach
# y^k/(k+2)! < 1e-18: there it cancels less than the sum of exponentials
# (1.1e-13 against 1.3e-12 at |c| = 6, r = 1000, with a reach of 1).  A pass
# evaluates about _PASS_VALUES values per array.
_MAX_C = 7.0
_SERIES_TAIL = 1e-18
_TAYLOR_REACH = 8.0
_TAYLOR_TERMS = 44
_PASS_VALUES = 1 << 16
_LD_ONE = np.longdouble(1.0)
_TWO_PI = 8.0 * np.arctan(_LD_ONE)
_exp, _cos, _sin = np.exp, np.cos, np.sin  # the scalar lane's ufuncs, bound once


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

    @functools.cached_property
    def prefactors(self) -> tuple[float, float]:
        """Plateaus of Delta and gamma: 2 g^2 (kT/omega_c) r^2/(1+r^2), g^2 r/(1+r^2)."""
        g2 = self.g * self.g
        r = self.r
        return 2.0 * g2 * self.kt_over_wc * ((r * r) / (1.0 + r * r)), g2 * (r / (1.0 + r * r))

    @functools.cached_property
    def _delta_gamma_series(self):
        """`_delta_gamma` on a non-empty array of times, its tables built on first use."""
        return _delta_gamma_series(self)

    def __reduce__(self):
        # Pickle the fields alone: the cached series is a closure.
        return PhysicalParams, (self.g, self.r, self.kt_over_wc)


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


def _half_phase(tau, r: float):
    """tau/(2 r) modulo 2 pi, reduced in extended precision: rounding tau/r to
    a double first would put its error, 1e-10 at r = 1e-6, in every phase.
    For tau >= 0, as every caller passes, ``%`` is ``fmod``.  The float lane
    of `_rates` inlines the same expression."""
    return np.float64(_LD_ONE * tau / (2.0 * r) % _TWO_PI)


def _rates(p: PhysicalParams, tau):
    """Delta and gamma at the times ``tau``, elementwise on arrays, as in
    `closed_forms`; and the terms Gamma reuses: ``tau`` as an array,
    e^(-tau), cos(tau/r), sin(tau/r) and Delta's bracket.

    A float ``tau`` runs the same formula lines on Python floats, which
    round each operation as the array path does.  Its exponential, cosine
    and sine still come from NumPy's ufuncs (`math.exp` differs from
    `np.exp` on a few percent of times), so the two paths share them.
    """
    w = 1.0 / p.r
    pref_delta, pref_gamma = p.prefactors
    if isinstance(tau, float):
        e = float(_exp(-tau))
        # `_half_phase`'s long-double reduction, inlined and straight to a float
        phase = 2.0 * float(_LD_ONE * tau / (2.0 * p.r) % _TWO_PI)
        c, s = float(_cos(phase)), float(_sin(phase))
    else:
        tau = np.asarray(tau, dtype=float)[()]
        e = np.exp(-tau)
        phase = 2.0 * _half_phase(tau, p.r)
        c, s = np.cos(phase), np.sin(phase)
    bracket = 1.0 - e * (c - w * s)
    delta = pref_delta * bracket
    gamma = pref_gamma * (1.0 - e * c - p.r * e * s)
    return delta, gamma, (tau, e, c, s, bracket)


def closed_forms(
    p: PhysicalParams, tau
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Delta, gamma, Gamma) at the times ``tau``, elementwise on arrays.

    The formulas are those documented on `delta_coeff`, `gamma_coeff` and
    `big_gamma`.  Times are not validated here; the scalar functions and
    `coefficient_grid` check them.  Callers that need only Delta and gamma
    call `_rates`, which this function extends by Gamma.

    At small tau, gamma (of order tau^2) and Gamma (tau^3) lose relative
    accuracy by cancellation: both are formed from terms of order tau.
    Against 50-digit evaluations of the same formulas at r = 1, gamma and
    Gamma are off by 1.7e-9 and 2.2e-4 at tau = 1e-4, 2.9e-5 and 2.5e2 at
    tau = 1e-6 (at r = 0.05: 2.8e-11 and 1.2e-8, 1.1e-7 and 1.4e-3).  The
    absolute errors, about 1e-18 at g = 0.1, are far below anything
    exp(-Gamma) can see; Delta stays within 1.1e-9.
    """
    delta, gamma, (tau, e, c, s, bracket) = _rates(p, tau)
    w = 1.0 / p.r
    denom = 1.0 + w * w
    int_cos = bracket / denom
    int_sin = (w - e * (s + w * c)) / denom
    big = 2.0 * p.prefactors[1] * (tau - int_cos - p.r * int_sin)
    return delta, gamma, big


def delta_coeff(p: PhysicalParams, tau: float) -> float:
    """Diffusion coefficient Delta(tau) in units of omega_c.

    Delta(tau) = 2 g^2 (kT/omega_c) r^2/(1+r^2)
                 * {1 - e^(-tau) [cos(tau/r) - (1/r) sin(tau/r)]}.

    Starts at 0, oscillates with period 2*pi*r (transiently negative for
    r << 1), and relaxes to the positive asymptote as the e^(-tau) transient
    dies out.
    """
    return _rates(p, _check_tau(tau))[0]


def gamma_coeff(p: PhysicalParams, tau: float) -> float:
    """Dissipation coefficient gamma(tau) in units of omega_c.

    gamma(tau) = g^2 r/(1+r^2)
                 * [1 - e^(-tau) cos(tau/r) - r e^(-tau) sin(tau/r)].
    """
    return _rates(p, _check_tau(tau))[1]


def big_gamma(p: PhysicalParams, tau: float) -> float:
    """Integrated dissipation Gamma(tau) = 2 * integral_0^tau gamma, closed form.

    Uses the elementary antiderivatives
        integral_0^tau e^(-s) cos(ws) ds = [1 - e^(-tau)(cos - w sin)] / (1+w^2)
        integral_0^tau e^(-s) sin(ws) ds = [w - e^(-tau)(sin + w cos)] / (1+w^2)
    with w = 1/r; no quadrature is involved.
    """
    return closed_forms(p, _check_tau(tau))[2]


def _delta_gamma(p: PhysicalParams, taus: np.ndarray) -> np.ndarray:
    """Delta_Gamma at the times ``taus`` (>= 0, any order), in closed form.

    Gamma(s) = a s + b + Re(c z) with z = e^((-1 + i/r) s), a = 2 pref_gamma,
    c = a (2 r^2 + i r (1 - r^2))/(1 + r^2) and b = -Re c, so |c| = a r.
    Expanding exp(Re(c z)) as a double series in z and conj(z), the integrand
    exp(Gamma) Delta is pref_delta e^(a s + b) sum B_mn e^(lambda_mn s - a s)
    with lambda_mn = a - (m + n) + i (m - n)/r, and

        Delta_Gamma = pref_delta e^(-Re(c z)) S,
        S = sum B_mn e^(-a tau) (e^(lambda_mn tau) - 1)/lambda_mn.

    Each term is evaluated without cancellation: e^(-a tau) (e^(x tau) - 1)
    with x = a - (m + n) through expm1 (tau e^(-a tau) at resonance, x = 0),
    and e^(i (m - n) tau/r) - 1 from half-angle sines.  The terms of order tau
    sum to Delta(0) = 0, so for small tau max|lambda| the Taylor series of S
    in tau, whose coefficients are summed once, replaces them.  No term
    depends on earlier times, and a value does not depend on its grid.  The
    tables of the series are built once per `PhysicalParams`.

    Raises IntegrationError for |c| above _MAX_C.
    """
    if taus.size == 0:
        return np.zeros(0)
    return p._delta_gamma_series(taus)


def _delta_gamma_series(p: PhysicalParams):
    """The tables of `_delta_gamma`'s series at ``p``, and its evaluator on them."""
    r, w = p.r, 1.0 / p.r
    pref_delta, pref_gamma = p.prefactors
    a = 2.0 * pref_gamma
    c = a * r * complex(2.0 * r, 1.0 - r * r) / (1.0 + r * r)
    if not abs(c) <= _MAX_C:
        raise IntegrationError(
            f"Delta_Gamma series needs |c| = 2 g^2 r^2/(1+r^2) <= {_MAX_C}, got "
            f"|c| = {abs(c):.4g} (g = {p.g!r}, r = {p.r!r})"
        )
    top, term = 1, abs(c)
    while term >= _SERIES_TAIL:
        top += 1
        term *= abs(c) / top
    m = np.arange(top + 1)
    deg, diff = m[:, None] + m, m[:, None] - m
    # exp(Re(c z)) = sum A_mn z^m conj(z)^n, to degree top - 1; times
    # Delta/pref_delta = 1 - Re((1 + i w) z) it is sum B_mn z^m conj(z)^n.
    v = np.cumprod(np.concatenate(([1.0], 0.5 * c / m[1:])))
    coef_a = np.where(deg < top, np.outer(v, v.conj()), 0.0)
    coef_b = coef_a.copy()
    coef_b[1:] -= complex(0.5, 0.5 * w) * coef_a[:-1]
    coef_b[:, 1:] -= complex(0.5, -0.5 * w) * coef_a[:, :-1]
    lam = a - deg + 1j * w * diff
    keep = deg <= top
    lmax = np.abs(lam[keep]).max()
    # Terms m > n, folded with their conjugates m < n, sit at j = m + n and
    # k = m - n; terms m = n have a real lambda and sit at j = 2m.
    off = keep & (diff > 0)
    jt, kt, q = deg[off], diff[off], 2.0 * coef_b[off] / lam[off]
    diag = np.arange(top // 2 + 1)
    dj, bd = 2 * diag, coef_b[diag, diag].real
    # S = e^(-a tau) tau y sum_k taylor_k y^k with y = lmax tau.
    k = np.arange(_TAYLOR_TERMS)
    fact = np.cumprod(np.arange(2.0, _TAYLOR_TERMS + 2.0))
    powers = (lam[keep][:, None] / lmax) ** (k + 1)
    taylor = (coef_b[keep][:, None] * powers).real.sum(axis=0) / fact
    j = np.arange(top + 1.0)
    x = a - j
    ax = np.abs(x)

    def series(t: np.ndarray) -> np.ndarray:
        t = t[:, None]
        # e^(-a tau) (e^(x tau) - 1) = sign(x) e^(-min(a, j) tau) h, and its
        # quotient by x.
        h = -np.expm1(-ax * t)
        d = np.exp(-np.minimum(a, j) * t)
        f = np.sign(x) * d * h
        g = d * np.where(ax > 0.0, h / np.where(ax > 0.0, ax, 1.0), t)
        e = np.exp(-j * t)
        half = _half_phase(t, r)
        sin, cos = np.sin(half * j), np.cos(half * j)
        # e^(i k tau/r) - 1 = 2i sin(k half) e^(i k half)
        xr, xi = -2.0 * sin * sin, 2.0 * sin * cos
        # `take` keeps each row contiguous, so a row sums in the same order
        # however many rows there are: a scalar equals its grid entry.
        ej = np.take(e, jt, axis=1)
        terms = q.real * (np.take(f, jt, axis=1) + ej * np.take(xr, kt, axis=1))
        terms -= q.imag * (ej * np.take(xi, kt, axis=1))
        total = (bd * np.take(g, dj, axis=1)).sum(axis=1) + terms.sum(axis=1)
        small = t[:, 0] <= _TAYLOR_REACH / lmax
        if small.any():
            ts = t[small, 0]
            ys = ts * lmax
            total[small] = np.exp(-a * ts) * ts * ys * (taylor * ys[:, None] ** k).sum(axis=1)
        re_cz = e[:, 1] * (c.real * (1.0 + xr[:, 1]) - c.imag * xi[:, 1])
        return pref_delta * np.exp(-re_cz) * total

    step = max(1, _PASS_VALUES // (q.size + top + 1))
    return lambda taus: np.concatenate([series(taus[i:i + step])
                                        for i in range(0, taus.size, step)])


def delta_big_gamma(p: PhysicalParams, tau: float) -> float:
    """Damped integrated diffusion Delta_Gamma(tau).

    exp(-Gamma(tau)) * integral_0^tau exp(Gamma(s)) Delta(s) ds, in the closed
    form of `coefficient_grid`, so a scalar value equals the corresponding
    grid entry bit for bit.

    Raises
    ------
    IntegrationError
        If |c| = 2 g^2 r^2/(1+r^2) is above the series' cap (strong coupling).
    """
    return float(_delta_gamma(p, np.array([_check_tau(tau)]))[0])


def coefficient_grid(p: PhysicalParams, taus: Sequence[float]) -> CoefficientGrid:
    """Evaluate all four coefficients on an increasing time grid.

    Delta, gamma and Gamma come from `closed_forms`, Delta_Gamma from its
    closed-form series; every entry is computed from its own time alone.
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
    return CoefficientGrid(taus, delta, gamma, big, _delta_gamma(p, taus))


def _negative_runs(negative, t: np.ndarray, neg: np.ndarray) -> list[tuple[float, float]]:
    """Runs where ``negative`` (times of any shape to booleans) holds, given
    its values ``neg`` at the increasing knots ``t``.

    Every change of ``neg`` between two knots is cut into equal parts, about
    _PASS_POINTS times per pass over all of them, down to two adjacent doubles.
    A run starts or ends at the first double past its change, or at t[0] or
    t[-1] if it holds there."""
    i = np.flatnonzero(neg[:-1] != neg[1:])
    lo, hi, lo_neg = t[i], t[i + 1], neg[i, None]
    rows, parts = np.arange(len(i)), max(2, _PASS_POINTS // max(len(i), 1))
    inner, far = np.arange(1, parts) / parts, np.ones((len(i), 1), dtype=bool)
    while np.any(np.nextafter(lo, hi) < hi):
        x = lo[:, None] + (hi - lo)[:, None] * inner
        j = np.argmax(np.hstack((negative(x) != lo_neg, far)), axis=1)
        x = np.hstack((lo[:, None], x, hi[:, None]))
        lo, hi = x[rows, j], x[rows, j + 1]
    bounds = [float(t[0])] * bool(neg[0]) + hi.tolist() + [float(t[-1])] * bool(neg[-1])
    return list(zip(bounds[::2], bounds[1::2]))


def classify_lindblad(
    p: PhysicalParams, tau_max: float, n_samples: int | None = None
) -> LindbladClassification:
    """Classify the generator as Lindblad-type or not on [0, tau_max], exactly.

    Each f = Delta +/- gamma is A (1 - e^(-tau) cos(w tau)) + C e^(-tau) sin(w tau),
    w = 1/r, so f' is proportional to e^(-tau) cos(w tau - phi): f is monotone
    between extrema pi*r apart, and past the horizon tau* = ln(sqrt(A^2+C^2)/|A|)
    it has the sign of A.  With the knots 0, the extrema before
    min(tau_max, tau*), that end and tau_max, `_negative_runs` refines every
    sign change on `_rates` to the first double past it.  Nothing is sampled,
    so tau_max beyond tau* changes nothing.  ``n_samples`` is ignored.
    Raises IntegrationError above _MAX_BRACKETS.
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
    names, negative_intervals = ("delta_plus_gamma", "delta_minus_gamma"), {}
    for name, sign, (a, c), end in zip(names, (1.0, -1.0), combos, ends):
        k = np.arange(math.ceil(end / (math.pi * p.r)) + 2)
        ext = p.r * (math.atan2(a * w - c, a + c * w) + math.pi * (k + 0.5))
        t = np.concatenate(([0.0], ext[(ext > 0.0) & (ext < end)], [end, tau_max]))

        def negative(x, sign=sign):
            d, g, _ = _rates(p, x)
            return d + sign * g < 0.0

        negative_intervals[name] = _negative_runs(negative, t, negative(t))
    is_lindblad = not any(negative_intervals.values())
    return LindbladClassification(is_lindblad, negative_intervals, dict(zip(names, horizon)))

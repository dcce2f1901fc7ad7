"""1-D quadrature: Gauss-Legendre panels, adaptive Simpson, fixed-grid Simpson.

`integrate_panels` applies a fixed pair of Gauss-Legendre rules to many
panels at once on arrays; the library's Delta_Gamma integral runs on it.  The
adaptive routine is a classic recursive Simpson scheme with Richardson
correction, kept as an independent scalar integrator for tests; the
fixed-grid routine is composite Simpson on a uniform mesh.  Tests use the
fixed-grid integrator as an independent cross-check of the other two, so
they must never share code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Absolute accuracy floor: integrals near zero are accepted once the error
# estimate drops below this, regardless of the relative tolerance.
ABS_FLOOR = 1e-14

# Hard cap on integrand evaluations, independent of the recursion-depth cap.
MAX_EVALS = 10**6


class IntegrationError(Exception):
    """Raised when an integral cannot be computed to its tolerance.

    That covers a non-finite integrand value and an error estimate that does
    not meet the tolerance.
    """


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive integration.

    Attributes
    ----------
    value : float
        Estimate of the integral.
    error_estimate : float
        Accumulated Richardson error estimate (non-negative).
    evaluations : int
        Number of integrand evaluations performed.
    converged : bool
        True iff no subdivision/evaluation cap was hit and the final error
        estimate satisfies error_estimate <= max(tol*|value|, ABS_FLOOR).
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _checked_call(f: Callable[[float], float], x: float) -> float:
    v = float(f(x))
    if not math.isfinite(v):
        raise IntegrationError(f"integrand returned non-finite value {v!r} at x={x!r}")
    return v


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_subdiv: int = 50,
) -> QuadratureResult:
    """Estimate the integral of ``f`` over ``[a, b]`` by adaptive Simpson.

    Parameters
    ----------
    f : callable
        Real-valued integrand of one real variable.
    a, b : float
        Integration limits, a <= b.
    tol : float
        Relative tolerance target; accuracy bottoms out at ``ABS_FLOOR``
        absolute for integrals near zero.
    max_subdiv : int
        Maximum recursion depth; on top of this, at most ``MAX_EVALS``
        integrand evaluations are spent.

    Returns
    -------
    QuadratureResult
        ``converged`` is False when a cap was hit or the accumulated error
        estimate failed the tolerance check against the final value.

    Raises
    ------
    ValueError
        If a > b or tol <= 0.
    IntegrationError
        If the integrand returns NaN or infinity anywhere it is sampled.
    """
    if a > b:
        raise ValueError(f"integration limits must satisfy a <= b, got a={a!r}, b={b!r}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)

    evals = 0

    def feval(x: float) -> float:
        nonlocal evals
        evals += 1
        return _checked_call(f, x)

    m = 0.5 * (a + b)
    fa, fm, fb = feval(a), feval(m), feval(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    capped = False

    def recurse(x0: float, x2: float, f0: float, f1: float, f2: float,
                s_whole: float, eps: float, depth: int) -> tuple[float, float]:
        # Returns (value, error_estimate) for [x0, x2]; f1 is f at the midpoint.
        # eps is the leaf accuracy budget, halved per split so accepted leaves
        # sum to at most the global budget.
        nonlocal capped
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = feval(xl)
        fr = feval(xr)
        h = x2 - x0
        s_left = h / 12.0 * (f0 + 4.0 * fl + f1)
        s_right = h / 12.0 * (f1 + 4.0 * fr + f2)
        s_halves = s_left + s_right
        err = abs(s_halves - s_whole) / 15.0
        if err <= eps or depth >= max_subdiv or evals + 4 > MAX_EVALS:
            if err > eps:
                capped = True
            # Richardson-corrected leaf value.
            return s_halves + (s_halves - s_whole) / 15.0, err
        vl, el = recurse(x0, xm, f0, fl, f1, s_left, 0.5 * eps, depth + 1)
        vr, er = recurse(xm, x2, f1, fr, f2, s_right, 0.5 * eps, depth + 1)
        return vl + vr, el + er

    # The error budget needs |integral|, which is only known afterwards: seed
    # it from the coarse estimate and retry tighter when cancellation makes
    # the refined value smaller than the seed (oscillatory integrands).
    eps0 = max(tol * abs(whole), ABS_FLOOR)
    for _ in range(4):
        capped = False
        value, err = recurse(a, b, fa, fm, fb, whole, eps0, 0)
        target = max(tol * abs(value), ABS_FLOOR)
        if capped or err <= target:
            break
        eps0 = 0.5 * target
    converged = (not capped) and err <= max(tol * abs(value), ABS_FLOOR)
    return QuadratureResult(value, err, evals, converged)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Legendre recurrence, the weights twice the squared first components of
    its eigenvectors.
    """
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vecs[0] ** 2


# The 10-point rule gives the value, the 5-point rule on the same panel the
# error estimate; the two share no nodes, so a panel costs 15 evaluations.
_FINE = _gauss_legendre(10)
_COARSE = _gauss_legendre(5)


def integrate_panels(
    f: Callable[[np.ndarray], np.ndarray], a, b
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrals of ``f`` over the panels [a[i], b[i]], all panels in one call.

    ``f`` maps an array of abscissae of shape (panels, 15) to integrand
    values of the same shape.  Each panel gets the 10-point Gauss-Legendre
    rule; the 5-point rule on the same panel gives the error estimate
    |Q10 - Q5|, which bounds the error of the 5-point value and so, very
    pessimistically, that of the 10-point one.

    Returns
    -------
    (value, error_estimate, magnitude)
        Arrays with one entry per panel; ``magnitude`` is the 10-point
        estimate of the integral of |f|, the scale against which a relative
        tolerance is judged when the integrand oscillates.  Non-finite
        integrand values give a NaN error estimate.
    """
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[:, None]
    half = 0.5 * (b - a)
    x_fine, w_fine = _FINE
    x_coarse, w_coarse = _COARSE
    vals = f(0.5 * (a + b) + half * np.concatenate([x_fine, x_coarse]))
    fine, coarse = vals[:, :10], vals[:, 10:]
    half = half[:, 0]
    value = (fine * w_fine).sum(axis=1) * half
    estimate = (coarse * w_coarse).sum(axis=1) * half
    with np.errstate(invalid="ignore"):
        error = np.where(np.isfinite(value), np.abs(value - estimate), np.nan)
    magnitude = (np.abs(fine) * w_fine).sum(axis=1) * half
    return value, error, magnitude


def integrate_fixed(f: Callable[[float], float], a: float, b: float, panels: int) -> float:
    """Composite Simpson on a uniform grid (test oracle, no adaptivity).

    ``panels`` is rounded up to the next even integer. Non-finite integrand
    values raise IntegrationError, as in the adaptive routine.
    """
    if a > b:
        raise ValueError(f"integration limits must satisfy a <= b, got a={a!r}, b={b!r}")
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels!r}")
    if a == b:
        return 0.0
    n = int(panels)
    if n % 2 == 1:
        n += 1
    h = (b - a) / n
    total = _checked_call(f, a) + _checked_call(f, b)
    for i in range(1, n):
        x = a + i * h
        total += (4.0 if i % 2 == 1 else 2.0) * _checked_call(f, x)
    return total * h / 3.0

"""1-D quadrature: Gauss-Legendre panels for the library, fixed-grid Simpson as the check.

`integrate_panels` applies a fixed pair of Gauss-Legendre rules to many
panels at once on arrays, with an error estimate per panel; the library's
Delta_Gamma integral runs on it.  `integrate_fixed` is composite Simpson on a
uniform mesh, evaluated point by point in plain Python.  Tests use it as the
independent cross-check of the library's integrals, so the two must never
share code paths.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class IntegrationError(Exception):
    """Raised when an integral cannot be computed to its tolerance.

    That covers a non-finite integrand value and an error estimate that does
    not meet the tolerance.
    """


def _checked_call(f: Callable[[float], float], x: float) -> float:
    v = float(f(x))
    if not math.isfinite(v):
        raise IntegrationError(f"integrand returned non-finite value {v!r} at x={x!r}")
    return v


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
    values raise IntegrationError naming the abscissa.
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

"""1-D quadrature oracle and the numerical-failure exception.

The library computes every coefficient in closed form; nothing in it
integrates numerically.  `integrate_fixed` is composite Simpson on a uniform
mesh, evaluated point by point in plain Python.  Tests use it as the
independent cross-check of the library's closed forms, so it must never share
code paths with them.  `IntegrationError` is the library's numerical failure:
an integrand value that is not finite here, a coupling beyond the Delta_Gamma
series' reach, or a Fock-oracle or Lindblad-classification limit.
"""

from __future__ import annotations

import math
from typing import Callable


class IntegrationError(ArithmeticError):
    """Raised when a quantity cannot be computed to double precision.

    An ArithmeticError, so the command line maps it to exit code 3.
    """


def _nonfinite(v: float, x: float) -> IntegrationError:
    return IntegrationError(f"integrand returned non-finite value {v!r} at x={x!r}")


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
    # Each value is checked inline, without a call per node.  -0.0 adds
    # nothing to any value, so the ends sum as f(a) + f(b).
    isfinite, total = math.isfinite, -0.0
    for x in (a, b):
        v = float(f(x))
        if not isfinite(v):
            raise _nonfinite(v, x)
        total += v
    for i in range(1, n):
        x = a + i * h
        v = float(f(x))
        if not isfinite(v):
            raise _nonfinite(v, x)
        total += (4.0 if i % 2 == 1 else 2.0) * v
    return total * h / 3.0

"""Helpers shared by the three workloads: seeding, references and error measures."""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from qbrownian.coefficients import PhysicalParams, big_gamma, delta_coeff
from qbrownian.quadrature import integrate_fixed

# Reservoir temperature of the paper's figures: omega_c / (2 pi kT) = 3e-5.
PAPER_KT = 1.0 / (2.0 * math.pi * 3.0e-5)
PAPER_G = 0.1

# Past this time the e^(-tau) transient of Delta is below double precision, so
# the Delta_Gamma integrand is smooth there and needs only a coarse mesh.
_TRANSIENT_END = 40.0

# Simpson panels per unit time and per unit of (omega0 + 1) on the transient.
# With one Richardson step this reproduces 30-digit mpmath.quad values of
# Delta_Gamma to about 1e-14 relative for r in [0.05, 1] and tau <= 50.
_PANELS_PER_UNIT = 32

# e^(-Gamma) below this makes Delta_Gamma its late-time limit kT * r to
# double precision, whatever happened during the transient.
_GAMMA_SATURATED = 60.0


def task_rng(workload: str, seed: int, cycle: int) -> random.Random:
    """Deterministic generator for one cycle of one workload's task stream."""
    return random.Random(f"{workload}/{seed}/{cycle}")


def paper_params(r: float, g: float = PAPER_G) -> PhysicalParams:
    return PhysicalParams(g=g, r=r, kt_over_wc=PAPER_KT)


def _richardson_simpson(f, a: float, b: float, panels: int) -> float:
    coarse = integrate_fixed(f, a, b, panels)
    fine = integrate_fixed(f, a, b, 2 * panels)
    return fine + (fine - coarse) / 15.0


@functools.lru_cache(maxsize=None)
def reference_delta_gamma(p: PhysicalParams, tau: float) -> float:
    """Delta_Gamma(tau) by fixed-grid Simpson, independent of the adaptive path.

    Uses the library's closed-form Delta and Gamma as the integrand, and
    `integrate_fixed` (the package's designated oracle) with one Richardson
    step in place of the adaptive quadrature the program uses.  Cached, since
    checks of tasks that share r and a Wigner time ask for the same value.
    """
    gt = big_gamma(p, tau)
    if tau == 0.0 or p.g == 0.0:
        return 0.0
    if gt >= _GAMMA_SATURATED:
        return p.kt_over_wc * p.r

    def f(s: float) -> float:
        return math.exp(big_gamma(p, s) - gt) * delta_coeff(p, s)

    a = min(tau, _TRANSIENT_END)
    panels = max(256, math.ceil(a * (p.omega0 + 1.0) * _PANELS_PER_UNIT))
    value = _richardson_simpson(f, 0.0, a, panels)
    if tau > a:
        value += _richardson_simpson(f, a, tau, 256)
    return value


def rel_err(got, want) -> float:
    """Norm-wise relative error max|got - want| / max|want| (absolute if want is 0)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    diff = float(np.max(np.abs(got - want))) if want.size else 0.0
    return diff / scale if scale > 0.0 else diff


def digits(err: float) -> float:
    """-log10 of a relative error, capped at 17 (exact agreement in float64)."""
    return 17.0 if err <= 1e-17 else min(17.0, -math.log10(err))


def reference_moments(mean0, cov0, p: PhysicalParams, tau: float, frame: str = "lab"):
    """(mean, cov) at tau from the channel law with the reference Delta_Gamma.

    mean = e^(-Gamma/2) R(-w0 tau) mean0, cov = e^(-Gamma) R cov0 R^T + Delta_Gamma I
    in the lab frame; the corotating frame undoes R.
    """
    theta = 0.0 if frame == "corotating" else -p.omega0 * tau
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    decay = math.exp(-big_gamma(p, tau))
    mean = math.sqrt(decay) * (rot @ np.asarray(mean0, dtype=float))
    cov = decay * (rot @ np.asarray(cov0, dtype=float) @ rot.T)
    cov = cov + reference_delta_gamma(p, tau) * np.eye(2)
    return mean, cov


@dataclass
class Check:
    """Verdict of one task's output check.

    ``err`` is the worst relative error against the workload's independent
    reference (None when the task produced nothing to compare); ``counters``
    are per-layer values only a finished output can give, for the traced run.
    A task that raised or exited non-zero fails without being ``wrong``.
    """

    ok: bool
    err: float | None = None
    detail: str = ""
    counters: dict = field(default_factory=dict)
    wrong: bool = False  # the output was produced and disagrees with the check


def wrong(detail: str, err: float | None = None, counters: dict | None = None) -> Check:
    """Verdict for output that was produced but is incorrect."""
    return Check(False, err, detail, counters or {}, wrong=True)

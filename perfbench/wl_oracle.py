"""Workload `oracle`: the independent cross-check path.

A task prepares a coherent or squeezed state in a truncated number basis,
integrates the master equation to a short tau (longer windows cross the
anti-diffusion lobe, which is unstable by design), renders the final state's
Wigner function, and convolves the initial Wigner function with the channel
propagator on a grid of the same edge.  `fock` and `wigner_by_convolution` do
the work; `coefficients` is reached only through scalar calls from RK4.

Each cycle holds every (state kind, Fock dimension) pair once, in blocks of
three that hold one task per dimension.  Each block draws one grid edge and
one end time from each third of their ranges, so every block costs about the
same; which dimension gets which third turns from block to block, so that
every nine blocks pair each dimension with each (edge third, tau third) once
and runs of different seeds hold the same mix of task costs.  One convolution
row is 8 * edge^3 bytes, 1.8 MB at 61 and 4.3 MB at 81, so the working set
falls on both sides of a 2-4 MiB L2 cache.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from qbrownian import fock, gaussian, wigner

from common import Check, digits, paper_params, rel_err, task_rng, wrong

NAME = "oracle"
KINDS = ("coherent", "squeezed")
DIMS = (40, 50, 60)
EDGE_RANGE = (61, 81)
# The propagator's width sqrt(Delta_Gamma) must span several inner-grid cells
# for the midpoint convolution to converge; from tau = 0.06 on it does at 61
# points per edge.  Past tau ~ 0.15 the Fock integration meets the
# anti-diffusion lobe.
TAU_RANGE = (0.06, 0.12)
ALPHA_RANGE = (0.5, 1.5)  # |alpha| of coherent states
SIGMA2_RANGE = (0.4, 0.7)  # squeezed-variance ratio of squeezed states
R = 0.05
CYCLE_LEN = len(KINDS) * len(DIMS)
BLOCK_LEN = len(DIMS)
TRACE_CYCLES = 2

# Tolerances.  The sizes differ from tests/test_fock.py and tests/test_wigner.py
# (whose inner convolution grids have 201-301 points per edge and whose
# squeezed states are stronger), so they are stated here; none is looser than
# the test with the nearest setting.
MOMENT_TOL = 1e-8  # Fock vs Gaussian moments, abs (test_fock: 1e-8 coherent)
FOCK_WIGNER_TOL = 1e-8  # Fock vs closed-form grid, abs (test_fock: 1e-6 squeezed)
CONV_TOL = 1e-10  # convolution vs closed-form grid, abs (test_wigner: 1e-12, 201+ points)
NORM_TOL = 1e-6  # grid_moments norm of the convolution grid
MEAN_TOL = 1e-8
COV_TOL = 1e-5  # as test_grid_moments_recover_state_moments
TRACE_DRIFT_TOL = 1e-9  # as test_coherent_matches_gaussian_before_recoherence_window

lib = SimpleNamespace(
    make_coherent_fock=fock.make_coherent_fock,
    make_squeezed_fock=fock.make_squeezed_fock,
    integrate_me=fock.integrate_me,
    fock_to_wigner=fock.fock_to_wigner,
    propagate=gaussian.propagate,
    wigner_gaussian=wigner.wigner_gaussian,
    wigner_by_convolution=wigner.wigner_by_convolution,
    grid_moments=wigner.grid_moments,
)


def _within(rng, bounds: tuple[float, float], k: int, n: int) -> float:
    """Uniform draw from the k-th of n equal bins from bounds[0] towards bounds[1]."""
    lo, hi = bounds
    return lo + (hi - lo) * (k + rng.random()) / n


def cycle_tasks(seed: int, cycle: int) -> list[dict]:
    rng = task_rng(NAME, seed, cycle)
    lo, hi = EDGE_RANGE
    # kind_orders[j] gives, per dimension, the state kind of block j.
    kind_orders = list(zip(*(rng.sample(KINDS, len(KINDS)) for _ in DIMS)))
    n = BLOCK_LEN
    tasks = []
    for j, kinds in enumerate(kind_orders):
        g = cycle * len(kind_orders) + j  # block number in the stream
        block = []
        for level, (kind, dim) in enumerate(zip(kinds, DIMS)):
            # Larger displacements and stronger squeezing get the larger bases,
            # so that truncation error stays far below the tolerances.
            amp = _within(rng, ALPHA_RANGE, level, len(DIMS))
            sigma2 = _within(rng, SIGMA2_RANGE[::-1], level, len(DIMS))
            phase = rng.uniform(0.0, 2.0 * math.pi)
            block.append({
                "state": kind,
                "dim": dim,
                "edge": int(_within(rng, (lo, hi + 1), (level + g) % n, n)),
                "tau": _within(rng, TAU_RANGE, (level + g // n) % n, n),
                "alpha": [amp * math.cos(phase), amp * math.sin(phase)],
                "sigma2": sigma2,
            })
        rng.shuffle(block)
        tasks += block
    return tasks


class Workload:
    def __init__(self, scratch) -> None:
        pass

    def warm_up(self) -> None:
        self.run({"state": "squeezed", "dim": 20, "edge": 9, "tau": 0.06,
                  "alpha": [0.0, 0.0], "sigma2": 0.6})

    def run(self, task: dict):
        p = paper_params(R)
        tau, edge = task["tau"], task["edge"]
        if task["state"] == "coherent":
            alpha = complex(*task["alpha"])
            rho0 = lib.make_coherent_fock(alpha, task["dim"])
            state0 = gaussian.make_coherent(alpha)
        else:
            s = gaussian.squeeze_from_sigma2(task["sigma2"])
            rho0 = lib.make_squeezed_fock(s, task["dim"])
            state0 = gaussian.make_squeezed(0j, s)
        ftraj = lib.integrate_me(rho0, p, tau, n_record=5)
        lab = lib.propagate(state0, p, tau)
        corot = lab.rotated(p.omega0 * tau)
        spec = wigner.GridSpec.cover_state(corot, n_sigma=6.0, nx=edge, ny=edge)
        w_fock = lib.fock_to_wigner(ftraj.states[-1], spec)
        w_corot = lib.wigner_gaussian(corot, spec)
        outer = wigner.GridSpec.cover_state(lab, n_sigma=6.0, nx=edge, ny=edge)
        inner = wigner.GridSpec.cover_state(state0, n_sigma=8.0, nx=edge, ny=edge)
        w_conv = lib.wigner_by_convolution(state0, p, tau, outer, inner)
        w_lab = lib.wigner_gaussian(lab, outer)
        moments = lib.grid_moments(w_conv)
        return ftraj, lab, corot, w_fock, w_corot, w_conv, w_lab, moments

    def check(self, task: dict, out) -> Check:
        ftraj, lab, corot, w_fock, w_corot, w_conv, w_lab, moments = out
        min_eig = min(s.min_eigenvalue() for s in ftraj.states)
        counters = {"fock.integrate_me.min_eigenvalue": min_eig,
                    "fock.integrate_me.max_trace_drift": float(ftraj.max_trace_drift)}
        got = [ftraj.n_mean[-1], ftraj.var_x[-1], ftraj.var_y[-1],
               ftraj.mean_x[-1], ftraj.mean_y[-1]]
        want = [gaussian.mean_quanta(corot), corot.var_x, corot.var_y, *corot.mean]
        errs = {
            "moments": (float(np.max(np.abs(np.subtract(got, want)))), MOMENT_TOL,
                        rel_err(got, want)),
            "fock_wigner": (float(np.max(np.abs(w_fock.values - w_corot.values))),
                            FOCK_WIGNER_TOL, rel_err(w_fock.values, w_corot.values)),
            "convolution": (float(np.max(np.abs(w_conv.values - w_lab.values))), CONV_TOL,
                            rel_err(w_conv.values, w_lab.values)),
        }
        err = max(rel for _, _, rel in errs.values())
        for name, (diff, tol, _) in errs.items():
            if not diff <= tol:
                return wrong(f"{name} differs by {diff:.3e} > {tol:.0e}", err, counters)
        grid_checks = (
            ("grid norm", abs(moments.norm - 1.0), NORM_TOL),
            ("grid mean", float(np.max(np.abs(moments.mean - lab.mean))), MEAN_TOL),
            ("grid cov", float(np.max(np.abs(moments.cov - lab.cov))), COV_TOL),
            ("trace drift", ftraj.max_trace_drift, TRACE_DRIFT_TOL),
            ("negativity", -min_eig, fock.NEGATIVITY_TOL),
        )
        for name, diff, tol in grid_checks:
            if not diff <= tol:
                return wrong(f"{name} off by {diff:.3e} > {tol:.0e}", err, counters)
        return Check(True, err, f"{digits(err):.2f} digits", counters)

    def rerun_check(self):
        return None

    def close(self) -> None:
        pass

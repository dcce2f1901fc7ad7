"""Workload `trajectory`: the library path behind `moments`, with no file writing.

Each cycle holds one task for every (r, tau_max) pair, in blocks of three
that hold one task per tau_max, so every run sees the same mix of oscillation
frequencies and time spans; the seed draws the initial states, which r goes
into which block, and the order.  `coefficients` and `quadrature` (the Delta_Gamma
accumulation) and `gaussian` do almost all of the work; `cli`, `wigner` and
`fock` do none.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from qbrownian import gaussian

from common import Check, digits, paper_params, reference_moments, rel_err, task_rng, wrong

NAME = "trajectory"
R_VALUES = (0.05, 0.1, 0.2, 0.5, 1.0)
TAU_MAX_VALUES = (1.0, 5.0, 50.0)
N_POINTS = 5001
CYCLE_LEN = len(R_VALUES) * len(TAU_MAX_VALUES)
BLOCK_LEN = len(TAU_MAX_VALUES)
TRACE_CYCLES = 1

# Final covariance against the fixed-grid Delta_Gamma reference.  The program
# integrates with relative tolerance 1e-10 per grid segment.
COV_TOL = 1e-8

# The benchmark's own references to the library; the traced run wraps these.
lib = SimpleNamespace(
    evolve_trajectory=gaussian.evolve_trajectory,
    detect_squeezing_intervals=gaussian.detect_squeezing_intervals,
    oscillation_period=gaussian.oscillation_period,
)


def cycle_tasks(seed: int, cycle: int) -> list[dict]:
    rng = task_rng(NAME, seed, cycle)
    r_orders = [rng.sample(R_VALUES, len(R_VALUES)) for _ in TAU_MAX_VALUES]
    tasks = []
    for block in zip(*r_orders):
        shapes = list(zip(block, TAU_MAX_VALUES))
        rng.shuffle(shapes)
        for r, tau_max in shapes:
            amp, phase = rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0 * math.pi)
            tasks.append({
                "r": r,
                "tau_max": tau_max,
                "state": rng.choice(("coherent", "squeezed")),
                "alpha": [amp * math.cos(phase), amp * math.sin(phase)],
                "sigma2": rng.uniform(0.05, 0.5),
            })
    return tasks


def initial_state(task: dict) -> gaussian.GaussianState:
    alpha = complex(*task["alpha"])
    if task["state"] == "coherent":
        return gaussian.make_coherent(alpha)
    return gaussian.make_squeezed(alpha, gaussian.squeeze_from_sigma2(task["sigma2"]))


class Workload:
    def __init__(self, scratch) -> None:
        pass

    def warm_up(self) -> None:
        self.run({"r": 0.5, "tau_max": 1.0, "state": "squeezed", "alpha": [0.5, 0.0],
                  "sigma2": 0.2}, n_points=11)

    def run(self, task: dict, n_points: int = N_POINTS):
        p = paper_params(task["r"])
        traj = lib.evolve_trajectory(initial_state(task), p, task["tau_max"], n_points)
        variances = traj.variances(frame="corotating")
        means = traj.means(frame="corotating")
        intervals = (lib.detect_squeezing_intervals(traj, "x"),
                     lib.detect_squeezing_intervals(traj, "y"))
        period = lib.oscillation_period(list(zip(traj.times, traj.n_mean)))
        return traj, variances, means, intervals, period

    def check(self, task: dict, out) -> Check:
        traj, (vx, vy, cxy), _, intervals, period = out
        det_margin = float((vx * vy - cxy * cxy).min()) - 0.25
        if det_margin < -gaussian.PHYSICALITY_TOL:
            return wrong(f"det(cov) - 1/4 = {det_margin:.3e}", None)
        state0 = initial_state(task)
        p = paper_params(task["r"])
        _, cov_ref = reference_moments(state0.mean, state0.cov, p, task["tau_max"])
        lab_x, lab_y, lab_xy = traj.variances(frame="lab")
        cov = [[lab_x[-1], lab_xy[-1]], [lab_xy[-1], lab_y[-1]]]
        err = rel_err(cov, cov_ref)
        if not err <= COV_TOL:
            return wrong(f"final covariance relative error {err:.3e}", err)
        for ivs in intervals:
            if any(not 0.0 <= a <= b <= task["tau_max"] for a, b in ivs):
                return wrong(f"squeezing intervals out of range: {ivs}", err)
        if period is not None and not (period > 0.0 and math.isfinite(period)):
            return wrong(f"oscillation period {period!r}", err)
        return Check(True, err, f"{digits(err):.2f} digits, det margin {det_margin:.3e}")

    def rerun_check(self):
        return None

    def close(self) -> None:
        pass


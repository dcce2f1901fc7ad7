"""Spans around calls into each qbrownian layer, recorded from outside the package.

The traced run wraps public functions where each consuming module imported
them (for example `qbrownian.gaussian.coefficient_grid`) and the benchmark's
own references to the library.  Calls a module makes to its own functions are
not wrapped: the Delta_Gamma integrand alone runs millions of times per run.

A span is [name, start, end, parent, task id, time covered by children]; spans
stay in memory until the run ends.  Self time is a span's duration minus the
time its child spans cover.  Spans are timed in process CPU time, the clock
of the untraced task times in run.py.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import process_time


def _len_arg(i: int, name: str):
    def count(args, kwargs, result):
        return {"points": len(kwargs[name] if name in kwargs else args[i])}
    return count


def _quadrature(args, kwargs, result):
    return {"evaluations": result.evaluations, "unconverged": int(not result.converged)}


def _evolve(args, kwargs, result):
    return {"points": len(result.times)}


def _grid_points(args, kwargs, result):
    return {"points": result.spec.nx * result.spec.ny}


def _convolution(args, kwargs, result):
    # Computed from array sizes: one exp per (outer node, inner node) pair;
    # one row of the kernel matrix is ny * inner nodes float64 values.
    outer = result.spec
    inner = kwargs["inner"] if "inner" in kwargs else args[4]
    return {"kernel_evals": outer.nx * outer.ny * inner.nx * inner.ny,
            "row_bytes": outer.ny * inner.nx * inner.ny * 8}


def _integrate_me(args, kwargs, result):
    # Computed from the integrator's documented step rule: dt defaults to
    # 1e-3 * min(1, r) and is rounded down so records land on steps.
    p, tau_max = args[1], args[2]
    dt = kwargs.get("dt") or 1e-3 * min(1.0, p.r)
    rec_dt = tau_max / (len(result.times) - 1)
    steps = max(1, math.ceil(rec_dt / dt)) * (len(result.times) - 1)
    return {"rk4_steps": steps, "rhs_evals": 4 * steps}


def _fock_to_wigner(args, kwargs, result):
    # Computed: the band recurrence advances dim * (dim - 1) / 2 times per node.
    dim = args[0].dim
    return {"recurrence_steps": dim * (dim - 1) // 2 * result.spec.nx * result.spec.ny}


# (module, attribute, span name, counter).  "Class.method" patches a method.
PROGRAM_TARGETS = (
    ("qbrownian.coefficients", "integrate_adaptive", "quadrature.integrate_adaptive", _quadrature),
    ("qbrownian.gaussian", "coefficient_grid", "coefficients.coefficient_grid", _len_arg(1, "taus")),
    ("qbrownian.cli", "coefficient_grid", "coefficients.coefficient_grid", _len_arg(1, "taus")),
    ("qbrownian.gaussian", "delta_big_gamma", "coefficients.delta_big_gamma", None),
    ("qbrownian.wigner", "delta_big_gamma", "coefficients.delta_big_gamma", None),
    ("qbrownian.gaussian", "big_gamma", "coefficients.scalar", None),
    ("qbrownian.wigner", "big_gamma", "coefficients.scalar", None),
    ("qbrownian.fock", "delta_coeff", "coefficients.scalar", None),
    ("qbrownian.fock", "gamma_coeff", "coefficients.scalar", None),
    ("qbrownian.cli", "classify_lindblad", "coefficients.classify_lindblad", None),
    ("qbrownian.cli", "evolve_trajectory", "gaussian.evolve_trajectory", _evolve),
    ("qbrownian.cli", "detect_squeezing_intervals", "gaussian.detect_squeezing_intervals", None),
    ("qbrownian.cli", "oscillation_period", "gaussian.oscillation_period", None),
    ("qbrownian.cli", "propagate", "gaussian.propagate", None),
    ("qbrownian.cli", "wigner_gaussian", "wigner.wigner_gaussian", _grid_points),
    ("qbrownian.gaussian", "Trajectory.variances", "gaussian.frames", None),
    ("qbrownian.gaussian", "Trajectory.means", "gaussian.frames", None),
)

# Attribute of a workload's `lib` namespace -> (span name, counter).
LIB_TARGETS = {
    "evolve_trajectory": ("gaussian.evolve_trajectory", _evolve),
    "detect_squeezing_intervals": ("gaussian.detect_squeezing_intervals", None),
    "oscillation_period": ("gaussian.oscillation_period", None),
    "propagate": ("gaussian.propagate", None),
    "wigner_gaussian": ("wigner.wigner_gaussian", _grid_points),
    "wigner_by_convolution": ("wigner.wigner_by_convolution", _convolution),
    "grid_moments": ("wigner.grid_moments", None),
    "make_coherent_fock": ("fock.prepare", None),
    "make_squeezed_fock": ("fock.prepare", None),
    "integrate_me": ("fock.integrate_me", _integrate_me),
    "fock_to_wigner": ("fock.fock_to_wigner", _fock_to_wigner),
    "cli_coeffs": ("cli.coeffs", None),
    "cli_moments": ("cli.moments", None),
    "cli_wigner": ("cli.wigner", None),
    "cli_classify": ("cli.classify", None),
}

TASK_SPAN = "bench.task"


class Tracer:
    """Records spans while `active`; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.task_id: str | None = None
        self.active = False
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.task_id, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list, t0: float, t1: float) -> None:
        self.stack.pop()
        rec[1], rec[2] = t0, t1
        if rec[3] >= 0:
            self.spans[rec[3]][5] += t1 - t0

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            counts = tracer.counts[name]
            counts["calls"] += 1
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec, t0, process_time())
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def run_task(self, task_id: str, fn, *args):
        """Run fn(*args) as one task under a root span."""
        self.task_id = task_id
        self.active = True
        rec = self._open(TASK_SPAN)
        t0 = process_time()
        try:
            return fn(*args)
        finally:
            t1 = process_time()
            self._close(rec, t0, t1)
            self.active = False

    def _patch(self, owner, attr: str, name: str, counter) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counter))

    def install(self, lib) -> None:
        """Wrap the program's cross-module imports and the workload's `lib`."""
        for module_name, attr, name, counter in PROGRAM_TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            # A target a later version no longer has is skipped: its layer reads 0.
            if owner is not None and hasattr(owner, method):
                self._patch(owner, method, name, counter)
        for attr, (name, counter) in LIB_TARGETS.items():
            if hasattr(lib, attr):
                self._patch(lib, attr, name, counter)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> tuple[dict[str, float], list[float]]:
        """Total self time per span name, and the duration of every task span."""
        totals: dict[str, float] = defaultdict(float)
        tasks = []
        for name, t0, t1, _, _, children in self.spans:
            totals[name] += (t1 - t0) - children
            if name == TASK_SPAN:
                tasks.append(t1 - t0)
        return totals, tasks

    def write(self, path) -> None:
        """Write the spans as CSV: name, start, end, parent index, task id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,task\n")
            for i, (name, t0, t1, parent, task, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{task}\n")


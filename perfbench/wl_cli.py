"""Workload `cli_artifacts`: what a user runs to get a figure's files.

A task runs `coeffs`, `moments`, `wigner` (four times per call) and
`classify` through `qbrownian.cli.main(argv)` in-process, into a scratch
directory inside the checkout.  In-process calls keep the interpreter start-up
(0.15-0.2 s, and the largest source of spread when each call was its own
process) out of task time; it is measured as `setup_s` instead.

A cycle is 24 tasks in blocks of four; each block holds every (format, grid
edge) pair once, and one task per cycle carries the documented edge input
g = 0.  The other two documented edge inputs, r = 0.001 and
`coeffs --tau-max 1e6 --steps 10`, fail at the seed commit, so they stay out
of the timed stream (whose operations must all succeed) and `edge_tasks`
gives them to an untraced probe that the traced run makes once and records
next to its results.  The tau edge applies to `coeffs` only: `moments --tau-max 2e6`
runs for an unbounded time before it fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from qbrownian import cli, gaussian
from qbrownian.coefficients import big_gamma, classify_lindblad, delta_coeff, gamma_coeff
from qbrownian.wigner import GridSpec, wigner_gaussian

from common import (
    PAPER_G,
    PAPER_KT,
    Check,
    digits,
    paper_params,
    reference_delta_gamma,
    reference_moments,
    rel_err,
    task_rng,
    wrong,
)

NAME = "cli_artifacts"
R_VALUES = (0.05, 0.1, 0.2, 0.5, 1.0)
FORMATS = ("csv", "json")
GRID_EDGES = (151, 201)
EDGE_KINDS = ("g0",)  # in the timed stream
PROBED_EDGES = ("r0.001", "tau1e6")  # in the untimed edge probe
CYCLE_LEN = 24
BLOCK_LEN = 4
TRACE_CYCLES = 1
N_SIGMA = 6.0  # the CLI's default grid half-extent
SUBCOMMANDS = ("coeffs", "moments", "wigner", "classify")

# Tolerances against the fixed-grid Delta_Gamma reference (the program uses a
# relative quadrature tolerance of 1e-10), and on the Wigner grid mass.
VALUE_TOL = 1e-8
CLOSED_FORM_TOL = 1e-12  # Delta, gamma, Gamma columns against the scalar closed forms
MASS_TOL = 1e-6
INTERVAL_TOL = 1e-8

# One traced name per subcommand, all bound to the same entry point.
lib = SimpleNamespace(**{f"cli_{sub}": cli.main for sub in SUBCOMMANDS})


def cycle_tasks(seed: int, cycle: int) -> list[dict]:
    rng = task_rng(NAME, seed, cycle)
    shapes = []
    for _ in range(CYCLE_LEN // BLOCK_LEN):
        shapes += rng.sample([(f, n) for f in FORMATS for n in GRID_EDGES], BLOCK_LEN)
    edge_slots = rng.sample(range(CYCLE_LEN), len(EDGE_KINDS))
    tasks = []
    for i, (fmt, n) in enumerate(shapes):
        amp, phase = rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0 * math.pi)
        # Wigner times on a 0.005 mesh of [0, 0.5], one from each quarter.
        times = [rng.randrange(25 * q, 25 * q + (26 if q == 3 else 25)) for q in range(4)]
        task = {
            "g": PAPER_G,
            "r": rng.choice(R_VALUES),
            "state": rng.choice(("vacuum", "coherent", "squeezed")),
            "alpha": [round(amp * math.cos(phase), 6), round(amp * math.sin(phase), 6)],
            "sigma2": round(rng.uniform(0.05, 0.5), 6),
            "format": fmt,
            "grid": n,
            "coeffs": {"tau_max": round(rng.uniform(0.5, 1.0), 6), "steps": 2000},
            "moments": {"tau_max": round(rng.uniform(0.5, 1.0), 6), "steps": 2000,
                        "frame": rng.choice(("lab", "corotating"))},
            "times": [round(t * 0.005, 3) for t in times],
            "classify": {"tau_max": round(rng.uniform(1.0, 3.0), 6), "steps": 2000},
            "edge": None,
        }
        if i in edge_slots:
            with_edge(task, EDGE_KINDS[edge_slots.index(i)])
        tasks.append(task)
    return tasks


def with_edge(task: dict, kind: str) -> dict:
    task["edge"] = kind
    if kind == "g0":
        task["g"] = 0.0
    elif kind == "r0.001":
        task["r"] = 0.001
    else:
        task["coeffs"] = {"tau_max": 1e6, "steps": 10}
    return task


def edge_tasks(seed: int) -> list[dict]:
    """One task per edge input that fails at the seed commit, drawn from the seed."""
    plain = [t for t in cycle_tasks(seed, -1) if t["edge"] is None]
    return [with_edge(task, kind) for task, kind in zip(plain, PROBED_EDGES)]


def argvs(task: dict, out_dir: Path) -> dict[str, list[str]]:
    """The four command lines of a task, writing under ``out_dir``.

    Values go in `--flag=value` form: argparse takes a separate "-9.4e-05"
    for an option name.
    """
    fmt = task["format"]
    common = [
        f"--g={task['g']!r}", f"--r={task['r']!r}", f"--kt-over-wc={PAPER_KT!r}",
        f"--state={task['state']}", f"--alpha-re={task['alpha'][0]!r}",
        f"--alpha-im={task['alpha'][1]!r}", f"--sigma2={task['sigma2']!r}", f"--format={fmt}",
    ]
    c, m, k = task["coeffs"], task["moments"], task["classify"]
    times = ",".join(repr(t) for t in task["times"])
    n = task["grid"]
    return {
        "coeffs": ["coeffs", *common, f"--tau-max={c['tau_max']!r}", f"--steps={c['steps']}",
                   f"--out={out_dir / f'coeffs.{fmt}'}"],
        "moments": ["moments", *common, f"--tau-max={m['tau_max']!r}", f"--steps={m['steps']}",
                    f"--frame={m['frame']}", f"--out={out_dir / f'moments.{fmt}'}"],
        "wigner": ["wigner", *common, f"--times={times}", f"--nx={n}", f"--ny={n}",
                   f"--out={out_dir / f'wigner.{fmt}'}"],
        "classify": ["classify", *common, f"--tau-max={k['tau_max']!r}", f"--steps={k['steps']}",
                     f"--out={out_dir / 'classify.json'}"],
    }


def initial_moments(task: dict):
    alpha = complex(*task["alpha"])
    if task["state"] == "vacuum":
        st = gaussian.make_coherent(0j)
    elif task["state"] == "coherent":
        st = gaussian.make_coherent(alpha)
    else:
        st = gaussian.make_squeezed(alpha, gaussian.squeeze_from_sigma2(task["sigma2"]))
    return st.mean, st.cov


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return lines[0].split(","), rows


def _read_table(path: Path, fmt: str) -> dict:
    if fmt == "json":
        data = json.loads(path.read_text(encoding="utf-8"))
        return {k: np.asarray(v) if isinstance(v, list) else v for k, v in data.items()}
    header, rows = _read_csv(path)
    return {name: rows[:, i] for i, name in enumerate(header)}


def _read_grid(path: Path, fmt: str) -> tuple[list[float], np.ndarray]:
    """(x_min, x_max, y_min, y_max, nx, ny) and values[ix, iy] of a grid file."""
    if fmt == "json":
        data = json.loads(path.read_text(encoding="utf-8"))
        spec = [data[k] for k in ("x_min", "x_max", "y_min", "y_max", "nx", "ny")]
        return spec, np.asarray(data["values"], dtype=float).T
    header, rows = _read_csv(path)
    spec = [float(v.lstrip("# ")) for v in header]
    return spec, rows.T


class Workload:
    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.runs = 0
        self.first: tuple[dict, dict[str, str]] | None = None

    def _task_dir(self) -> Path:
        self.runs += 1
        path = self.scratch / f"task{self.runs}"
        path.mkdir(parents=True)
        return path

    def warm_up(self) -> None:
        out_dir = self._task_dir()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["classify", "--steps", "11", "--out", str(out_dir / "classify.json")])
        shutil.rmtree(out_dir)

    def run(self, task: dict, out_dir: Path | None = None):
        out_dir = out_dir or self._task_dir()
        results = {}
        sink = io.StringIO()
        for sub, argv in argvs(task, out_dir).items():
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    results[sub] = getattr(lib, f"cli_{sub}")(argv)
            except SystemExit as exc:
                results[sub] = exc.code
            except Exception as exc:  # an escaped exception is a failed subcommand
                results[sub] = exc
        return out_dir, results

    def check(self, task: dict, out) -> Check:
        out_dir, results = out
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        counters = {
            "cli.bytes_written": sum(p.stat().st_size for p in files),
            "cli.files_written": len(files),
            "cli.exceptions": sum(isinstance(r, Exception) for r in results.values()),
        }
        if self.first is None:
            self.first = (task, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files})
        failed = {sub: r for sub, r in results.items() if r != 0}
        errs = []
        try:
            if "coeffs" not in failed:
                errs.append(self._check_coeffs(task, out_dir))
            if "moments" not in failed:
                errs.append(self._check_moments(task, out_dir))
            if "wigner" not in failed:
                errs.append(self._check_wigner(task, out_dir))
            if "classify" not in failed:
                self._check_classify(task, out_dir)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            return wrong(f"{type(exc).__name__}: {exc}", max(errs, default=None), counters)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        err = max(errs, default=None)
        if failed:
            detail = "; ".join(f"{sub}: {r!r}" for sub, r in failed.items())
            return Check(False, err, detail, counters)
        return Check(True, err, f"{digits(err):.2f} digits", counters)

    def _check_coeffs(self, task: dict, out_dir: Path) -> float:
        fmt, c = task["format"], task["coeffs"]
        data = _read_table(out_dir / f"coeffs.{fmt}", fmt)
        p = paper_params(task["r"], task["g"])
        step = c["tau_max"] / (c["steps"] - 1)
        taus = [i * step for i in range(c["steps"] - 1)] + [c["tau_max"]]
        _expect(np.array_equal(data["tau"], taus), "coeffs tau column differs from the grid")
        for name, fn in (("delta", delta_coeff), ("gamma", gamma_coeff), ("big_gamma", big_gamma)):
            e = rel_err(data[name], [fn(p, t) for t in taus])
            _expect(e <= CLOSED_FORM_TOL, f"coeffs {name} column off by {e:.3e}")
        rows = sorted({1, len(taus) // 2, len(taus) - 1})
        e = rel_err(data["delta_gamma"][rows], [reference_delta_gamma(p, taus[i]) for i in rows])
        _expect(e <= VALUE_TOL, f"coeffs delta_gamma off by {e:.3e}")
        return e

    def _check_moments(self, task: dict, out_dir: Path) -> float:
        fmt, m = task["format"], task["moments"]
        path = out_dir / f"moments.{fmt}"
        data = _read_table(path, fmt)
        if fmt == "csv":
            summary = json.loads(path.with_suffix(".summary.json").read_text(encoding="utf-8"))
        else:
            summary = data["summary"]
        p = paper_params(task["r"], task["g"])
        tau = np.linspace(0.0, m["tau_max"], m["steps"])
        _expect(np.array_equal(data["tau"], tau), "moments tau column differs from the grid")
        det = data["var_x"] * data["var_y"] - data["cov_xy"] ** 2
        _expect(det.min() >= 0.25 - gaussian.PHYSICALITY_TOL, f"det(cov) = {det.min()!r}")
        mean0, cov0 = initial_moments(task)
        err = 0.0
        for k in (len(tau) // 2, len(tau) - 1):
            mean, cov = reference_moments(mean0, cov0, p, float(tau[k]), m["frame"])
            n_mean = 0.5 * (cov[0, 0] + cov[1, 1] + mean @ mean - 1.0)
            want = [n_mean, cov[0, 0], cov[1, 1], cov[0, 1], *mean]
            got = [data[col][k] for col in ("n_mean", "var_x", "var_y", "cov_xy",
                                            "mean_x", "mean_y")]
            err = max(err, rel_err(got, want))
        _expect(err <= VALUE_TOL, f"moments rows off by {err:.3e}")
        _expect(summary["intervals_frame"] == "corotating", "summary frame")
        for axis in ("x", "y"):
            ivs = summary[f"squeezing_intervals_{axis}"]
            _expect(all(0.0 <= a <= b <= m["tau_max"] for a, b in ivs), f"intervals {ivs}")
        period = summary["oscillation_period"]
        _expect(period is None or (period > 0.0 and math.isfinite(period)), f"period {period!r}")
        return err

    def _check_wigner(self, task: dict, out_dir: Path) -> float:
        fmt, n = task["format"], task["grid"]
        p = paper_params(task["r"], task["g"])
        mean0, cov0 = initial_moments(task)
        err = 0.0
        for t in task["times"]:
            spec, values = _read_grid(out_dir / f"wigner_tau{t:g}.{fmt}", fmt)
            mean, cov = reference_moments(mean0, cov0, p, t)
            ref_spec = GridSpec.cover_state(gaussian.GaussianState(mean, cov), N_SIGMA, n, n)
            ref = wigner_gaussian(gaussian.GaussianState(mean, cov), ref_spec)
            _expect(spec[4:] == [n, n] and values.shape == (n, n), f"grid shape {spec[4:]}")
            _expect(rel_err(spec[:4], [ref_spec.x_min, ref_spec.x_max, ref_spec.y_min,
                                       ref_spec.y_max]) <= VALUE_TOL, f"grid extent {spec}")
            mass = values.sum() * ref_spec.dx * ref_spec.dy
            _expect(abs(mass - 1.0) <= MASS_TOL, f"grid at tau={t} integrates to {mass!r}")
            err = max(err, rel_err(values, ref.values))
        _expect(err <= VALUE_TOL, f"wigner grid off by {err:.3e}")
        return err

    def _check_classify(self, task: dict, out_dir: Path) -> None:
        k = task["classify"]
        data = json.loads((out_dir / "classify.json").read_text(encoding="utf-8"))
        want = classify_lindblad(paper_params(task["r"], task["g"]), k["tau_max"], k["steps"])
        _expect(data["is_lindblad_type"] == want.is_lindblad_type, "classify verdict")
        for name, ivs in want.negative_intervals.items():
            got = data["negative_intervals"][name]
            _expect(len(got) == len(ivs), f"classify {name}: {len(got)} vs {len(ivs)} intervals")
            if ivs:
                e = float(np.max(np.abs(np.subtract(got, ivs))))
                _expect(e <= INTERVAL_TOL, f"classify {name} boundaries off by {e:.3e}")

    def rerun_check(self) -> Check | None:
        """Rerun the run's first task and compare its files by sha256."""
        if self.first is None:
            return None
        task, hashes = self.first
        out_dir = self._task_dir()
        self.run(task, out_dir)
        again = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out_dir.iterdir()) if p.is_file()}
        shutil.rmtree(out_dir)
        if again != hashes:
            changed = sorted(k for k in hashes.keys() | again.keys() if hashes.get(k) != again.get(k))
            return wrong(f"rerun changed {changed}")
        return Check(True, None, f"{len(hashes)} files byte-identical on rerun")

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class CheckFailed(Exception):
    """An output file disagrees with the expected values."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)

"""Command-line front end: emit CSV/JSON artifacts for replotting.

Subcommands
-----------
coeffs    time-dependent coefficients on a uniform grid
moments   Gaussian-state trajectory (means/variances/<n>) plus a JSON summary
wigner    Wigner-function grids of the evolved state at chosen times
classify  Lindblad-type sign analysis of Delta +/- gamma

Configuration precedence: command-line flags override config-file values,
which override built-in defaults (squeezed state, sigma^2 = 0.1, g = 0.1,
r = 0.05, high-temperature reservoir).  Identical configurations produce
byte-identical output files: floats are written in shortest round-trip form
and no timestamps enter the data.

Exit codes: 0 success, 2 invalid arguments or configuration (including
sizes above MAX_STEPS, MAX_GRID_POINTS or MAX_WIGNER_VALUES, rejected before
anything is allocated, wigner times that would share a file name, and a
sigma2 outside [2.2e-308, 1], whose lower end, the smallest normal double,
keeps e^(2s) finite; the message names the flag or config key given),
3 numerical failure (a coupling |c| = 2 g^2 r^2/(1+r^2) above the
Delta_Gamma series' cap, the Lindblad bracket cap, an arithmetic error such
as overflow, or a lab-frame state that rounding has pushed below the
uncertainty bound; a value that would not be finite counts as one), 4 I/O
failure.  `wigner` computes and checks the state and grid at every time
before it writes its first file, so a run that fails on one writes no Wigner
file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import PhysicalParams, classify_lindblad, coefficient_grid
from .gaussian import (
    GaussianState,
    detect_squeezing_intervals,
    evolve_trajectory,
    make_coherent,
    make_squeezed,
    oscillation_period,
    propagate,
    squeeze_from_sigma2,
)
from .wigner import GridSpec, wigner_gaussian

# Temperature of the default reservoir: omega_c/(2 pi kT) = 3e-5.
DEFAULT_KT_OVER_WC = 1.0 / (2.0 * math.pi * 3.0e-5)

# Size caps, checked before anything is allocated: grid points per trajectory,
# points per Wigner grid, and Wigner values over all requested times.
MAX_STEPS = 1 << 20
MAX_GRID_POINTS = 1 << 22
MAX_WIGNER_VALUES = 1 << 24
# CSV rows formatted per write, so no file's whole text is held in memory.
_CSV_CHUNK = 1 << 14


@dataclass
class RunConfig:
    """Flat, JSON-serializable run configuration (defaults: squeezed state)."""

    g: float = 0.1
    r: float = 0.05
    kt_over_wc: float = DEFAULT_KT_OVER_WC
    state: str = "squeezed"  # vacuum | coherent | squeezed
    alpha_re: float = 0.0
    alpha_im: float = 0.0
    sigma2: float = 0.1  # squeezed-variance ratio e^(-2s)
    phi: float = 0.0
    tau_max: float = 0.5
    steps: int = 2000
    nx: int = 201
    ny: int = 201
    n_sigma: float = 6.0
    times: str = "0,0.15,0.3,0.45"  # wigner sample times, comma-separated
    frame: str = "lab"  # moments CSV frame: lab | corotating
    out: str = ""  # empty -> per-command default filename
    format: str = "csv"  # csv | json

    def validate(self) -> None:
        if self.state not in ("vacuum", "coherent", "squeezed"):
            raise ValueError(f"state must be vacuum|coherent|squeezed, got {self.state!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv|json, got {self.format!r}")
        if self.frame not in ("lab", "corotating"):
            raise ValueError(f"frame must be lab|corotating, got {self.frame!r}")
        if not (self.tau_max > 0.0 and math.isfinite(self.tau_max)):
            raise ValueError(f"tau-max must be finite and > 0, got {self.tau_max!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps!r}")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be <= {MAX_STEPS}, got {self.steps!r}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"nx/ny must be >= 1, got {self.nx!r}, {self.ny!r}")
        if self.nx * self.ny > MAX_GRID_POINTS:
            raise ValueError(
                f"nx*ny must be <= {MAX_GRID_POINTS}, got {self.nx!r}*{self.ny!r}"
            )
        taus = self.tau_list()
        if self.nx * self.ny * len(taus) > MAX_WIGNER_VALUES:
            raise ValueError(
                f"nx*ny times the number of wigner times must be <= {MAX_WIGNER_VALUES}"
            )
        # The smallest normal double keeps e^(2s) = 1/sigma2 finite.
        if not sys.float_info.min <= self.sigma2 <= 1.0:
            raise ValueError(
                f"sigma2 must be in [{sys.float_info.min!r}, 1], got {self.sigma2!r}"
            )
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        if not (self.n_sigma > 0.0 and math.isfinite(self.n_sigma)):
            raise ValueError(f"n-sigma must be finite and > 0, got {self.n_sigma!r}")
        if not taus or min(taus) < 0.0:
            raise ValueError(f"wigner times must be one or more times >= 0, got {self.times!r}")
        # Parameter validity (g, r, kt_over_wc) is checked by PhysicalParams.
        self.physical_params()

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams(g=self.g, r=self.r, kt_over_wc=self.kt_over_wc)

    def initial_state(self) -> GaussianState:
        alpha = complex(self.alpha_re, self.alpha_im)
        if self.state == "vacuum":
            return make_coherent(0.0)
        if self.state == "coherent":
            return make_coherent(alpha)
        return make_squeezed(alpha, squeeze_from_sigma2(self.sigma2), self.phi)

    def tau_list(self) -> list[float]:
        try:
            return [float(s) for s in self.times.split(",") if s.strip() != ""]
        except ValueError as exc:
            raise ValueError(f"cannot parse times list {self.times!r}") from exc


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    defaults = asdict(cfg)
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh, parse_int=float)  # a JSON number is a double
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {args.config!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config!r} must hold a JSON object of scalars")
        for key, val in data.items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r} in {args.config!r}")
            kind = type(defaults[key])
            if not isinstance(val, str if kind is str else float):
                expected = "a JSON string" if kind is str else "a JSON number"
                raise ValueError(f"config key {key!r} must be {expected}, got {val!r}")
            if kind is int and not val.is_integer():
                raise ValueError(f"config key {key!r} must be an integer, got {val!r}")
            setattr(cfg, key, kind(val))
    for f in fields(RunConfig):
        cli_val = getattr(args, f.name, None)
        if cli_val is not None:
            setattr(cfg, f.name, cli_val)
    # The alias flags are checked where they are converted, so errors name them.
    wc = getattr(args, "wc_over_2pikt", None)
    if wc is not None:
        kt = 1.0 / (2.0 * math.pi * wc) if 0.0 < wc < math.inf else 0.0
        if not 0.0 < kt < math.inf:
            raise ValueError(f"--wc-over-2pikt and its kT must be finite and > 0, got {wc!r}")
        cfg.kt_over_wc = kt
    s = getattr(args, "squeeze_s", None)
    if s is not None:
        sigma2 = math.exp(-2.0 * s) if 0.0 <= s < math.inf else 0.0
        if not sigma2 >= sys.float_info.min:
            raise ValueError(f"--squeeze-s must be >= 0 with e^(-2s) >= {sys.float_info.min!r}, "
                             f"got {s!r}")
        cfg.sigma2 = sigma2
    cfg.validate()
    return cfg


def _out_path(cfg: RunConfig, default_stem: str, ext: str) -> Path:
    return Path(cfg.out or f"{default_stem}.{ext}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _write_csv(path: Path, header: str, columns) -> None:
    """Write the header, then one row per index of the equal-length columns.

    ``tolist()`` turns the columns into Python floats, whose ``repr`` is the
    shortest decimal text that reads back to the same double.
    """
    columns = [np.asarray(c) for c in columns]
    with path.open("w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), _CSV_CHUNK):
            rows = zip(*(c[i:i + _CSV_CHUNK].tolist() for c in columns))
            fh.write("\n".join(",".join(map(repr, row)) for row in rows) + "\n")
    print(f"wrote {path}")


def cmd_coeffs(cfg: RunConfig) -> None:
    p = cfg.physical_params()
    grid = coefficient_grid(p, np.linspace(0.0, cfg.tau_max, cfg.steps))
    names = ("tau", "delta", "gamma", "big_gamma", "delta_gamma")
    columns = [getattr(grid, name) for name in names]
    if cfg.format == "csv":
        _write_csv(_out_path(cfg, "coeffs", "csv"), ",".join(names), columns)
    else:
        data = {name: col.tolist() for name, col in zip(names, columns)}
        data["version"] = __version__
        _write_json(_out_path(cfg, "coeffs", "json"), data)


def cmd_moments(cfg: RunConfig) -> None:
    p = cfg.physical_params()
    traj = evolve_trajectory(cfg.initial_state(), p, cfg.tau_max, cfg.steps)
    vx, vy, cxy = traj.variances(frame=cfg.frame)
    mx, my = traj.means(frame=cfg.frame)
    summary = {
        "oscillation_period": oscillation_period(np.column_stack((traj.times, traj.n_mean))),
        "squeezing_intervals_x": [list(iv) for iv in detect_squeezing_intervals(traj, "x")],
        "squeezing_intervals_y": [list(iv) for iv in detect_squeezing_intervals(traj, "y")],
        "intervals_frame": "corotating",
        "version": __version__,
    }
    names = ("tau", "n_mean", "var_x", "var_y", "cov_xy", "mean_x", "mean_y")
    columns = (traj.times, traj.n_mean, vx, vy, cxy, mx, my)
    if cfg.format == "csv":
        out = _out_path(cfg, "moments", "csv")
        _write_csv(out, ",".join(names), columns)
        _write_json(out.with_suffix(".summary.json"), summary)
    else:
        data = {name: col.tolist() for name, col in zip(names, columns)}
        data.update(frame=cfg.frame, summary=summary)
        _write_json(_out_path(cfg, "moments", "json"), data)


def cmd_wigner(cfg: RunConfig) -> None:
    p = cfg.physical_params()
    state0 = cfg.initial_state()
    base = _out_path(cfg, "wigner", cfg.format)
    # Every state and grid is computed and checked before the first file is
    # written, so a run that fails on one leaves no file.  `:g` keeps six
    # digits, so distinct times can name one file; refuse them rather than
    # overwrite one.
    jobs: dict[Path, tuple[float, GaussianState, GridSpec]] = {}
    for tau in cfg.tau_list():
        path = base.with_name(f"{base.stem}_tau{tau:g}{base.suffix}")
        if path in jobs:
            raise ValueError(f"wigner times {jobs[path][0]!r} and {tau!r} both map to {path.name}")
        state = propagate(state0, p, tau)
        # Rotating a strongly squeezed covariance into the lab frame loses about
        # eps e^(4s) of det(cov); past PHYSICALITY_TOL the grid is no state's.
        if not state.is_physical():
            raise ArithmeticError(f"lab-frame state at tau={tau!r} is unphysical after "
                                  f"rounding: det(cov) = {state.det_cov()!r}")
        spec = GridSpec.cover_state(state, n_sigma=cfg.n_sigma, nx=cfg.nx, ny=cfg.ny)
        wigner_gaussian(state, spec)  # evaluated and dropped: an overflow raises here
        jobs[path] = tau, state, spec
    # One grid at a time is evaluated and written, so only one is held in memory.
    for path, (_, state, spec) in jobs.items():
        w = wigner_gaussian(state, spec).values
        if cfg.format == "csv":
            # Header `# x_min,x_max,y_min,y_max,nx,ny`; row iy holds W(x_*, y_iy).
            _write_csv(path, "# " + ",".join(map(repr, astuple(spec))), w)
        else:
            _write_json(path, {**asdict(spec), "values": w.T.tolist(), "version": __version__})


def cmd_classify(cfg: RunConfig) -> None:
    p = cfg.physical_params()
    result = classify_lindblad(p, cfg.tau_max)
    data = {
        "is_lindblad_type": result.is_lindblad_type,
        "negative_intervals": {
            name: [list(iv) for iv in ivs]
            for name, ivs in result.negative_intervals.items()
        },
        # past the horizon a rate keeps the sign of its plateau; none if that is 0
        "horizon": {
            name: tau if math.isfinite(tau) else None for name, tau in result.horizon.items()
        },
        "tau_max": cfg.tau_max,
        "version": __version__,
    }
    _write_json(_out_path(cfg, "classify", "json"), data)


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "moments": cmd_moments,
    "wigner": cmd_wigner,
    "classify": cmd_classify,
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--g", type=float, help="coupling constant")
    shared.add_argument("--r", type=float, help="frequency ratio omega_c/omega_0")
    temp = shared.add_mutually_exclusive_group()
    temp.add_argument("--kt-over-wc", dest="kt_over_wc", type=float,
                      help="temperature kT/(hbar omega_c)")
    temp.add_argument("--wc-over-2pikt", dest="wc_over_2pikt", type=float,
                      help="temperature as omega_c/(2 pi kT)")
    shared.add_argument("--state", choices=["vacuum", "coherent", "squeezed"],
                        help="initial state kind")
    shared.add_argument("--alpha-re", dest="alpha_re", type=float,
                        help="Re alpha_0 of the displacement")
    shared.add_argument("--alpha-im", dest="alpha_im", type=float,
                        help="Im alpha_0 of the displacement")
    sq = shared.add_mutually_exclusive_group()
    sq.add_argument("--sigma2", type=float, help="squeezed-variance ratio e^(-2s)")
    sq.add_argument("--squeeze-s", dest="squeeze_s", type=float, help="squeeze magnitude s")
    shared.add_argument("--phi", type=float, help="squeeze angle")
    shared.add_argument("--tau-max", dest="tau_max", type=float, help="final time")
    shared.add_argument("--steps", type=int,
                        help="grid points (trajectories)")
    shared.add_argument("--out", type=str, help="output path (or stem for wigner)")
    shared.add_argument("--format", choices=["csv", "json"], help="output format")
    shared.add_argument("--config", type=str, help="JSON config file (flat object)")
    shared.add_argument("--dump-config", dest="dump_config", action="store_true",
                        help="print the effective configuration as JSON and exit")

    parser = argparse.ArgumentParser(
        prog="qbrownian",
        description="Phase-space simulator for a damped quantum harmonic "
                    "oscillator in a high-temperature structured reservoir.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("coeffs", parents=[shared],
                   help="emit Delta, gamma, Gamma, Delta_Gamma on a time grid")
    mom = sub.add_parser("moments", parents=[shared],
                         help="emit a moment trajectory and a summary JSON")
    mom.add_argument("--frame", choices=["lab", "corotating"],
                     help="frame for the emitted means/variances")
    wig = sub.add_parser("wigner", parents=[shared],
                         help="emit Wigner grids of the evolved state")
    wig.add_argument("--times", type=str, help="comma-separated sample times")
    wig.add_argument("--nx", type=int, help="grid points along alpha_x")
    wig.add_argument("--ny", type=int, help="grid points along alpha_y")
    wig.add_argument("--n-sigma", dest="n_sigma", type=float,
                     help="half-extent of auto grids in standard deviations")
    sub.add_parser("classify", parents=[shared],
                   help="sign analysis of Delta +/- gamma (Lindblad type or not)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dump_config:
        print(json.dumps(asdict(cfg), indent=2, sort_keys=True))
        return 0
    try:
        # An overflow or an invalid operation would leave a non-finite value
        # in the data: it raises FloatingPointError.  That and IntegrationError
        # are ArithmeticErrors.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _COMMANDS[args.command](cfg)
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
anything is allocated), 3 numerical failure (quadrature/integration, the
Lindblad bracket cap, or an arithmetic error such as overflow; a value that
would not be finite counts as one), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
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
    squeeze_from_sigma2,
)
from .quadrature import IntegrationError
from .wigner import GridSpec, wigner_gaussian
from .gaussian import propagate

# Temperature of the default reservoir: omega_c/(2 pi kT) = 3e-5.
DEFAULT_KT_OVER_WC = 1.0 / (2.0 * math.pi * 3.0e-5)

# Size caps, checked before anything is allocated: grid points per trajectory,
# points per Wigner grid, and Wigner values over all requested times.
MAX_STEPS = 1 << 20
MAX_GRID_POINTS = 1 << 22
MAX_WIGNER_VALUES = 1 << 24


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
    tol: float = 1e-10
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
        if self.nx * self.ny * len(self.tau_list()) > MAX_WIGNER_VALUES:
            raise ValueError(
                f"nx*ny times the number of wigner times must be <= {MAX_WIGNER_VALUES}"
            )
        if self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2!r}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        for t in self.tau_list():
            if t < 0.0:
                raise ValueError(f"wigner times must be >= 0, got {t!r}")
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


def _load_config_file(path: str) -> dict:
    valid = {f.name: f.type for f in fields(RunConfig)}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object of scalars")
    for key, val in data.items():
        if key not in valid:
            raise ValueError(f"unknown config key {key!r} in {path!r}")
        if not isinstance(val, (int, float, str, bool)) or isinstance(val, bool):
            raise ValueError(f"config key {key!r} must be a scalar, got {val!r}")
    return data


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        for key, val in _load_config_file(args.config).items():
            default = getattr(cfg, key)
            if isinstance(default, int) and isinstance(val, float) and not val.is_integer():
                raise ValueError(f"config key {key!r} must be an integer, got {val!r}")
            setattr(cfg, key, type(default)(val))
    for f in fields(RunConfig):
        cli_val = getattr(args, f.name, None)
        if cli_val is not None:
            setattr(cfg, f.name, cli_val)
    if getattr(args, "wc_over_2pikt", None) is not None:
        cfg.kt_over_wc = 1.0 / (2.0 * math.pi * args.wc_over_2pikt)
    if getattr(args, "squeeze_s", None) is not None:
        cfg.sigma2 = math.exp(-2.0 * args.squeeze_s)
    cfg.validate()
    return cfg


def _out_path(cfg: RunConfig, default_stem: str, ext: str) -> Path:
    if cfg.out:
        return Path(cfg.out)
    return Path(f"{default_stem}.{ext}")


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header: str, columns) -> str:
    """CSV text: the header, then one row per index of the equal-length columns.

    ``tolist()`` turns the columns into Python floats, whose ``repr`` is the
    shortest decimal text that reads back to the same double.
    """
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def cmd_coeffs(cfg: RunConfig) -> None:
    p = cfg.physical_params()
    step = cfg.tau_max / (cfg.steps - 1)
    taus = [i * step for i in range(cfg.steps - 1)] + [cfg.tau_max]
    grid = coefficient_grid(p, taus, tol=cfg.tol)
    names = ("tau", "delta", "gamma", "big_gamma", "delta_gamma")
    columns = [getattr(grid, name) for name in names]
    if cfg.format == "csv":
        _write_text(_out_path(cfg, "coeffs", "csv"), _csv(",".join(names), columns))
    else:
        data = {name: col.tolist() for name, col in zip(names, columns)}
        data["version"] = __version__
        _write_text(_out_path(cfg, "coeffs", "json"), _json_dumps(data))


def _moments_summary(cfg: RunConfig, traj) -> dict:
    period = oscillation_period(list(zip(traj.times, traj.n_mean)))
    return {
        "oscillation_period": period,
        "squeezing_intervals_x": [list(iv) for iv in detect_squeezing_intervals(traj, "x")],
        "squeezing_intervals_y": [list(iv) for iv in detect_squeezing_intervals(traj, "y")],
        "intervals_frame": "corotating",
        "version": __version__,
    }


def cmd_moments(cfg: RunConfig) -> None:
    p = cfg.physical_params()
    traj = evolve_trajectory(cfg.initial_state(), p, cfg.tau_max, cfg.steps, tol=cfg.tol)
    vx, vy, cxy = traj.variances(frame=cfg.frame)
    mx, my = traj.means(frame=cfg.frame)
    summary = _moments_summary(cfg, traj)
    if cfg.format == "csv":
        out = _out_path(cfg, "moments", "csv")
        _write_text(out, _csv("tau,n_mean,var_x,var_y,cov_xy,mean_x,mean_y",
                              (traj.times, traj.n_mean, vx, vy, cxy, mx, my)))
        _write_text(out.with_suffix(".summary.json"), _json_dumps(summary))
    else:
        data = {
            "tau": traj.times.tolist(),
            "n_mean": traj.n_mean.tolist(),
            "var_x": vx.tolist(),
            "var_y": vy.tolist(),
            "cov_xy": cxy.tolist(),
            "mean_x": mx.tolist(),
            "mean_y": my.tolist(),
            "frame": cfg.frame,
            "summary": summary,
        }
        _write_text(_out_path(cfg, "moments", "json"), _json_dumps(data))


def _grid_csv(grid) -> str:
    """Header ``# x_min,x_max,y_min,y_max,nx,ny``, then one row per y node."""
    s = grid.spec
    # Python floats: under NumPy 2 the repr of an np.float64 extent is not bare.
    extents = [float(v) for v in (s.x_min, s.x_max, s.y_min, s.y_max)]
    header = "# " + ",".join([*map(repr, extents), str(s.nx), str(s.ny)])
    # Row ix of values is the x column, so row iy of the file holds W(x_*, y_iy).
    return _csv(header, grid.values)


def _grid_json(grid) -> str:
    s = grid.spec
    return _json_dumps(
        {
            "x_min": s.x_min,
            "x_max": s.x_max,
            "y_min": s.y_min,
            "y_max": s.y_max,
            "nx": s.nx,
            "ny": s.ny,
            "values": grid.values.T.tolist(),
            "version": __version__,
        }
    )


def cmd_wigner(cfg: RunConfig) -> None:
    p = cfg.physical_params()
    state0 = cfg.initial_state()
    base = _out_path(cfg, "wigner", cfg.format)
    for tau in cfg.tau_list():
        state = propagate(state0, p, tau, tol=cfg.tol)
        grid = GridSpec.cover_state(state, n_sigma=cfg.n_sigma, nx=cfg.nx, ny=cfg.ny)
        wg = wigner_gaussian(state, grid)
        path = base.with_name(f"{base.stem}_tau{tau:g}{base.suffix}")
        _write_text(path, _grid_csv(wg) if cfg.format == "csv" else _grid_json(wg))


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
    _write_text(_out_path(cfg, "classify", "json"), _json_dumps(data))


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
    shared.add_argument("--tol", type=float, help="quadrature relative tolerance")
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
        # in the data: it raises FloatingPointError, an ArithmeticError.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _COMMANDS[args.command](cfg)
    except (IntegrationError, ArithmeticError) as exc:
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

"""Property test: every command line ends in a documented exit code.

Whatever the arguments, `main` returns 0, 2 (bad input), 3 (numerical
failure) or 4 (I/O failure), raises nothing, prints no traceback and emits no
Python warning; on success every number it wrote is finite, and every file it
wrote has the canonical byte layout.  Sizes above what a test can afford to
run go through validation only (`--dump-config`).
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from conftest import assert_canonical_layout
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrownian.cli import main

# Largest sizes actually run: trajectory points, and points per grid axis.
RUN_STEPS = 40
RUN_AXIS = 24
# The sizes each subcommand runs with.
SIZES = {"coeffs": ("steps",), "moments": ("steps",), "wigner": ("nx", "ny"), "classify": ()}

EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-8, 1e8, 1e300, -1.0, math.inf, -math.inf,
                     math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _rare(draw) -> bool:
    # Generation favours the ends of a range, so 7 of 0..15 is a rare draw:
    # extreme values and inputs the parser rejects must not crowd out runs.
    return draw(st.integers(0, 15)) == 7


@st.composite
def floats(draw) -> float:
    """Mostly a value in the model's range, sometimes an extreme one."""
    return draw(EXTREME_FLOATS if _rare(draw) else st.floats(0.0, 3.0))


COUNTS = st.integers(min_value=-3, max_value=RUN_AXIS).map(str)
ODD_COUNTS = st.sampled_from(["2.5", "1e3", "x", "300", str(1 << 22), str(1 << 40)])
TIMES = st.one_of(
    st.lists(floats(), max_size=4).map(lambda ts: ",".join(map(repr, ts))),
    st.sampled_from(["", ",", "0,,0.1", " 0.1 , 0.2 ", "0.1,0.1", "0.1,0.1000001",
                     "a", "1e400", "-0", "nan,inf"]),
)
# A group's flags are alternatives; passing two of them is also tried.
FLOAT_FLAGS = (("g",), ("r",), ("kt-over-wc", "wc-over-2pikt"), ("alpha-re",), ("alpha-im",),
               ("sigma2", "squeeze-s"), ("phi",))
# Valid values, then one the parser rejects.
CHOICES = {"state": (("vacuum", "coherent", "squeezed"), "thermal"),
           "format": (("csv", "json"), "xml")}
# Options only some subcommands accept.
FRAMES = st.sampled_from(("lab", "corotating"))
OWN = {"wigner": {"n-sigma": floats(), "times": TIMES, "frame": FRAMES},
       "moments": {"tau-max": floats(), "frame": FRAMES},
       "coeffs": {"tau-max": floats()}, "classify": {"tau-max": floats()}}


@st.composite
def command_lines(draw):
    """(subcommand, {flag: text}, config-file object or None)."""
    command = draw(st.sampled_from(tuple(SIZES)))
    opts = {}
    for group in FLOAT_FLAGS:
        if _rare(draw):
            flags = group
        else:
            flags = (draw(st.sampled_from(group)),) if draw(st.booleans()) else ()
        for flag in flags:
            opts[flag] = repr(draw(floats()))
    for flag, (valid, invalid) in CHOICES.items():
        if draw(st.booleans()):
            opts[flag] = invalid if _rare(draw) else draw(st.sampled_from(valid))
    for flag, values in OWN.get(command, {}).items():
        if draw(st.booleans()):
            opts[flag] = draw(values)
    for flag in SIZES[command]:
        if draw(st.integers(0, 7)):
            opts[flag] = draw(ODD_COUNTS if _rare(draw) else COUNTS)
    config = None
    if _rare(draw):
        config = draw(st.dictionaries(
            st.sampled_from(("steps", "nx", "ny", "g", "tau_max", "times")),
            st.one_of(st.integers(-3, 60), st.floats(-1e3, 1e3), st.text(max_size=3)),
            max_size=3))
    return command, opts, config


def _runs_small(command: str, opts: dict, config) -> bool:
    """Whether every size the run uses is given on the command line and small."""
    if config is not None:
        return False
    caps = {"steps": RUN_STEPS, "nx": RUN_AXIS, "ny": RUN_AXIS}
    for flag in SIZES[command]:
        try:
            if int(opts[flag]) > caps[flag]:
                return False
        except (KeyError, ValueError):
            return False
    return True


def _finite_numbers(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


def _written_values_finite(path: Path) -> bool:
    text = path.read_text(encoding="utf-8")
    try:
        # NaN and Infinity are not JSON; read them as a non-finite value.
        return _finite_numbers(json.loads(text, parse_constant=lambda c: math.nan))
    except json.JSONDecodeError:
        pass
    for token in text.replace("#", ",").replace("\n", ",").split(","):
        try:
            value = float(token)
        except ValueError:
            continue  # a column name
        if not math.isfinite(value):
            return False
    return True


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(command_lines())
def test_any_command_line_ends_in_a_documented_exit_code(case):
    command, opts, config = case
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        argv = [command, *(f"--{k}={v}" for k, v in opts.items())]
        if config is not None:
            (out_dir / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
            argv.append(f"--config={out_dir / 'cfg.json'}")
        # Huge or default sizes are only validated, never run.
        run = _runs_small(command, opts, config)
        argv.append(f"--out={out_dir / 'out'}" if run else "--dump-config")
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue(), argv
        if code == 0 and run:
            written = [p for p in out_dir.iterdir() if p.name != "cfg.json"]
            assert all(_written_values_finite(p) for p in written), argv
            for p in written:
                assert_canonical_layout(p)

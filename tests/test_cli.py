import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from qbrownian import cli
from qbrownian.cli import main
from qbrownian.coefficients import PhysicalParams, delta_coeff, gamma_coeff
from qbrownian.gaussian import make_coherent, make_squeezed, propagate, squeeze_from_sigma2
from qbrownian.quadrature import IntegrationError
from qbrownian.wigner import GridSpec, wigner_gaussian

FIG1 = PhysicalParams(g=0.1, r=0.05, kt_over_wc=1.0 / (2.0 * math.pi * 3.0e-5))


def expected_wigner(state0, tau, nx, ny):
    state = propagate(state0, FIG1, tau)
    return wigner_gaussian(state, GridSpec.cover_state(state, n_sigma=6.0, nx=nx, ny=ny))


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def test_coeffs_csv_values(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["coeffs", "--tau-max", "0.5", "--steps", "6", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["tau", "delta", "gamma", "big_gamma", "delta_gamma"]
    assert len(rows) == 6
    assert rows[0] == [0.0, 0.0, 0.0, 0.0, 0.0]
    assert rows[-1][0] == 0.5
    p = PhysicalParams(g=0.1, r=0.05, kt_over_wc=1.0 / (2.0 * math.pi * 3.0e-5))
    for row in rows:
        assert row[1] == delta_coeff(p, row[0])  # repr round-trips exactly
        assert row[2] == gamma_coeff(p, row[0])
    assert min(r[1] for r in rows) < -2.0  # the negative-diffusion window


def test_coeffs_uncoupled_is_all_zero(tmp_path):
    out = tmp_path / "c0.csv"
    assert main(["coeffs", "--g", "0", "--tau-max", "1", "--steps", "5",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(r[1] == r[2] == r[3] == r[4] == 0.0 for r in rows)


def test_coeffs_json(tmp_path):
    out = tmp_path / "c.json"
    assert main(["coeffs", "--tau-max", "0.3", "--steps", "4", "--format", "json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["tau"] == pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-15)
    assert len(data["delta"]) == 4 and data["delta"][0] == 0.0


def test_moments_csv_and_summary(tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["moments", "--tau-max", "0.5", "--steps", "501",
               "--alpha-re", "1", "--alpha-im", "1", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["tau", "n_mean", "var_x", "var_y", "cov_xy", "mean_x", "mean_y"]
    assert len(rows) == 501
    # default initial state: squeezed to variance sigma2/2 = 0.05
    assert rows[0][2] == pytest.approx(0.05, rel=1e-14)
    assert rows[0][3] == pytest.approx(5.0, rel=1e-14)
    summary = json.loads((tmp_path / "m.summary.json").read_text())
    assert summary["intervals_frame"] == "corotating"
    iv = summary["squeezing_intervals_x"]
    assert len(iv) == 2
    assert iv[0][0] == 0.0
    assert iv[0][1] == pytest.approx(0.1196, abs=2e-3)
    assert iv[1][0] == pytest.approx(0.2076, abs=2e-3)
    assert iv[1][1] == pytest.approx(0.4202, abs=2e-3)
    assert summary["squeezing_intervals_y"] == []


def test_moments_summary_oscillation_period(tmp_path):
    out = tmp_path / "m.json"
    rc = main(["moments", "--state", "coherent", "--alpha-re", "1.7320508075688772",
               "--tau-max", "1", "--steps", "1001", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["n_mean"][0] == pytest.approx(3.0, abs=1e-12)
    period = data["summary"]["oscillation_period"]
    assert period == pytest.approx(2.0 * math.pi * 0.05, rel=0.02)


def test_moments_frame_flag(tmp_path):
    lab = tmp_path / "lab.json"
    cor = tmp_path / "cor.json"
    base = ["moments", "--tau-max", "0.5", "--steps", "51", "--format", "json"]
    assert main(base + ["--out", str(lab)]) == 0
    assert main(base + ["--frame", "corotating", "--out", str(cor)]) == 0
    lab_vx = json.loads(lab.read_text())["var_x"]
    cor_vx = json.loads(cor.read_text())["var_x"]
    assert lab_vx[0] == cor_vx[0]  # frames coincide at tau = 0
    assert abs(lab_vx[25] - cor_vx[25]) > 0.1  # and diverge once rotated


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["moments", "--tau-max", "0.4", "--steps", "101"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.summary.json").read_bytes() == (tmp_path / "b.summary.json").read_bytes()


def test_dump_config_round_trip(tmp_path, capsys):
    assert main(["coeffs", "--g", "0.2", "--steps", "77", "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["g"] == 0.2 and dumped["steps"] == 77
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(dumped))
    assert main(["coeffs", "--config", str(cfg_file), "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out) == dumped


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"g": 0.2, "tau_max": 2.0}))
    assert main(["coeffs", "--config", str(cfg_file), "--g", "0.3", "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["g"] == 0.3  # flag wins
    assert dumped["tau_max"] == 2.0  # file beats built-in default


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"gg": 0.2}))
    assert main(["coeffs", "--config", str(cfg_file)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    cfg_file.write_text("{not json")
    assert main(["coeffs", "--config", str(cfg_file)]) == 2


def test_config_file_rejects_non_integral_counts(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    for key in ("steps", "nx", "ny"):
        cfg_file.write_text(json.dumps({key: 2.7}))
        assert main(["coeffs", "--config", str(cfg_file), "--dump-config"]) == 2
    assert capsys.readouterr().err.count("must be an integer") == 3
    cfg_file.write_text(json.dumps({"steps": 300.0}))
    assert main(["coeffs", "--config", str(cfg_file), "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 300


def test_invalid_parameters_exit_2(tmp_path, capsys):
    assert main(["moments", "--steps", "1", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["moments", "--sigma2", "-1", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["coeffs", "--r", "0", "--out", str(tmp_path / "x.csv")]) == 2
    # g^2 overflows a double: bad input, rejected before any coefficient is
    # computed, so no NumPy warning is emitted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["coeffs", "--g=1e200", "--steps=5", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4
    assert "must be finite, got g = 1e+200" in err


def test_non_finite_phi_and_bad_n_sigma_exit_2(tmp_path, capsys):
    out = str(tmp_path / "w.csv")
    assert main(["moments", "--phi=inf", "--steps=5", "--out", out]) == 2
    for n_sigma in ("-1", "0", "nan"):
        assert main(["wigner", f"--n-sigma={n_sigma}", "--nx=5", "--ny=5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "phi must be finite, got inf" in err
    assert err.count("n-sigma must be finite and > 0") == 3
    assert "np.float64" not in err
    assert not list(tmp_path.iterdir())


def test_csv_rows_past_one_chunk(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * cli._CSV_CHUNK + 5
    columns = [rng.normal(size=n), rng.uniform(-1e300, 1e300, n), np.arange(n) * 0.1]
    out = tmp_path / "t.csv"
    cli._write_csv(out, "a,b,c", columns)
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "a,b,c" and lines[-1] == "" and len(lines) == n + 2
    for row, line in zip(zip(*(c.tolist() for c in columns)), lines[1:]):
        assert line == ",".join(map(repr, row))


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def blow_up(*args, **kwargs):
        raise IntegrationError("quadrature did not converge")

    monkeypatch.setattr("qbrownian.cli.coefficient_grid", blow_up)
    assert main(["coeffs", "--out", str(tmp_path / "c.csv")]) == 3
    assert "numerical failure" in capsys.readouterr().err
    monkeypatch.undo()
    # a coupling far beyond the Delta_Gamma series' cap names |c|
    assert main(["coeffs", "--g=1e150", "--steps=5", "--out", str(tmp_path / "c.csv")]) == 3
    assert "|c| = " in capsys.readouterr().err
    # a value that would overflow to inf is a numerical failure, not data,
    # and it surfaces as the exit code rather than as a NumPy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["moments", "--state=coherent", "--alpha-re=1e200", "--steps=3",
                     "--out", str(tmp_path / "m.csv")]) == 3
        assert main(["moments", "--wc-over-2pikt=1e-300", "--steps=5",
                     "--out", str(tmp_path / "m.csv")]) == 3
    assert capsys.readouterr().err.count("numerical failure") == 2
    assert not (tmp_path / "m.csv").exists()


def test_arithmetic_error_exits_3(tmp_path, monkeypatch, capsys):
    def overflow(cfg):
        raise OverflowError("math range error")

    monkeypatch.setitem(cli._COMMANDS, "coeffs", overflow)
    assert main(["coeffs", "--out", str(tmp_path / "c.csv")]) == 3
    assert "numerical failure: math range error" in capsys.readouterr().err
    # while the input is still being read, an arithmetic error is bad input
    assert main(["coeffs", "--wc-over-2pikt", "0", "--dump-config"]) == 2


def test_edge_inputs_succeed(tmp_path):
    # far past the transient, where exp(Gamma) overflows a double
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--tau-max", "1e6", "--steps", "10", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(math.isfinite(v) for row in rows for v in row)
    kt_r = 0.05 / (2.0 * math.pi * 3.0e-5)
    assert abs(rows[-1][4] / kt_r - 1.0) <= 1e-12
    # r = 0.001: a thousand oscillation periods per unit of tau
    assert main(["wigner", "--r", "0.001", "--times", "0.27,0.3,0.45,0.5", "--nx", "21",
                 "--ny", "21", "--out", str(tmp_path / "w.csv")]) == 0
    start = time.process_time()
    assert main(["moments", "--tau-max", "2e6", "--steps", "10",
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert time.process_time() - start < 1.0


def test_uncoupled_pure_squeezed_states_succeed(tmp_path):
    # g = 0 keeps these states pure; a physicality check on lab moments, where
    # the rotation mixes variances e^(+-2s)/2, lost up to eps e^(4s) of det(cov)
    for flag in ("--sigma2=1e-4", "--squeeze-s=12"):
        out = tmp_path / "m.csv"
        assert main(["moments", "--g=0", flag, "--frame=corotating", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(row[1:] == rows[0][1:] for row in rows), flag


def test_small_r_and_small_tau_succeed(tmp_path):
    # r = 5e-5 has 160 000 oscillation periods in the transient; tiny times
    # leave Delta_Gamma near 1e-13, where an error estimate is all roundoff
    for args in (["coeffs", "--r=5e-5", "--tau-max=50", "--steps=3"],
                 ["coeffs", "--r=10", "--tau-max=1e-5", "--steps=11"],
                 ["wigner", "--r=1", "--times=1e-7", "--nx=5", "--ny=5"]):
        assert main([*args, "--out", str(tmp_path / f"{args[0]}.csv")]) == 0, args
    _, rows = read_csv(tmp_path / "coeffs.csv")
    assert all(math.isfinite(v) and v >= 0.0 for row in rows for v in row[4:])


def test_wigner_times_sharing_a_file_name_exit_2(tmp_path, capsys):
    # both times print as 0.1 with six significant digits
    assert main(["wigner", "--times=0.3,0.1,0.1000001", "--nx=5", "--ny=5",
                 "--out", str(tmp_path / "w.csv")]) == 2
    assert "0.1 and 0.1000001 both map to w_tau0.1.csv" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unwritable_output_exits_4(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "m.csv"
    assert main(["moments", "--tau-max", "0.1", "--steps", "5",
                 "--out", str(missing)]) == 4
    assert "I/O failure" in capsys.readouterr().err


def test_wigner_grid_files(tmp_path):
    stem = tmp_path / "w.csv"
    rc = main(["wigner", "--state", "coherent", "--alpha-re", "1",
               "--times", "0,0.3", "--nx", "41", "--ny", "41", "--out", str(stem)])
    assert rc == 0
    for name, tau in (("w_tau0.csv", 0.0), ("w_tau0.3.csv", 0.3)):
        path = tmp_path / name
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        x_min, x_max, y_min, y_max, nx, ny = lines[0][2:].split(",")
        assert (int(nx), int(ny)) == (41, 41)
        vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]]).T
        assert vals.shape == (41, 41)
        dx = (float(x_max) - float(x_min)) / 41
        dy = (float(y_max) - float(y_min)) / 41
        assert vals.sum() * dx * dy == pytest.approx(1.0, abs=1e-5)
        assert np.all(vals >= 0.0)
        # the file round-trips bit for bit to the grid it was written from
        want = expected_wigner(make_coherent(1.0), tau, 41, 41)
        s = want.spec
        extents = [repr(float(v)) for v in (s.x_min, s.x_max, s.y_min, s.y_max)]
        assert lines[0] == "# " + ",".join([*extents, "41", "41"])
        assert np.array_equal(vals, want.values)


def test_wigner_json_grid(tmp_path):
    stem = tmp_path / "w.json"
    rc = main(["wigner", "--times", "0.15", "--nx", "21", "--ny", "31",
               "--format", "json", "--out", str(stem)])
    assert rc == 0
    data = json.loads((tmp_path / "w_tau0.15.json").read_text())
    assert (data["nx"], data["ny"]) == (21, 31)
    assert len(data["values"]) == 31 and len(data["values"][0]) == 21
    # every cell and extent round-trips bit for bit; values[iy][ix] = W(x_ix, y_iy)
    want = expected_wigner(make_squeezed(0.0, squeeze_from_sigma2(0.1)), 0.15, 21, 31)
    s = want.spec
    assert [data[k] for k in ("x_min", "x_max", "y_min", "y_max")] == [
        float(s.x_min), float(s.x_max), float(s.y_min), float(s.y_max)
    ]
    assert np.array_equal(np.array(data["values"]).T, want.values)


def test_classify_json(tmp_path):
    out = tmp_path / "cls.json"
    assert main(["classify", "--tau-max", "1", "--steps", "1000", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["is_lindblad_type"] is False
    assert len(data["negative_intervals"]["delta_plus_gamma"]) >= 1
    out2 = tmp_path / "cls2.json"
    assert main(["classify", "--r", "10", "--g", "0.01", "--tau-max", "10",
                 "--steps", "2000", "--out", str(out2)]) == 0
    data2 = json.loads(out2.read_text())
    assert data2["is_lindblad_type"] is True


def test_size_caps_exit_2(tmp_path, capsys):
    # rejected by validation: a 1e10-point grid is never allocated
    tracemalloc.start()
    try:
        assert main(["wigner", "--nx=100000", "--ny=100000", "--times=0",
                     "--out", str(tmp_path / "w.csv")]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert main(["wigner", "--nx=2048", "--ny=2048", "--times=0,0.1,0.2,0.3,0.4",
                 "--out", str(tmp_path / "w.csv")]) == 2
    assert main(["moments", f"--steps={cli.MAX_STEPS + 1}", "--out", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err.count("error:") == 3
    assert not list(tmp_path.iterdir())


def test_classify_long_window_and_bracket_cap(tmp_path, capsys):
    out = tmp_path / "cls.json"
    assert main(["classify", "--r=0.05", "--tau-max=1e6", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["is_lindblad_type"] is False
    assert [len(v) for v in data["negative_intervals"].values()] == [9, 9]
    assert set(data["horizon"]) == {"delta_plus_gamma", "delta_minus_gamma"}
    assert all(2.99 < h < 3.0 for h in data["horizon"].values())
    assert "n_samples" not in data
    # uncoupled: both rates vanish identically, so there is no horizon
    assert main(["classify", "--g=0", "--tau-max=1e6", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["horizon"] == {
        "delta_plus_gamma": None, "delta_minus_gamma": None}
    start = time.monotonic()
    assert main(["classify", "--r=1e-9", "--tau-max=30", "--out", str(out)]) == 3
    assert time.monotonic() - start < 1.0
    assert "brackets" in capsys.readouterr().err


def test_temperature_and_squeeze_aliases(capsys):
    assert main(["coeffs", "--wc-over-2pikt", "3e-5", "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["kt_over_wc"] == pytest.approx(1.0 / (2.0 * math.pi * 3.0e-5), rel=1e-15)
    s = 0.5 * math.log(10.0)
    assert main(["coeffs", "--squeeze-s", repr(s), "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["sigma2"] == pytest.approx(0.1, rel=1e-14)


def test_alias_and_sigma2_errors_name_the_flag(capsys):
    for flag in ("--wc-over-2pikt=0", "--wc-over-2pikt=-1", "--squeeze-s=-1",
                 "--squeeze-s=400", "--sigma2=2", "--squeeze-s=360", "--sigma2=1e-310"):
        assert main(["coeffs", flag, "--dump-config"]) == 2, flag
        err = capsys.readouterr().err
        assert flag[2:flag.index("=")] in err, err
        assert "kt_over_wc" not in err and "squeeze magnitude" not in err, err


def test_config_values_must_have_their_field_type(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    for key, val, expected in (("g", "0.1", "number"), ("steps", "12", "number"),
                               ("steps", "1e3", "number"), ("g", "abc", "number"),
                               ("state", 1, "string"), ("times", 0.1, "string")):
        cfg_file.write_text(json.dumps({key: val}))
        assert main(["coeffs", "--config", str(cfg_file), "--dump-config"]) == 2, key
        assert f"config key {key!r} must be a JSON {expected}" in capsys.readouterr().err
    # a JSON number is read as a double, so an integer past its range is inf
    cfg_file.write_text('{"g": 1' + "0" * 400 + "}")
    assert main(["coeffs", "--config", str(cfg_file), "--dump-config"]) == 2
    assert "g must be finite" in capsys.readouterr().err


def test_failing_wigner_runs_write_nothing(tmp_path, capsys):
    # the later time fails after the earlier one has been computed; at g = 0 the
    # lab-frame rotation of a strongly squeezed state leaves det(cov) < 1/4
    # (s = 10) or overflows it (s = 200); a huge grid extent overflows the later,
    # correlated state's quadratic form but not the first one's
    for args in (["--times=0.1,1e305", "--r=1e-300"],
                 ["--g=0", "--squeeze-s=10", "--times=0,0.1"],
                 ["--g=0", "--squeeze-s=200", "--times=0,0.1"],
                 ["--n-sigma=1e154", "--times=0,0.1"]):
        assert main(["wigner", *args, "--nx=5", "--ny=5", "--out", str(tmp_path / "w.csv")]) == 3
        assert not list(tmp_path.iterdir()), args
    err = capsys.readouterr().err
    assert "state at tau=0.1 is unphysical after rounding: det(cov) = 0.0" in err


def test_empty_wigner_times_exit_2(tmp_path, capsys):
    for times in ("", " , "):
        assert main(["wigner", f"--times={times}", "--out", str(tmp_path / "w.csv")]) == 2
    assert capsys.readouterr().err.count("wigner times must be one or more times") == 2
    assert not list(tmp_path.iterdir())

"""Command-line interface: files, manifests, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsepdm
from tsepdm import datafiles, plant
from tsepdm.cli import main


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_default_config_is_prototype():
    params = datafiles.params_from_config(None)
    assert params == plant.DEFAULT_PARAMS


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(datafiles.default_config_text())
    assert datafiles.params_from_config(cfg) == plant.DEFAULT_PARAMS


def test_config_rejects_unknown_symbol(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("L3 = 1e-6\n")
    with pytest.raises(datafiles.ConfigError):
        datafiles.params_from_config(cfg)


def test_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("L1 = eleven\n")
    with pytest.raises(datafiles.ConfigError):
        datafiles.params_from_config(cfg)


def test_config_rejects_duplicate_symbol():
    with pytest.raises(datafiles.ConfigError, match=r"line 3: duplicate symbol 'k'.*line 1"):
        datafiles.parse_config_text("k = 0.15\nL1 = 24e-6\nk = 0.13\n")


def test_simulate_duplicate_config_symbol_exits_2(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(datafiles.default_config_text() + "fs = 250e3\n")
    assert main(["simulate", "--config", str(cfg),
                 "--trace", str(tmp_path / "t.csv")]) == 2
    assert "duplicate symbol 'fs'" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_ntf_design_writes_expected_coefficients(tmp_path):
    out = tmp_path / "coeffs.csv"
    pz = tmp_path / "pz.csv"
    assert main(["ntf", "design", "--order", "3", "--rho", "0.075",
                 "--r", "0.9", "--out", str(out), "--pz", str(pz)]) == 0
    header, rows = read_rows(out)
    assert rows[0][0] == "num" and rows[1][0] == "den"
    num = [float(v) for v in rows[0][1:]]
    c = math.cos(0.075 * math.pi)
    assert num == pytest.approx([1.0, -(1 + 2 * c), 1 + 2 * c, -1.0])
    _, pz_rows = read_rows(pz)
    kinds = [r[2] for r in pz_rows]
    assert kinds.count("zero") == 3 and kinds.count("pole") == 3


def test_ntf_design_rejects_bad_rho(tmp_path):
    assert main(["ntf", "design", "--rho", "1.5",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_ntf_bode_rows(tmp_path):
    out = tmp_path / "bode.csv"
    assert main(["ntf", "bode", "--order", "1", "--points", "200",
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 200
    last = [float(v) for v in rows[-1]]
    assert last[0] == 1.0
    assert last[1] == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_ntf_check_reports_notch_failure(capsys):
    assert main(["ntf", "check", "--order", "1", "--rho", "0.075"]) == 0
    out = capsys.readouterr().out
    assert "notch_zero:   FAIL" in out
    assert "dc_gain_zero: pass" in out


def test_modulate_full_density(tmp_path):
    out = tmp_path / "mod.csv"
    assert main(["modulate", "--d", "1", "--ticks", "2048",
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    ys = {r[2] for r in rows}
    assert ys == {"1"}
    ss = [int(r[4]) for r in rows[:4]]
    assert ss == [1, -1, 1, -1]


def test_modulate_half_density_alternates(tmp_path):
    out = tmp_path / "mod.csv"
    assert main(["modulate", "--d", "0.5", "--ntf", "first", "--ticks", "2048",
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    ys = [int(r[2]) for r in rows[:6]]
    assert ys == [0, 1, 0, 1, 0, 1]


def test_modulate_spectrum_and_summary(tmp_path, capsys):
    out = tmp_path / "mod.csv"
    spec = tmp_path / "spec.csv"
    assert main(["modulate", "--d", "0.963", "--ntf", "tse", "--ticks", "4096",
                 "--out", str(out), "--spectrum", str(spec),
                 "--json-summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["violations"] == 0
    assert summary["mean_y"] == pytest.approx(0.963, abs=0.01)
    header, rows = read_rows(spec)
    assert header == ["ratio", "magnitude"]
    assert len(rows) == 4096 // 2 + 1


@pytest.mark.parametrize("ticks", ["0", "-3"])
def test_modulate_rejects_nonpositive_ticks(tmp_path, capsys, ticks):
    out = tmp_path / "mod.csv"
    assert main(["modulate", "--d", "0.5", "--ticks", ticks, "--out", str(out),
                 "--spectrum", str(tmp_path / "spec.csv")]) == 2
    assert "--ticks" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_modulate_short_spectrum_writes_nothing(tmp_path, capsys):
    out, spec = tmp_path / "mod.csv", tmp_path / "spec.csv"
    assert main(["modulate", "--d", "0.5", "--ticks", "1023", "--out", str(out),
                 "--spectrum", str(spec)]) == 2
    assert "too short" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_writes_trace_events_manifest(tmp_path, capsys):
    trace = tmp_path / "tr.csv"
    events = tmp_path / "ev.csv"
    code = main(["simulate", "--d1", "1", "--d2", "1", "--duration", "0.0005",
                 "--trace", str(trace), "--events", str(events),
                 "--json-summary"])
    assert code == 0
    header, rows = read_rows(trace)
    assert header == ["t", "i1", "i2", "vC1", "vC2", "u1", "u2"]
    assert len(rows) == int(0.0005 * 2 * 300e3) * 256 + 1
    manifest = (tmp_path / "tr.csv.manifest").read_text()
    assert "fs = 300000.0" in manifest
    assert "d1 = 1.0" in manifest
    summary = json.loads(capsys.readouterr().out)
    assert summary["i1_steady"] > 1.0


def test_simulate_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["simulate", "--d1", "0.963", "--ntf", "tse",
                     "--duration", "0.0004", "--trace", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("junk\n")
    assert main(["simulate", "--config", str(cfg),
                 "--trace", str(tmp_path / "t.csv")]) == 2


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frequency", "1"])
    assert exc.value.code == 2


@pytest.mark.slow
def test_sweep_rows_ordered_with_manifest_and_summary(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--side", "primary", "--ntf", "first",
                 "--grid", "0.4:0.2:0.8", "--duration", "0.004",
                 "--settle", "0.002", "--window", "0.002",
                 "--out", str(out), "--json-summary"]) == 0
    header, rows = read_rows(out)
    assert header == ["d", "i_max", "i_min", "i_mean", "fluct_percent"]
    assert [float(r[0]) for r in rows] == [0.4, 0.6, 0.8]
    assert (tmp_path / "sweep.csv.manifest").exists()
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_points"] == 3
    assert 0 <= summary["worst_fluct_pct"] < 200


def test_sweep_summary_skips_nan_points(tmp_path, capsys):
    # d = 0 never drives the tank: its zero-mean envelope reports NaN.
    short = ["--duration", "0.001", "--settle", "0.0004", "--window", "0.0006"]
    assert main(["sweep", "--side", "primary", "--ntf", "first", "--grid", "0:0.5:0.5",
                 *short, "--out", str(tmp_path / "a.csv"), "--json-summary"]) == 0
    out = capsys.readouterr().out
    assert "NaN" not in out
    summary = json.loads(out)
    _, rows = read_rows(tmp_path / "a.csv")
    assert rows[0][4] == "nan"
    assert summary["worst_d"] == 0.5
    assert summary["worst_fluct_pct"] == float(rows[1][4])
    assert summary["mean_fluct_pct"] == float(rows[1][4])

    assert main(["sweep", "--side", "primary", "--ntf", "first", "--grid", "0:0.5:0",
                 *short, "--out", str(tmp_path / "b.csv"), "--json-summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_points"] == 1
    assert summary["worst_d"] is None
    assert summary["worst_fluct_pct"] is None
    assert summary["mean_fluct_pct"] is None


@pytest.mark.slow
def test_sweep_output_independent_of_worker_count(tmp_path):
    outs = []
    for workers, name in ((1, "w1.csv"), (2, "w2.csv")):
        out = tmp_path / name
        assert main(["sweep", "--side", "secondary", "--ntf", "tse",
                     "--grid", "0.5:0.3:0.8", "--duration", "0.003",
                     "--settle", "0.001", "--window", "0.002",
                     "--workers", str(workers), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_gssa_rejects_bad_frequency_range(tmp_path):
    assert main(["gssa", "--fmin", "0.3", "--fmax", "0.1",
                 "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("fmin, fmax", [("0.01", "inf"), ("nan", "0.1"), ("0.01", "nan")])
def test_gssa_rejects_non_finite_frequency_range(tmp_path, capsys, fmin, fmax):
    assert main(["gssa", "--fmin", fmin, "--fmax", fmax,
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("points", ["0", "-5"])
def test_gssa_rejects_nonpositive_points_before_writing(tmp_path, capsys, points):
    out = tmp_path / "x.csv"
    assert main(["gssa", "--points", points, "--out", str(out)]) == 2
    assert "--points" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # neither <out> nor <out>.manifest


def test_numeric_failure_exits_3(tmp_path):
    # damping so heavy the rectifier operating point vanishes
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text(datafiles.default_config_text()
                   .replace("R1 = 0.1", "R1 = 20")
                   .replace("R2 = 0.1", "R2 = 20"))
    assert main(["gssa", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_gssa_peak_summary(tmp_path, capsys):
    out = tmp_path / "gssa.csv"
    assert main(["gssa", "--channel", "u1i1", "--points", "300",
                 "--out", str(out), "--json-summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["peak_ratio"] == pytest.approx(0.075, rel=0.1)
    _, rows = read_rows(out)
    assert len(rows) == 300


def test_stability_grid_zero_violations(tmp_path, capsys):
    out = tmp_path / "stab.csv"
    assert main(["stability", "--ntf", "tse", "--probe", "all",
                 "--ticks", "20000", "--out", str(out),
                 "--json-summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["stable"] is True
    assert summary["total_violations"] == 0
    _, rows = read_rows(out)
    probes = {r[0] for r in rows}
    assert probes == {"const", "sin", "ramp"}


@pytest.mark.parametrize("ticks", ["0", "-3"])
def test_stability_rejects_nonpositive_ticks(tmp_path, capsys, ticks):
    assert main(["stability", "--ticks", ticks, "--out", str(tmp_path / "stab.csv")]) == 2
    assert "--ticks" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
def test_dynamic_summary(tmp_path, capsys):
    out = tmp_path / "dyn.csv"
    assert main(["dynamic", "--ntf", "tse", "--duration", "0.006",
                 "--out", str(out), "--json-summary"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["amplitude_error_pct"] <= 10.0
    assert summary["corr_i1"] > 0.9
    header, _ = read_rows(out)
    assert header == ["t", "d2", "i1_envelope", "i2_envelope"]


def test_python_dash_m_runs_the_cli():
    src = Path(tsepdm.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "tsepdm", "--help"], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: tsepdm")

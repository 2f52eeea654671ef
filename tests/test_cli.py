"""Command-line interface: files, manifests, exit codes, reproducibility."""

import argparse
import ast
import dataclasses
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tsepdm
from tsepdm import analysis, cli, datafiles, experiments, gssa, modulator, ntf, plant
from tsepdm.cli import main


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def config_text(params=plant.DEFAULT_PARAMS):
    """A config file setting every plant constant of ``params``."""
    return "".join(f"{key} = {value!r}\n" for key, value in dataclasses.asdict(params).items())


def test_default_config_is_prototype():
    params = datafiles.params_from_config(None)
    assert params == plant.DEFAULT_PARAMS


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(config_text())
    assert datafiles.params_from_config(cfg) == plant.DEFAULT_PARAMS


def test_config_file_sets_only_the_symbols_it_names(tmp_path):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("k = 0.13\n")
    assert (datafiles.params_from_config(cfg, Vg=15.0)
            == dataclasses.replace(plant.DEFAULT_PARAMS, k=0.13, Vg=15.0))
    # a keyword is a default beneath the file: a symbol the file names wins
    cfg.write_text("k = 0.13\nVg = 20\n")
    assert (datafiles.params_from_config(cfg, Vg=15.0, Vo=15.0)
            == dataclasses.replace(plant.DEFAULT_PARAMS, k=0.13, Vg=20.0, Vo=15.0))


def test_readme_config_block_is_prototype():
    # the README's config example is the one written-out copy of the defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config file format", 1)[1].split("```")[1]
    values = datafiles.parse_config_text(block)
    assert tuple(values) == datafiles.CONFIG_KEYS
    assert plant.PlantParams(**values) == plant.DEFAULT_PARAMS


def test_readme_commands_parse():
    # every command example in the README parses: a removed flag left in an
    # example fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```")[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("tsepdm ")]
    assert len(commands) >= 10
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


# Each command with only its required flags.
REQUIRED_FLAGS = {
    "ntf": ["design", "--out", "o"], "modulate": ["--d", "0.5", "--out", "o"], "simulate": ["--trace", "o"],
    "sweep": ["--side", "primary", "--out", "o"], "gssa": ["--out", "o"],
    "stability": ["--out", "o"], "dynamic": ["--out", "o"],
}


def test_cli_defaults_are_the_library_defaults():
    # a flag that configures a library object defaults to that object's default
    parser = cli._build_parser()
    args = {cmd: parser.parse_args([cmd, *flags]) for cmd, flags in REQUIRED_FLAGS.items()}
    spec = ntf.NtfDesignSpec()
    sim = plant.SimConfig()
    preset = experiments.ExperimentPreset(name="x", side="primary")
    for cmd in ("ntf", "modulate", "simulate", "sweep", "stability", "dynamic"):
        assert (args[cmd].rho, args[cmd].r) == (spec.notch_ratio, spec.pole_radius), cmd
    for cmd in ("ntf", "modulate", "simulate", "sweep", "stability", "dynamic"):
        assert args[cmd].ntf == preset.ntf_kind, cmd
    a = args["simulate"]
    assert (a.duration, a.steps) == (sim.duration, sim.steps_per_half_cycle)
    a = args["sweep"]
    assert (a.rho, a.r, a.duration, a.steps, a.settle, a.window) == (
        preset.rho, preset.r, preset.duration, preset.steps_per_half_cycle,
        preset.settle, preset.window)
    assert preset.sim_config == dataclasses.replace(sim, duration=preset.duration,
                                                    collect_samples=False)
    fluct = inspect.signature(analysis.fluctuation).parameters
    assert (a.settle, a.window) == (analysis.SETTLE_S, analysis.WINDOW_S) == (
        fluct["settle"].default, fluct["window"].default)
    a = args["gssa"]
    peak = inspect.signature(gssa.find_bode_peak).parameters
    assert (a.fmin, a.fmax, a.points) == (
        gssa.BODE_RATIO_MIN, gssa.BODE_RATIO_MAX, gssa.BODE_POINTS) == (
        peak["ratio_min"].default, peak["ratio_max"].default, peak["n_points"].default)
    a = args["dynamic"]
    dyn = inspect.signature(experiments.run_dynamic_response).parameters
    assert (a.rho, a.r, a.duration, a.freq, a.steps) == (
        spec.notch_ratio, spec.pole_radius, experiments.DYNAMIC_DURATION,
        experiments.DYNAMIC_FREQ, sim.steps_per_half_cycle) == tuple(
        dyn[name].default for name in ("rho", "r", "duration", "mod_freq",
                                       "steps_per_half_cycle"))


def _commands(parser, path=()):
    """``(command, parser)`` for each parser that ends a command line: every
    subcommand, and each action of ``ntf`` (command ``"ntf design"``)."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _commands(child, (*path, name))


def test_cli_choice_lists_are_the_library_lists():
    choices = {(cmd, action.dest): tuple(action.choices)
               for cmd, sub in _commands(cli._build_parser()) for action in sub._actions
               if action.choices}
    assert choices[("sweep", "side")] == experiments.SIDES
    assert choices[("modulate", "window")] == tuple(analysis.WINDOWS)
    assert sorted(cli._CHANNEL_FLAGS[c] for c in choices[("gssa", "channel")]) == sorted(
        gssa.CHANNELS)
    for cmd in ("ntf design", "ntf bode", "ntf check", "modulate", "simulate", "sweep",
                "stability", "dynamic"):
        assert choices[(cmd, "ntf")] == experiments.NTF_KINDS, cmd


def unread_flags(parser: argparse.ArgumentParser) -> set[str]:
    """``"<command> <flag>"`` for each option a command declares that its
    function never reads as ``args.<dest>``, the functions of the cli module
    it calls included; only a load of the attribute counts, as in
    tests/test_unread_code.py."""
    funcs = {node.name: node for node in ast.parse(Path(cli.__file__).read_text()).body
             if isinstance(node, ast.FunctionDef)}

    def reads(name: str, seen: set[str]) -> set[str]:
        seen.add(name)
        read = set()
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id == "args"):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in funcs and node.func.id not in seen):
                read |= reads(node.func.id, seen)
        return read

    unread = set()
    for cmd, sub in _commands(parser):
        read = reads(sub.get_default("func").__name__, set())
        unread |= {f"{cmd} {action.option_strings[-1]}" for action in sub._actions
                   if action.option_strings and action.dest != "help" and action.dest not in read}
    return unread


def test_every_flag_is_read_by_its_command():
    assert unread_flags(cli._build_parser()) == set()


def test_flag_guard_names_a_flag_its_command_does_not_read():
    parser = cli._build_parser.__wrapped__()  # a fresh parser, not the shared one
    commands = dict(_commands(parser))
    commands["ntf check"].add_argument("--out")
    commands["modulate"].add_argument("--seed", type=int)
    assert unread_flags(parser) == {"ntf check --out", "modulate --seed"}


@pytest.mark.parametrize("argv", [
    ["ntf", "check", "--out", "x.csv"], ["ntf", "check", "--pz", "y.csv"],
    ["ntf", "check", "--points", "64"], ["ntf", "bode", "--out", "b.csv", "--pz", "p.csv"],
    ["ntf", "design", "--out", "c.csv", "--points", "64"],
    ["ntf", "design", "--pz", "p.csv"], ["ntf", "bode", "--points", "64"],
], ids=["check-out", "check-pz", "check-points", "bode-pz", "design-points",
        "design-without-out", "bode-without-out"])
def test_ntf_rejects_a_flag_its_action_does_not_read(tmp_path, monkeypatch, argv):
    # each action declares only the flags it reads: a misplaced one, or a
    # missing --out, is a usage error that writes nothing
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("points", ["0", "1"])
def test_ntf_bode_rejects_too_few_points_before_writing(tmp_path, capsys, points):
    out = tmp_path / "b.csv"
    assert main(["ntf", "bode", "--points", points, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --points must be in [2, inf), got {points}\n"
    assert list(tmp_path.iterdir()) == []


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
    cfg.write_text(config_text() + "fs = 250e3\n")
    assert main(["simulate", "--config", str(cfg),
                 "--trace", str(tmp_path / "t.csv")]) == 2
    assert "duplicate symbol 'fs'" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_ntf_design_writes_expected_coefficients(tmp_path):
    out = tmp_path / "coeffs.csv"
    pz = tmp_path / "pz.csv"
    assert main(["ntf", "design", "--ntf", "tse", "--rho", "0.075",
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
    assert main(["ntf", "bode", "--ntf", "first", "--points", "200",
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 200
    last = [float(v) for v in rows[-1]]
    assert last[0] == 1.0
    assert last[1] == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_ntf_check_reports_notch_failure(capsys):
    assert main(["ntf", "check", "--ntf", "first", "--rho", "0.075"]) == 0
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


def test_modulate_file_matches_per_row_density_column(tmp_path):
    out = tmp_path / "mod.csv"
    d = 0.1 + 0.2
    assert main(["modulate", "--d", repr(d), "--ntf", "first", "--ticks", "3000",
                 "--out", str(out)]) == 0
    y, e = modulator.run(ntf.build_first_order(), d, n_ticks=3000)
    expected = tmp_path / "expected.csv"
    datafiles.write_rows(expected, ["tick", "d", "y", "e", "s"],
                         (np.arange(3000), np.full(3000, d), y, e, modulator.gate_split(y)))
    assert out.read_bytes() == expected.read_bytes()


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
    assert f"blanking_fraction = {plant.SimConfig.blanking_fraction!r}" in manifest.splitlines()
    summary = json.loads(capsys.readouterr().out)
    assert summary["i1_steady"] > 1.0


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_simulate_summary_of_run_without_steady_window_holds_nulls(tmp_path, capsys):
    # 2.3e-6 s rounds to one half cycle, which ends at 1.67e-6 s, before the
    # last 20% of the run: there is nothing to average.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--duration", "2.3e-6", "--trace", str(tmp_path / "x.csv"),
                     "--json-summary"]) == 0
    summary = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert summary == {"diagnostics": [], "events": 2,
                       "i1_steady": None, "i2_steady": None}


def test_simulate_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["simulate", "--d1", "0.963", "--ntf", "tse",
                     "--duration", "0.0004", "--trace", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command, flag", [
    (["modulate", "--d", "0.5", "--ticks", "100"], "--out"),
    (["ntf", "design"], "--out"),
    (["simulate", "--duration", "1e-5", "--trace", "t.csv"], "--events"),
    (["ntf", "design", "--out", "c.csv"], "--pz")])
def test_unwritable_output_path_exits_2(tmp_path, monkeypatch, capsys, command, flag):
    # a later output path that cannot be written fails the command before
    # its first output is written
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "missing" / "x.csv"
    assert main([*command, flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_simulate_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("junk\n")
    assert main(["simulate", "--config", str(cfg),
                 "--trace", str(tmp_path / "t.csv")]) == 2


@pytest.mark.parametrize("command", [
    ["simulate", "--trace"], ["sweep", "--side", "primary", "--grid", "0.5:0.1:0.5", "--out"],
    ["gssa", "--out"]])
@pytest.mark.parametrize("line", ["R1 = nan", "L1 = inf", "Vo = -inf"])
def test_non_finite_config_value_exits_2_before_writing(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main([command[0], "--config", str(cfg), *command[1:],
                 str(tmp_path / "out.csv")]) == 2
    symbol = line.split()[0]
    assert f"{symbol} must be in (0, inf)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("duration", ["0", "nan", "inf"])
def test_simulate_rejects_bad_duration_before_writing(tmp_path, capsys, duration):
    assert main(["simulate", "--duration", duration,
                 "--trace", str(tmp_path / "t.csv")]) == 2
    assert "duration must be in (0, inf)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    manifest = (tmp_path / "sweep.csv.manifest").read_text().splitlines()
    assert f"blanking_fraction = {plant.SimConfig.blanking_fraction!r}" in manifest
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


@pytest.mark.parametrize("flags, message", [
    (["--duration", "1e-3", "--settle", "2e-3"], "settle < duration"),
    (["--settle=-1e-4"], "settle must be in [0, inf)"),
    (["--duration", "nan"], "duration must be in (0, inf)"),
    (["--window", "0"], "window must be in (0, inf)"),
    (["--window", "inf"], "window must be in (0, inf)"),
    (["--workers", "0"], "workers must be in [1, inf)"),
    (["--workers", "-3"], "workers must be in [1, inf)"),
    (["--steps", "16"], "steps_per_half_cycle must be in [32, inf)"),
    (["--ntf", "first", "--rho", "5"], "notch_ratio must be in (0, 1)"),
], ids=[  # the rule each case breaks
    "flags0-settle < duration", "flags1-settle < duration", "flags2-settle < duration",
    "flags3-window must be finite and positive", "flags4-window must be finite and positive",
    "flags5-workers must be at least 1", "flags6-workers must be at least 1",
    "flags7-steps_per_half_cycle must be >= 32",
    "flags8-notch settings are checked for either NTF kind"])
def test_sweep_rejects_bad_window_or_workers_before_simulating(tmp_path, capsys, monkeypatch,
                                                              flags, message):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a sweep point")

    monkeypatch.setattr(experiments, "run_sweep_point", no_simulation)
    assert main(["sweep", "--side", "primary", "--grid", "0.5:0.1:0.5", *flags,
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_rejects_a_window_after_the_last_half_cycle(tmp_path, capsys, monkeypatch,
                                                          workers):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a sweep point")

    monkeypatch.setattr(experiments, "simulate", no_simulation)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_simulation)
    assert main(["sweep", "--side", "primary", "--grid", "0.5:0.1:0.5",
                 "--duration", "3.1008e-3", "--settle", "3.1005e-3", "--window", "1e-3",
                 "--workers", workers, "--out", str(tmp_path / "s.csv")]) == 2
    assert "analysis window is empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    bad = "ratio_min" if fmin == "nan" else "ratio_max"
    assert f"{bad} must be in (0, inf)" in capsys.readouterr().err
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
    cfg.write_text(config_text(dataclasses.replace(plant.DEFAULT_PARAMS, R1=20.0, R2=20.0)))
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


def test_stability_csv_matches_direct_probe_reports(tmp_path):
    # constant lanes: the mean density error is |mean(y) - d| against the
    # lane's own d; the sin and ramp rows report `run` on each waveform
    out, ref = tmp_path / "stab.csv", tmp_path / "ref.csv"
    assert main(["stability", "--probe", "all", "--ticks", "3000", "--out", str(out)]) == 0
    tf = experiments.make_ntf("tse")
    grid = experiments.standard_density_grid()
    y_all, e_all = modulator.run_const_grid(tf, grid, 3000)
    rows = [["const", d, float(e.min()), float(e.max()), modulator.count_violations(e),
             float(abs(y.mean() - d))] for d, y, e in zip(grid, y_all.T, e_all.T)]
    for probe, wave in (("sin", modulator.sinusoid_density(3000)),
                        ("ramp", modulator.ramp_density(3000))):
        rep = modulator.StabilityReport.of(*modulator.run(tf, wave), wave.mean())
        rows.append([probe, 0.5, rep.e_min, rep.e_max, rep.violation_count,
                     rep.mean_density_error])
    datafiles.write_rows(ref, ["probe", "d", "e_min", "e_max", "violations",
                               "mean_density_error"], zip(*rows, strict=True))
    assert out.read_bytes() == ref.read_bytes()


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


@pytest.mark.parametrize("config, rails", [
    (None, (experiments.DYNAMIC_RAIL, experiments.DYNAMIC_RAIL)),
    ("Vg = 20\nVo = 25\n", (20.0, 25.0))], ids=["no-config", "config"])
def test_dynamic_runs_at_the_config_rails_else_the_dynamic_rail(tmp_path, config, rails):
    out = tmp_path / "dyn.csv"
    argv = ["dynamic", "--duration", "4.1e-3", "--steps", "32", "--out", str(out)]
    if config is not None:
        (tmp_path / "c.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "c.cfg")]
    assert main(argv) == 0
    manifest = (tmp_path / "dyn.csv.manifest").read_text().splitlines()
    assert [f"Vg = {rails[0]!r}", f"Vo = {rails[1]!r}"] == [
        line for line in manifest if line.startswith(("Vg ", "Vo "))]
    params = dataclasses.replace(plant.DEFAULT_PARAMS, Vg=rails[0], Vo=rails[1])
    resp = experiments.run_dynamic_response(params, "tse", duration=4.1e-3,
                                            steps_per_half_cycle=32)
    _, rows = read_rows(out)
    assert [row[2:] for row in rows] == [[repr(i1), repr(i2)] for i1, i2 in zip(
        resp.env_i1.tolist(), resp.env_i2.tolist(), strict=True)]


def run_alone(argv, cwd=None):
    """``python -m tsepdm argv`` in a fresh process, from ``cwd``."""
    src = Path(tsepdm.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "tsepdm", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60, check=False)


def test_python_dash_m_runs_the_cli():
    proc = run_alone(["--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: tsepdm")


def test_calls_in_one_process_write_what_they_write_alone(tmp_path, capsys):
    # the parser is built once per process; a call after others, with
    # another subcommand or other flags, reads none of their values
    calls = [
        ["modulate", "--d", "0.3", "--ntf", "first", "--ticks", "1100", "--out", "m.csv",
         "--spectrum", "s.csv", "--json-summary"],
        ["simulate", "--d2", "0.8", "--duration", "2e-5", "--trace", "t.csv",
         "--events", "e.csv", "--json-summary"],
        ["modulate", "--d", "0.9", "--ticks", "300", "--window", "hann", "--out", "m.csv"],
        ["stability", "--probe", "sin", "--rho", "0.08", "--ticks", "300", "--out", "o.csv"],
    ]
    for i, argv in enumerate(calls):
        alone, shared = tmp_path / f"alone{i}", tmp_path / f"shared{i}"
        alone.mkdir()
        shared.mkdir()
        proc = run_alone(argv, cwd=alone)
        assert proc.returncode == 0, proc.stderr
        assert main([str(shared / a) if a.endswith(".csv") else a for a in argv]) == 0
        assert capsys.readouterr().out == proc.stdout
        files = sorted(f.name for f in alone.iterdir())
        assert sorted(f.name for f in shared.iterdir()) == files and files
        for name in files:
            assert (shared / name).read_bytes() == (alone / name).read_bytes(), (argv, name)

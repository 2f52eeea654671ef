"""Command-line front end: one subcommand per experiment.

Commands write delimiter-separated output files. The plant commands
(``simulate``, ``sweep``, ``gssa``, ``dynamic``) resolve the plant constants
from the `plant.PlantParams` defaults and an optional key-value
``--config`` file. Every command but ``ntf`` and ``modulate`` also writes a
``<out>.manifest`` recording the resolved parameters, and every command but
``ntf`` can print a machine-readable JSON summary. Identical inputs produce
byte-identical outputs.

Exit codes: 0 success, 2 usage/configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import analysis, datafiles, experiments, gssa, modulator, ntf, plant
from .checks import check_integer

USAGE_ERROR = 2
NUMERIC_ERROR = 3

_CHANNEL_FLAGS = {name.replace("->", ""): name for name in gssa.CHANNELS}
# The output-path flags (argparse dests), all checked before a command runs.
_OUTPUT_FLAGS = ("out", "pz", "spectrum", "trace", "events")

_CONFIG_HELP = ("key-value plant constants file; symbols it does not name keep "
                "the measured prototype values")


def _add_ntf_flags(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p.add_argument("--ntf", choices=experiments.NTF_KINDS, default="tse",
                   help="noise transfer function (default %(default)s)")
    p.add_argument("--rho", type=float, default=ntf.NtfDesignSpec.notch_ratio,
                   help="notch frequency ratio omega_e/omega_s (default %(default)s)")
    p.add_argument("--r", type=float, default=ntf.NtfDesignSpec.pole_radius,
                   help="notch pole radius (default %(default)s)")
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later `main`
    call: parsing reads it and changes nothing in it."""
    root = argparse.ArgumentParser(
        prog="tsepdm",
        description="Pulse-density modulation experiments for an "
                    "SS-compensated wireless power link.")
    sub = root.add_subparsers(dest="command", required=True)

    ntf_actions = sub.add_parser("ntf", help="design, check, or sweep a noise transfer function"
                                 ).add_subparsers(dest="action", required=True)
    p = _add_ntf_flags(ntf_actions.add_parser("design", help="write the coefficients"))
    p.add_argument("--out", required=True, help="(label, z^n ...) coefficient rows")
    p.add_argument("--pz", help="optional pole-zero file (re, im, kind)")
    p.set_defaults(func=cmd_ntf_design)
    p = _add_ntf_flags(ntf_actions.add_parser("bode", help="write the frequency response"))
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--out", required=True, help="(ratio, mag_db, phase_rad) rows")
    p.set_defaults(func=cmd_ntf_bode)
    _add_ntf_flags(ntf_actions.add_parser("check", help="print the requirement checks")
                   ).set_defaults(func=cmd_ntf_check)

    p = sub.add_parser("modulate", help="run the modulator at a constant density")
    p.add_argument("--d", type=float, required=True)
    _add_ntf_flags(p)
    p.add_argument("--ticks", type=int, default=16384)
    p.add_argument("--window", choices=analysis.WINDOWS, default="rectangular")
    p.add_argument("--out", required=True, help="(tick, d, y, e, s) rows")
    p.add_argument("--spectrum", help="optional spectrum file (ratio, magnitude)")
    p.add_argument("--json-summary", action="store_true")
    p.set_defaults(func=cmd_modulate)

    p = sub.add_parser("simulate", help="co-simulate the tank with PDM bridges")
    p.add_argument("--config", help=_CONFIG_HELP)
    p.add_argument("--d1", type=float, default=1.0)
    p.add_argument("--d2", type=float, default=1.0)
    _add_ntf_flags(p)
    p.add_argument("--duration", type=float, default=plant.SimConfig.duration)
    p.add_argument("--steps", type=int, default=plant.SimConfig.steps_per_half_cycle)
    p.add_argument("--trace", required=True, help="sample rows (t,i1,i2,vC1,vC2,u1,u2)")
    p.add_argument("--events", help="gate event rows (tick, side, y, s, t_event)")
    p.add_argument("--json-summary", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="density sweep with fluctuation reports")
    p.add_argument("--config", help=_CONFIG_HELP)
    p.add_argument("--side", choices=experiments.SIDES, required=True)
    _add_ntf_flags(p)
    p.add_argument("--grid", default="standard", help="'standard' or start:step:stop")
    p.add_argument("--duration", type=float, default=experiments.ExperimentPreset.duration)
    p.add_argument("--steps", type=int, default=plant.SimConfig.steps_per_half_cycle)
    p.add_argument("--settle", type=float, default=analysis.SETTLE_S)
    p.add_argument("--window", type=float, default=analysis.WINDOW_S)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="(d, Imax, Imin, Imean, fluct_percent) rows")
    p.add_argument("--json-summary", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gssa", help="envelope small-signal frequency response")
    p.add_argument("--config", help=_CONFIG_HELP)
    p.add_argument("--channel", choices=sorted(_CHANNEL_FLAGS), default="u1i1")
    p.add_argument("--fmin", type=float, default=gssa.BODE_RATIO_MIN,
                   help="low edge, ratio units")
    p.add_argument("--fmax", type=float, default=gssa.BODE_RATIO_MAX,
                   help="high edge, ratio units")
    p.add_argument("--points", type=int, default=gssa.BODE_POINTS)
    p.add_argument("--out", required=True, help="(delta_omega_ratio, mag_dB) rows")
    p.add_argument("--json-summary", action="store_true")
    p.set_defaults(func=cmd_gssa)

    p = sub.add_parser("stability", help="quantization-error range probes")
    _add_ntf_flags(p)
    p.add_argument("--probe", choices=("grid", "sin", "ramp", "all"), default="all")
    p.add_argument("--ticks", type=int, default=100_000)
    p.add_argument("--grid", default="standard")
    p.add_argument("--out", required=True,
                   help="(probe, d, e_min, e_max, violations, mean_density_error) rows")
    p.add_argument("--json-summary", action="store_true")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("dynamic", help="sinusoidal density tracking on the secondary")
    p.add_argument("--config", help=_CONFIG_HELP)
    _add_ntf_flags(p)
    p.add_argument("--duration", type=float, default=experiments.DYNAMIC_DURATION)
    p.add_argument("--freq", type=float, default=experiments.DYNAMIC_FREQ)
    p.add_argument("--steps", type=int, default=plant.SimConfig.steps_per_half_cycle)
    p.add_argument("--out", required=True, help="(t, d2, i1_envelope, i2_envelope) rows")
    p.add_argument("--json-summary", action="store_true")
    p.set_defaults(func=cmd_dynamic)

    return root


def _emit_summary(args, summary: dict):
    if args.json_summary:
        print(json.dumps(summary, sort_keys=True))


def cmd_ntf_design(args) -> int:
    tf = experiments.make_ntf(args.ntf, args.rho, args.r)
    num = tuple(tf.num) + (0.0,) * (len(tf.den) - len(tf.num))
    datafiles.write_rows(args.out, ["label"] + [f"z{len(tf.den)-1-i}" for i in range(len(tf.den))],
                         zip(["num", *num], ["den", *tf.den], strict=True))
    if args.pz:
        zeros, poles = ntf.zeros_poles(tf)
        rows = [[z.real, z.imag, "zero"] for z in zeros]
        rows += [[pp.real, pp.imag, "pole"] for pp in poles]
        datafiles.write_rows(args.pz, ["re", "im", "kind"], zip(*rows, strict=True))
    return 0


def cmd_ntf_bode(args) -> int:
    check_integer("--points", args.points, 2)
    rows = ntf.bode_data(experiments.make_ntf(args.ntf, args.rho, args.r), args.points)
    datafiles.write_rows(args.out, ["ratio", "mag_db", "phase_rad"], rows.T)
    return 0


def cmd_ntf_check(args) -> int:
    tf = experiments.make_ntf(args.ntf, args.rho, args.r)
    report = ntf.check_requirements(tf, ntf.NtfDesignSpec(args.rho, args.r))
    print(f"dc_gain_zero: {'pass' if report.dc_gain_zero else 'FAIL'} "
          f"(residual {report.dc_residual:.3e})")
    print(f"realizable:   {'pass' if report.realizable else 'FAIL'} "
          f"(residual {report.realizability_residual:.3e})")
    print(f"notch_zero:   {'pass' if report.notch_ok else 'FAIL'} "
          f"(gain {report.notch_gain:.6f} at ratio {report.notch_ratio})")
    print(f"notes: {report.notes}")
    return 0


def cmd_modulate(args) -> int:
    check_integer("--ticks", args.ticks, 1)
    tf = experiments.make_ntf(args.ntf, args.rho, args.r)
    y, e = modulator.run(tf, args.d, n_ticks=args.ticks)
    # the spectrum validates length and window before any file is written
    spec = analysis.spectrum_of_sequence(y, window=args.window) if args.spectrum else None
    # d as one text cell repeated: the writer formats it a chunk at a time
    d_cells = np.full(args.ticks, datafiles.format_value(args.d))
    datafiles.write_rows(args.out, ["tick", "d", "y", "e", "s"],
                         (np.arange(args.ticks), d_cells, y, e, modulator.gate_split(y)))
    if spec is not None:
        datafiles.write_rows(args.spectrum, ["ratio", "magnitude"],
                             (spec.ratios, spec.magnitudes))
    _emit_summary(args, {
        "d": args.d, "ticks": args.ticks, "ntf": args.ntf,
        "mean_y": float(y.mean()),
        "e_min": float(e.min()), "e_max": float(e.max()),
        "violations": modulator.count_violations(e),
    })
    return 0


def cmd_simulate(args) -> int:
    params = datafiles.params_from_config(args.config)
    tf = experiments.make_ntf(args.ntf, args.rho, args.r)
    cfg = plant.SimConfig(steps_per_half_cycle=args.steps, duration=args.duration)
    trace = plant.simulate(params, cfg,
                           modulator.PulseDensityModulator(tf),
                           modulator.PulseDensityModulator(tf),
                           args.d1, args.d2)
    datafiles.write_rows(args.trace, ["t", "i1", "i2", "vC1", "vC2", "u1", "u2"],
                         (trace.t, *trace.states.T, *trace.u.T))
    if args.events:
        datafiles.write_rows(args.events, ["tick", "side", "y", "s", "t_event"],
                             zip(*trace.events, strict=True))
    datafiles.write_manifest(args.trace, {
        **dataclasses.asdict(params),
        "d1": args.d1, "d2": args.d2, "ntf": args.ntf, "rho": args.rho, "r": args.r,
        "duration": args.duration, "steps_per_half_cycle": args.steps,
        "blanking_fraction": cfg.blanking_fraction,
    })
    # Steady values average the half cycles ending in the last 20% of the
    # run; a run too short to have any holds nulls.
    tail = trace.envelope_t > 0.8 * args.duration
    _emit_summary(args, {
        "i1_steady": float(trace.envelope_i1[tail].mean()) if tail.any() else None,
        "i2_steady": float(trace.envelope_i2[tail].mean()) if tail.any() else None,
        "events": len(trace.events),
        "diagnostics": trace.diagnostics,
    })
    return 0


def cmd_sweep(args) -> int:
    params = datafiles.params_from_config(args.config)
    preset = experiments.ExperimentPreset(
        name=f"sweep-{args.side}-{args.ntf}", side=args.side,
        densities=experiments.parse_density_grid(args.grid),
        ntf_kind=args.ntf, rho=args.rho, r=args.r,
        duration=args.duration, steps_per_half_cycle=args.steps,
        settle=args.settle, window=args.window)
    reports = experiments.run_density_sweep(params, preset, workers=args.workers)
    datafiles.write_rows(args.out, ["d", "i_max", "i_min", "i_mean", "fluct_percent"],
                         zip(*[[rep.d, rep.i_max, rep.i_min, rep.i_mean, rep.fluctuation_pct]
                               for rep in reports], strict=True))
    datafiles.write_manifest(args.out, {
        **dataclasses.asdict(params),
        **{f"preset_{key}": val for key, val in dataclasses.asdict(preset).items()
           if key != "densities"},
        "blanking_fraction": preset.sim_config.blanking_fraction,
        "grid": args.grid, "n_points": len(reports),
    })
    # A degenerate (zero-mean, NaN) point is neither the worst nor part of
    # the mean, and with none finite the summary holds nulls.
    finite = [rep for rep in reports if not rep.degenerate]
    worst = max(finite, key=lambda rep: rep.fluctuation_pct, default=None)
    _emit_summary(args, {
        "side": args.side, "ntf": args.ntf, "n_points": len(reports),
        "worst_d": None if worst is None else worst.d,
        "worst_fluct_pct": None if worst is None else worst.fluctuation_pct,
        "mean_fluct_pct": (float(np.mean([rep.fluctuation_pct for rep in finite]))
                           if finite else None),
    })
    return 0


def cmd_gssa(args) -> int:
    params = datafiles.params_from_config(args.config)
    model = gssa.build_envelope_model(params)
    try:
        rows = gssa.bode_grid_rows(model, _CHANNEL_FLAGS[args.channel],
                                   args.fmin, args.fmax, args.points)
    except ValueError as exc:
        raise datafiles.ConfigError(f"--fmin/--fmax/--points: {exc}") from None
    datafiles.write_rows(args.out, ["delta_omega_ratio", "mag_db"], rows.T)
    datafiles.write_manifest(args.out, {
        **dataclasses.asdict(params), "channel": args.channel,
        "fmin": args.fmin, "fmax": args.fmax, "points": args.points,
    })
    peak_ratio, peak_db = gssa.bode_peak(rows)
    _emit_summary(args, {
        "channel": args.channel, "peak_ratio": peak_ratio, "peak_db": peak_db,
        "predicted_ratio": 0.5 * params.k,
        "i1_amp": model.i1_amp, "i2_amp": model.i2_amp,
    })
    return 0


def cmd_stability(args) -> int:
    check_integer("--ticks", args.ticks, 1)
    tf = experiments.make_ntf(args.ntf, args.rho, args.r)
    probes = []  # (probe, d, StabilityReport)
    if args.probe in ("grid", "all"):
        grid = experiments.parse_density_grid(args.grid)
        y_all, e_all = modulator.run_const_grid(tf, grid, args.ticks)
        probes += [("const", d, rep) for d, rep in zip(
            grid, modulator.StabilityReport.of_lanes(y_all, e_all, grid), strict=True)]
    for probe, waveform in (("sin", modulator.sinusoid_density),
                            ("ramp", modulator.ramp_density)):
        if args.probe in (probe, "all"):
            d = waveform(args.ticks)
            probes.append((probe, 0.5, modulator.StabilityReport.of(
                *modulator.run(tf, d), d.mean())))
    rows = [[probe, d, rep.e_min, rep.e_max, rep.violation_count, rep.mean_density_error]
            for probe, d, rep in probes]
    total_violations = sum(rep.violation_count for _, _, rep in probes)
    e_min = min(rep.e_min for _, _, rep in probes)
    e_max = max(rep.e_max for _, _, rep in probes)

    datafiles.write_rows(args.out,
                         ["probe", "d", "e_min", "e_max", "violations",
                          "mean_density_error"], zip(*rows, strict=True))
    datafiles.write_manifest(args.out, {
        "ntf": args.ntf, "rho": args.rho, "r": args.r,
        "probe": args.probe, "ticks": args.ticks, "grid": args.grid,
    })
    _emit_summary(args, {
        "ntf": args.ntf, "rho": args.rho,
        "total_violations": total_violations,
        "e_min": e_min, "e_max": e_max, "stable": total_violations == 0,
    })
    return 0


def cmd_dynamic(args) -> int:
    rail = experiments.DYNAMIC_RAIL
    params = datafiles.params_from_config(args.config, Vg=rail, Vo=rail)
    resp = experiments.run_dynamic_response(params, args.ntf, args.rho, args.r,
                                            duration=args.duration,
                                            mod_freq=args.freq,
                                            steps_per_half_cycle=args.steps)
    d_ref = np.array([experiments.dynamic_d2(t, args.freq) for t in resp.env_t.tolist()])
    datafiles.write_rows(args.out, ["t", "d2", "i1_envelope", "i2_envelope"],
                         (resp.env_t, d_ref, resp.env_i1, resp.env_i2))
    datafiles.write_manifest(args.out, {
        **dataclasses.asdict(params), "ntf": args.ntf, "rho": args.rho, "r": args.r,
        "duration": args.duration, "mod_freq": args.freq,
        "steps_per_half_cycle": args.steps,
    })
    _emit_summary(args, {
        "ntf": args.ntf,
        "density_amplitude": resp.density_amplitude,
        "amplitude_error_pct": resp.amplitude_error_pct,
        "corr_i1": resp.corr_i1, "corr_i2": resp.corr_i2,
    })
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        datafiles.check_output_paths(*(getattr(args, f, None) for f in _OUTPUT_FLAGS))
        return args.func(args)
    except (datafiles.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


"""Command-line interface: simulate, analyze, design-check and report.

The config file plus the seed fully determine every record `simulate`
writes, and reruns with the same set of allowed CPUs produce
byte-identical files.  Fit results can differ in the last digits between
one and two allowed CPUs (the BLAS thread count changes the summation
order in the fits).  Exit codes: 0 success, 2 configuration error, 3 I/O
error, 4 fit failure or non-convergence.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import cavity as _cavity
from . import estimate as _estimate
from . import io as _io
from . import mech as _mech
from . import servo as _servo
from . import synth as _synth
from .config import Config, ConfigError, default_config, load_config
from .constants import BOLTZMANN, PLANCK

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_FIT = 4

# fixed offsets on the base seed, one per synthetic experiment
_SEED_BROWNIAN = 0
_SEED_RINGDOWN_OPT = 1
_SEED_RINGDOWN_MECH = 2
_SEED_SWEEP_NESTED = 3
_SEED_SWEEP_SINGLE = 4
_SEED_LOCK = 5


def format_value_pm(value: float, sigma: float) -> str:
    """Render value +/- sigma with sigma rounded to two significant digits."""
    if not (math.isfinite(sigma) and sigma > 0):
        return f"{value:,.6g} ± 0"
    decimals = 1 - int(math.floor(math.log10(sigma)))
    sigma_r = round(sigma, decimals)
    if sigma_r != 0:
        decimals = 1 - int(math.floor(math.log10(sigma_r)))
    value_r = round(value, decimals)
    if decimals <= 0:
        return f"{value_r:,.0f} ± {sigma_r:,.0f}"
    return f"{value_r:,.{decimals}f} ± {sigma_r:,.{decimals}f}"


def _out_dir(args) -> str:
    out = args.out or os.environ.get("OPTOMECH_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _load(args) -> Config:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg.synth["seed"] = int(args.seed)
    return cfg


def _sweep_freqs(f_min, f_max, points_per_decade):
    lo = math.ceil(math.log10(f_min) * points_per_decade)
    hi = math.floor(math.log10(f_max) * points_per_decade)
    return [10 ** (k / points_per_decade) for k in range(lo, hi + 1)]


def _brownian_record(cfg: Config, seed: int, temp_override=None):
    p = cfg.synth["brownian"]
    mode = cfg.inner if p["device"] == "inner" else cfg.outer
    if temp_override is not None:
        mode = _mech.MechMode(mode.f0, mode.q, mode.m_eff, temp_override)
    center = mode.f0 if p["mode"] == "envelope" else None
    return mode, _synth.synth_brownian(
        mode, p["sample_rate_hz"], p["duration_s"], seed,
        noise_floor=p["noise_floor_m2_per_hz"], center_freq=center)


def _welch(cfg: Config, ts):
    a = cfg.analysis
    seg = a["welch_segment_len"]
    return _estimate.welch_psd(ts, None if seg is None else int(seg),
                               a["welch_overlap"], a["welch_window"])


def _fit_window(cfg: Config, spec):
    width = cfg.analysis["fit_window_hz"]
    if width is None:
        return None
    f_pk = spec.freqs[int(np.argmax(spec.psd))]
    return (f_pk - 0.5 * width, f_pk + 0.5 * width)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    seed = int(cfg.synth["seed"])
    out = _out_dir(args)
    fmt = args.format
    ext = "csv" if fmt == "csv" else "bin"
    files = {}
    outputs = {"seed": seed}

    if args.experiment == "brownian":
        temp = args.temp if args.temp is not None else None
        mode, ts = _brownian_record(cfg, seed + _SEED_BROWNIAN, temp)
        path = os.path.join(out, f"brownian.{ext}")
        _io.write_timeseries(path, ts, fmt)
        files["brownian"] = os.path.basename(path)
        outputs.update({"f0_hz": mode.f0, "q": mode.q, "temp_k": mode.temp,
                        "n_samples": ts.n, "warnings": list(ts.warnings)})
    elif args.experiment == "ringdown-optical":
        cav = cfg.cavity
        if args.finesse is not None:
            cav = _cavity.Cavity(cav.length, cav.wavelength, args.finesse)
        p = cfg.synth["ringdown_optical"]
        ts = _synth.synth_optical_ringdown(cav, p["sample_rate_hz"],
                                           p["duration_s"], p["snr"],
                                           seed + _SEED_RINGDOWN_OPT)
        path = os.path.join(out, f"ringdown_optical.{ext}")
        _io.write_timeseries(path, ts, fmt)
        files["ringdown_optical"] = os.path.basename(path)
        outputs.update({"finesse": cav.finesse, "tau_s": cav.decay_tau,
                        "snr": p["snr"]})
    elif args.experiment == "ringdown-mech":
        p = cfg.synth["ringdown_mech"]
        rec = _synth.synth_mech_ringdown(cfg.outer, p["sample_rate_hz"],
                                         p["duration_s"], p["x0_m"],
                                         seed + _SEED_RINGDOWN_MECH,
                                         snr=p["snr"],
                                         envelope_cycles=p["envelope_cycles"])
        raw_path = os.path.join(out, f"ringdown_mech_raw.{ext}")
        env_path = os.path.join(out, f"ringdown_mech_envelope.{ext}")
        _io.write_timeseries(raw_path, rec.raw, fmt)
        _io.write_timeseries(env_path, rec.envelope, fmt)
        files["ringdown_mech_raw"] = os.path.basename(raw_path)
        files["ringdown_mech_envelope"] = os.path.basename(env_path)
        outputs.update({"f0_hz": cfg.outer.f0, "q": cfg.outer.q,
                        "tau_a_s": 2.0 * cfg.outer.q / cfg.outer.omega0})
    elif args.experiment == "sweep":
        p = cfg.synth["sweep"]
        freqs = _sweep_freqs(p["f_min_hz"], p["f_max_hz"],
                             p["points_per_decade"])
        if args.device == "nested":
            model = cfg.nested
            mass_ratio = cfg.mass_ratio
            sweep_seed = seed + _SEED_SWEEP_NESTED
        else:
            model = cfg.inner
            mass_ratio = None
            sweep_seed = seed + _SEED_SWEEP_SINGLE
        records = _synth.synth_drive_sweep(
            model, freqs, p["amplitude_m"], p["cycles_per_point"], sweep_seed,
            mass_ratio=mass_ratio, samples_per_cycle=p["samples_per_cycle"],
            base_noise_rms=p["base_noise_rms_m"],
            response_noise_rms=p["response_noise_rms_m"],
            piezo_corner_hz=p["piezo_corner_hz"])
        stems = [f"sweep_{args.device}_{i:03d}" for i in range(len(records))]
        if fmt == "csv":
            rec_files = [f"{stem}.csv" for stem in stems]
            _io.write_driverecords_csv(
                [os.path.join(out, name) for name in rec_files], records)
        else:
            rec_files = []
            for stem, rec in zip(stems, records):
                entry = {"drive_freq_hz": rec.drive_freq,
                         "base": f"{stem}_base.bin",
                         "response": f"{stem}_response.bin"}
                _io.write_timeseries_bin(os.path.join(out, entry["base"]),
                                         rec.base_motion)
                _io.write_timeseries_bin(os.path.join(out, entry["response"]),
                                         rec.response_motion)
                rec_files.append(entry)
        files["records"] = rec_files
        outputs.update({"device": args.device, "n_records": len(records),
                        "drive_freqs_hz": [r.drive_freq for r in records]})
    elif args.experiment == "lock":
        p = cfg.synth["lock"]
        bias = p["detuning_bias_hz"]
        if bias is None:
            bias = -cfg.cavity.linewidth_fwhm / (2.0 * math.sqrt(3.0))
        lock_cfg = _servo.LockConfig(kp=p["kp"], ki=p["ki"], kd=p["kd"],
                                     actuator_range=p["actuator_range_m"],
                                     loop_rate=p["loop_rate_hz"],
                                     detuning_bias=bias)
        res = _servo.simulate_lock(cfg.nested, cfg.cavity, lock_cfg,
                                   p["duration_s"], seed + _SEED_LOCK)
        for name, ts in (("lock_error", res.error_signal),
                         ("lock_actuator", res.actuator),
                         ("lock_detuning", res.detuning)):
            path = os.path.join(out, f"{name}.{ext}")
            _io.write_timeseries(path, ts, fmt)
            files[name] = os.path.basename(path)
        outputs.update({
            "lock_acquired": bool(res.lock_acquired),
            "saturation_fraction": res.saturation_fraction,
            "open_loop_error_rms": res.open_loop_error_rms,
            "closed_loop_error_rms": res.closed_loop_error_rms,
            "open_loop_detuning_rms_hz": res.open_loop_detuning_rms,
            "closed_loop_detuning_rms_hz": res.closed_loop_detuning_rms,
            "detuning_bias_hz": bias,
        })
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown experiment {args.experiment!r}")

    outputs["files"] = files
    doc = _io.make_result_doc(f"simulate {args.experiment}", cfg.to_dict(),
                              outputs)
    manifest = os.path.join(out, f"simulate_{args.experiment.replace('-', '_')}_manifest.json")
    _io.write_result_doc(manifest, doc)
    print(manifest)
    return EXIT_OK


def _load_drive_records(in_paths):
    """Drive records from a manifest (schema-checked) or record files."""
    if len(in_paths) == 1 and in_paths[0].endswith(".json"):
        doc = _io.read_result_doc(in_paths[0])
        base = os.path.dirname(os.path.abspath(in_paths[0]))
        entries = doc["outputs"]["files"].get("records", [])
        if not entries:
            raise _io.FormatError(f"{in_paths[0]}: manifest lists no records")
        # CSV drive-record files, read in one batch
        csv_records = iter(_io.read_driverecords_csv(
            [os.path.join(base, e) for e in entries if isinstance(e, str)]))
        return [next(csv_records) if isinstance(entry, str)
                else _synth.DriveRecord(    # binary base/response pair
                    drive_freq=float(entry["drive_freq_hz"]),
                    base_motion=_io.read_timeseries(
                        os.path.join(base, entry["base"])),
                    response_motion=_io.read_timeseries(
                        os.path.join(base, entry["response"])))
                for entry in entries]
    return _io.read_driverecords_csv(in_paths)


def cmd_analyze(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    sub = args.quantity
    outputs = {}
    exit_code = EXIT_OK

    if sub == "q":
        ts = _io.read_timeseries(args.inputs[0])
        spec = _welch(cfg, ts)
        fit = _estimate.fit_lorentzian(spec, _fit_window(cfg, spec))
        outputs = {
            "q": fit.params["q"], "q_sigma": fit.sigmas["q"],
            "f0_hz": fit.params["f0_hz"], "fwhm_hz": fit.params["fwhm_hz"],
            "converged": fit.converged, "warnings": list(fit.warnings),
            "formatted": f"Q = {format_value_pm(fit.params['q'], fit.sigmas['q'])}",
            "n_avg": spec.n_avg,
        }
        print(outputs["formatted"])
        if not fit.converged:
            exit_code = EXIT_FIT
    elif sub in ("finesse", "mech-q"):
        ts = _io.read_timeseries(args.inputs[0])
        ts = _estimate.detect_onset(ts)
        if sub == "finesse":
            fit = _estimate.fit_exp_decay(ts, cavity_length=cfg.cavity.length)
            key = "finesse"
            label = "Finesse"
        else:
            fit = _estimate.fit_exp_decay(ts, f0=cfg.outer.f0)
            key = "q"
            label = "Q"
        outputs = {
            key: fit.params[key], f"{key}_sigma": fit.sigmas[key],
            "tau_s": fit.params["tau_s"], "tau_sigma_s": fit.sigmas["tau_s"],
            "converged": fit.converged, "warnings": list(fit.warnings),
            "formatted":
                f"{label} = {format_value_pm(fit.params[key], fit.sigmas[key])}",
        }
        print(outputs["formatted"])
        if not fit.converged:
            exit_code = EXIT_FIT
    elif sub == "transfer":
        records = _load_drive_records(args.inputs)
        est = _estimate.estimate_transfer(
            records, cfg.analysis["bins_per_decade"],
            dc_cutoff_hz=cfg.outer.f0 / 3.0)
        table = os.path.join(out, "transfer_estimate.csv")
        _io.write_table_csv(table, {
            "freq_hz": est.bin_centers, "magnitude_db": est.magnitude_db,
            "errbar_db": est.errbar_db})
        outputs = {
            "bin_centers_hz": est.bin_centers.tolist(),
            "magnitude_db": est.magnitude_db.tolist(),
            "errbar_db": est.errbar_db.tolist(),
            "dc_reference_db": est.dc_reference,
            "n_records": est.n_records, "n_excluded": est.n_excluded,
            "table": os.path.basename(table),
        }
        print(table)
    elif sub == "psd":
        ts = _io.read_timeseries(args.inputs[0])
        spec = _welch(cfg, ts)
        table = os.path.join(out, "psd.csv")
        _io.write_table_csv(table, {"freq_hz": spec.freqs,
                                    "psd_m2_per_hz": spec.psd})
        outputs = {"n_avg": spec.n_avg, "resolution_hz": spec.resolution,
                   "table": os.path.basename(table)}
        print(table)
    else:  # pragma: no cover
        raise ConfigError(f"unknown quantity {args.quantity!r}")

    doc = _io.make_result_doc(f"analyze {sub}", cfg.to_dict(), outputs)
    _io.write_result_doc(
        os.path.join(out, f"analyze_{sub.replace('-', '_')}_result.json"), doc)
    return exit_code


def design_check_outputs(cfg: Config, bath_temp: float) -> dict:
    """The headline feasibility numbers, each with the formula used."""
    w_inner = cfg.inner.omega0
    iso = _mech.isolation_db(w_inner, cfg.outer)
    ratio = _cavity.sideband_ratio(cfg.inner.f0, cfg.cavity)
    n_min = _cavity.min_phonons(cfg.inner.f0, cfg.cavity)
    feasible, margin = _cavity.ground_state_feasible(cfg.inner.f0, cfg.inner.q,
                                                     bath_temp)
    rms = _mech.thermal_rms(cfg.outer)
    return {
        "isolation_at_inner_db": {
            "value": iso,
            "formula": "-10*log10(w0^4/((w0^2-w^2)^2+(w0 w/Q)^2))"},
        "sideband_ratio": {
            "value": ratio, "formula": "f_m/(c/(2*L*F))"},
        "min_phonons": {
            "value": n_min,
            "formula": "0.5*(sqrt(1+(kappa/(2*w_m))^2)-1)"},
        "fq_product_hz": {
            "value": cfg.inner.f0 * cfg.inner.q, "formula": "f_m*Q"},
        "fq_threshold_hz": {
            "value": BOLTZMANN * bath_temp / PLANCK, "formula": "kB*T/h"},
        "ground_state_feasible": {
            "value": bool(feasible), "margin": margin,
            "bath_temp_k": bath_temp, "formula": "f_m*Q > kB*T/h"},
        "outer_thermal_rms_m": {
            "value": rms, "formula": "sqrt(kB*T/(m_eff*w0^2))"},
    }


def cmd_design_check(args) -> int:
    cfg = _load(args)
    res = design_check_outputs(cfg, args.bath_temp)
    rows = [
        ("isolation at inner resonance", f"{res['isolation_at_inner_db']['value']:.1f} dB"),
        ("sideband ratio", f"{res['sideband_ratio']['value']:.2f}"),
        ("cooling floor n_min", f"{res['min_phonons']['value']:.2e}"),
        ("fQ product", f"{res['fq_product_hz']['value']:.3e} Hz"),
        (f"fQ threshold at {args.bath_temp:g} K",
         f"{res['fq_threshold_hz']['value']:.3e} Hz"),
        (f"ground state from {args.bath_temp:g} K",
         ("PASS" if res["ground_state_feasible"]["value"] else "FAIL")
         + f" (margin {res['ground_state_feasible']['margin']:.2f})"),
        ("outer thermal rms", f"{res['outer_thermal_rms_m']['value']:.3g} m"),
    ]
    keys = ["isolation_at_inner_db", "sideband_ratio", "min_phonons",
            "fq_product_hz", "fq_threshold_hz", "ground_state_feasible",
            "outer_thermal_rms_m"]
    width = max(len(r[0]) for r in rows)
    for (name, val), key in zip(rows, keys):
        print(f"{name:<{width}}  {val:<22}  [{res[key]['formula']}]")
    if args.out:
        out = _out_dir(args)
        doc = _io.make_result_doc("design-check", cfg.to_dict(), res)
        _io.write_result_doc(os.path.join(out, "design_check_result.json"), doc)
    return EXIT_OK


def _binned_theory_db(freqs, power_ratios, bins_per_decade, dc_cutoff_hz):
    db = 10.0 * np.log10(power_ratios)
    centers, mags, _, _, _ = _estimate.bin_log_mean(freqs, db, bins_per_decade,
                                                    dc_cutoff_hz)
    return centers, mags


def _report_transfer(cfg: Config, seed: int, out: str, device: str):
    p = cfg.synth["sweep"]
    bpd = cfg.analysis["bins_per_decade"]
    dc_cut = cfg.outer.f0 / 3.0
    if device == "nested":
        model = cfg.nested
        mass_ratio = cfg.mass_ratio
        f_max = p["f_max_hz"]
        sweep_seed = seed + _SEED_SWEEP_NESTED
    else:
        model = cfg.inner
        mass_ratio = None
        f_max = min(p["f_max_hz"], cfg.inner.f0 / 5.0)
        sweep_seed = seed + _SEED_SWEEP_SINGLE
    freqs = _sweep_freqs(p["f_min_hz"], f_max, p["points_per_decade"])
    records = _synth.synth_drive_sweep(
        model, freqs, p["amplitude_m"], p["cycles_per_point"], sweep_seed,
        mass_ratio=mass_ratio, samples_per_cycle=p["samples_per_cycle"],
        base_noise_rms=p["base_noise_rms_m"],
        response_noise_rms=p["response_noise_rms_m"],
        piezo_corner_hz=p["piezo_corner_hz"])
    est = _estimate.estimate_transfer(records, bpd, dc_cutoff_hz=dc_cut)

    f_arr = np.array(freqs)
    w_arr = 2.0 * np.pi * f_arr
    # the overlay is always the single-stage low-pass with independently
    # supplied outer parameters, never a fit to the estimate
    theory_mode = cfg.outer if device == "nested" else cfg.inner
    theory = _mech.transfer_power(w_arr, theory_mode)
    if device == "nested":
        model_ratio = _mech.chain_transfer(w_arr, cfg.nested, cfg.mass_ratio)
    else:
        model_ratio = theory
    _, theory_db = _binned_theory_db(f_arr, theory, bpd, dc_cut)
    _, model_db = _binned_theory_db(f_arr, model_ratio, bpd, dc_cut)

    name = f"transfer_{device}.csv"
    _io.write_table_csv(os.path.join(out, name), {
        "freq_hz": est.bin_centers, "measured_db": est.magnitude_db,
        "errbar_db": est.errbar_db, "theory_db": theory_db,
        "model_db": model_db})
    return name, est


def cmd_report(args) -> int:
    cfg = _load(args)
    seed = int(cfg.synth["seed"])
    out = _out_dir(args)
    files = {}
    outputs = {"seed": seed}

    # (a) transfer curves, single and nested, with the theory overlay
    for device in ("single", "nested"):
        name, est = _report_transfer(cfg, seed, out, device)
        files[f"transfer_{device}"] = name
        outputs[f"transfer_{device}"] = {
            "dc_reference_db": est.dc_reference,
            "n_records": est.n_records, "n_excluded": est.n_excluded}

    # (b) Brownian PSD of the inner resonator with the line-shape fit
    mode, ts = _brownian_record(cfg, seed + _SEED_BROWNIAN)
    spec = _welch(cfg, ts)
    fit = _estimate.fit_lorentzian(spec, _fit_window(cfg, spec))
    pk = fit.params
    fit_curve = (pk["amplitude"] * (pk["fwhm_hz"] / 2.0) ** 2
                 / ((spec.freqs - pk["f0_hz"]) ** 2 + (pk["fwhm_hz"] / 2.0) ** 2)
                 + pk["offset"])
    _io.write_table_csv(os.path.join(out, "brownian_psd.csv"), {
        "freq_hz": spec.freqs, "psd_m2_per_hz": spec.psd,
        "fit_m2_per_hz": fit_curve})
    files["brownian_psd"] = "brownian_psd.csv"
    outputs["inner_q_fit"] = {
        "q": pk["q"], "q_sigma": fit.sigmas["q"], "true_q": mode.q,
        "converged": fit.converged,
        "formatted": f"Q = {format_value_pm(pk['q'], fit.sigmas['q'])}"}

    # (c) optical and mechanical ringdowns with exponential fits
    p = cfg.synth["ringdown_optical"]
    rd = _synth.synth_optical_ringdown(cfg.cavity, p["sample_rate_hz"],
                                       p["duration_s"], p["snr"],
                                       seed + _SEED_RINGDOWN_OPT)
    ofit = _estimate.fit_exp_decay(rd, cavity_length=cfg.cavity.length)
    t = rd.times
    _io.write_table_csv(os.path.join(out, "ringdown_optical.csv"), {
        "time_s": t, "signal": rd.values,
        "fit": ofit.params["amplitude"] * np.exp(-t / ofit.params["tau_s"])
               + ofit.params["offset"]})
    files["ringdown_optical"] = "ringdown_optical.csv"
    outputs["finesse_fit"] = {
        "finesse": ofit.params["finesse"], "finesse_sigma": ofit.sigmas["finesse"],
        "true_finesse": cfg.cavity.finesse, "converged": ofit.converged,
        "formatted":
            f"Finesse = {format_value_pm(ofit.params['finesse'], ofit.sigmas['finesse'])}"}

    p = cfg.synth["ringdown_mech"]
    mrec = _synth.synth_mech_ringdown(cfg.outer, p["sample_rate_hz"],
                                      p["duration_s"], p["x0_m"],
                                      seed + _SEED_RINGDOWN_MECH, snr=p["snr"],
                                      envelope_cycles=p["envelope_cycles"])
    mfit = _estimate.fit_exp_decay(mrec.envelope, f0=cfg.outer.f0)
    te = mrec.envelope.times
    _io.write_table_csv(os.path.join(out, "ringdown_mech.csv"), {
        "time_s": te, "envelope_m": mrec.envelope.values,
        "fit_m": mfit.params["amplitude"] * np.exp(-(te - te[0]) / mfit.params["tau_s"])
                 + mfit.params["offset"]})
    files["ringdown_mech"] = "ringdown_mech.csv"
    outputs["outer_q_fit"] = {
        "q": mfit.params["q"], "q_sigma": mfit.sigmas["q"],
        "true_q": cfg.outer.q, "converged": mfit.converged,
        "formatted": f"Q = {format_value_pm(mfit.params['q'], mfit.sigmas['q'])}"}

    outputs["files"] = files
    doc = _io.make_result_doc("report", cfg.to_dict(), outputs)
    path = os.path.join(out, "report.json")
    _io.write_result_doc(path, doc)
    print(path)
    if not (fit.converged and ofit.converged and mfit.converged):
        return EXIT_FIT
    return EXIT_OK


def _add_common(parser, suppress=False):
    # registered on the root and on every subcommand so the flags may be
    # given in either position; SUPPRESS keeps absent subcommand flags from
    # clobbering root-level values
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--config", help="JSON configuration file", **kw)
    parser.add_argument("--seed", type=int, help="override the config seed",
                        **kw)
    parser.add_argument("--out", help="output directory "
                                      "(default $OPTOMECH_OUT_DIR or '.')",
                        **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optomech",
        description="Simulation and analysis toolkit for nested-resonator "
                    "cavity optomechanics")
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic records")
    _add_common(sim, suppress=True)
    sim.add_argument("experiment",
                     choices=["brownian", "ringdown-optical", "ringdown-mech",
                              "sweep", "lock"])
    sim.add_argument("--format", choices=["csv", "bin"], default="csv")
    sim.add_argument("--temp", type=float,
                     help="bath temperature override for brownian")
    sim.add_argument("--finesse", type=float,
                     help="finesse override for ringdown-optical")
    sim.add_argument("--device", choices=["nested", "single"],
                     default="nested", help="sweep device")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="run the estimation pipeline")
    _add_common(ana, suppress=True)
    ana.add_argument("quantity",
                     choices=["q", "finesse", "mech-q", "transfer", "psd"])
    ana.add_argument("inputs", nargs="+",
                     help="input data file(s) or a simulate manifest")
    ana.set_defaults(func=cmd_analyze)

    chk = sub.add_parser("design-check",
                         help="headline isolation/cooling feasibility numbers")
    _add_common(chk, suppress=True)
    chk.add_argument("--bath-temp", type=float, default=4.0,
                     help="bath temperature in K for the fQ criterion")
    chk.set_defaults(func=cmd_design_check)

    rep = sub.add_parser("report",
                         help="simulate + analyze end to end, emit plot data")
    _add_common(rep, suppress=True)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _estimate.EstimationError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry():  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

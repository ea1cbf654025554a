"""Command-line interface: simulate, analyze, design-check and report.

The commands share one builder per synthetic experiment and one fit per
measured quantity.  The mechanical ringdown is one block stream from
synthesis to file to demodulation, never held whole: `simulate
ringdown-mech --raw` also writes the raw oscillation (3M samples on the
default config) as `ringdown_mech_raw.<fmt>`, and `analyze mech-q` fits
the envelope of a record sampled at 8 f0 of the outer mode or faster.
`report` fits its synthetic ringdowns from their known onset at t = 0,
while `analyze finesse` and `analyze mech-q` first trim a record at its
95% crossing (`detect_onset`), so the two differ on the same record.  The
config file plus the seed fully determine every output, byte for byte, at
any number of allowed CPUs on a given machine (not across CPU
architectures or numpy builds): no fit sums through a multithreaded BLAS.
The flags that set a config value (--seed, --temp, --finesse) are written
into the config before it is built: they are checked as that value, and
the manifest's config rebuilds the record without them.  A value that
leaves the float range stops a command: exit 2, or 4 in analyze.
Nothing here calls BLAS at all, so importing the package sets
OPENBLAS_NUM_THREADS to 1 unless the environment already sets it, and a
command starts no OpenBLAS thread pool.
Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 fit failure
or non-convergence.
"""

import argparse
import json
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
from .config import (Config, ConfigError, _is_number, config_from_dict,
                     read_config_json, sweep_exponents)
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


def _load(args, temp=None, finesse=None) -> Config:
    """The config of --config, or the defaults, with --seed and the given
    simulate flags written in as the values they set before it is built."""
    d = read_config_json(args.config) if args.config else {}
    try:
        if args.seed is not None:
            d.setdefault("synth", {})["seed"] = args.seed
        if finesse is not None:
            d.setdefault("cavity", {})["finesse"] = finesse
        if temp is not None:         # the temperature of the brownian device
            device = d.get("synth", {}).get("brownian", {}).get("device",
                                                                "inner")
            if device in ("inner", "outer"):     # else its own rule fails
                d.setdefault("device", {}).setdefault(device,
                                                      {})["temp_k"] = temp
    except (AttributeError, TypeError):
        pass                         # a part that is no object: reported below
    return config_from_dict(d)


# Builders, one per synthetic experiment, each with its own seed offset

def _brownian(cfg: Config, seed: int):
    p = cfg.synth["brownian"]
    mode = getattr(cfg, p["device"])
    center = mode.f0 if p["mode"] == "envelope" else None
    return mode, _synth.synth_brownian(
        mode, p["sample_rate_hz"], p["duration_s"], seed + _SEED_BROWNIAN,
        noise_floor=p["noise_floor_m2_per_hz"], center_freq=center)


def _optical_ringdown(cfg: Config, seed: int):
    cav = cfg.cavity
    p = cfg.synth["ringdown_optical"]
    return cav, _synth.synth_optical_ringdown(
        cav, p["sample_rate_hz"], p["duration_s"], p["snr"],
        seed + _SEED_RINGDOWN_OPT)


def _mech_ringdown(cfg: Config, seed: int, raw=False):
    """{record name: record}: the envelope, and with raw the raw record, a
    BlockSeries that is generated again as it is written."""
    p = cfg.synth["ringdown_mech"]
    rec = _synth.synth_mech_ringdown(
        cfg.outer, p["sample_rate_hz"], p["duration_s"], p["x0_m"],
        seed + _SEED_RINGDOWN_MECH, p["snr"])
    env = {"ringdown_mech_envelope": _mech_envelope(cfg, rec)}
    return {"ringdown_mech_raw": rec, **env} if raw else env


def _mech_envelope(cfg: Config, rec):
    """The lock-in envelope of a raw ringdown of the outer mode."""
    return _synth.demodulate_envelope(
        rec, cfg.outer.f0, cfg.synth["ringdown_mech"]["envelope_cycles"])


def _sweep(cfg: Config, seed: int, device: str, f_max=math.inf):
    """Drive records of the nested device or the bare inner resonator."""
    p = cfg.synth["sweep"]
    if device == "nested":
        model, mass_ratio, offset = cfg.nested, cfg.mass_ratio, _SEED_SWEEP_NESTED
    else:
        model, mass_ratio, offset = cfg.inner, None, _SEED_SWEEP_SINGLE
    freqs = [10 ** (k / p["points_per_decade"])
             for k in sweep_exponents(p, f_max)]
    return _synth.synth_drive_sweep(
        model, freqs, p["amplitude_m"], p["cycles_per_point"], seed + offset,
        mass_ratio=mass_ratio, samples_per_cycle=p["samples_per_cycle"],
        base_noise_rms=p["base_noise_rms_m"],
        response_noise_rms=p["response_noise_rms_m"],
        piezo_corner_hz=p["piezo_corner_hz"])


def _lock(cfg: Config, seed: int):
    p = cfg.synth["lock"]
    bias = p["detuning_bias_hz"]
    if bias is None:
        bias = -cfg.cavity.linewidth_fwhm / (2.0 * math.sqrt(3.0))
    lock_cfg = _servo.LockConfig(kp=p["kp"], ki=p["ki"], kd=p["kd"],
                                 actuator_range=p["actuator_range_m"],
                                 loop_rate=p["loop_rate_hz"],
                                 detuning_bias=bias)
    return bias, _servo.simulate_lock(cfg.nested, cfg.cavity, lock_cfg,
                                      p["duration_s"], seed + _SEED_LOCK)


# Fits, one per measured quantity; quantity -> (result key, printed label)
_QUANTITIES = {"q": ("q", "Q"), "finesse": ("finesse", "Finesse"),
               "mech-q": ("q", "Q")}


def _summary(fit, quantity: str) -> dict:
    """A fitted quantity with its 1-sigma, convergence and printed line."""
    key, label = _QUANTITIES[quantity]
    value, sigma = fit.params[key], fit.sigmas[key]
    return {key: value, f"{key}_sigma": sigma, "converged": fit.converged,
            "formatted": f"{label} = {format_value_pm(value, sigma)}"}


def _welch(cfg: Config, ts):
    a = cfg.analysis
    return _estimate.welch_psd(ts, a["welch_segment_len"], a["welch_overlap"],
                               a["welch_window"])


def _fit_line(cfg: Config, spec):
    """Lorentzian fit of a Welch PSD about its peak.  It takes the spectrum,
    not the record, so that callers can drop the record before fitting."""
    window = None
    width = cfg.analysis["fit_window_hz"]
    if width is not None:
        f_pk = spec.freqs[int(np.argmax(spec.psd))]
        window = (f_pk - 0.5 * width, f_pk + 0.5 * width)
    return _estimate.fit_lorentzian(spec, window)


def _read_ringdown(cfg: Config, path, quantity: str):
    """A recorded ringdown to fit.  A mech-q record sampled at 8 f0 of the
    outer mode or faster is a raw oscillation: its envelope is read."""
    if quantity == "mech-q":
        rec = _io.open_timeseries(path)
        if rec.sample_rate >= 8.0 * cfg.outer.f0:
            return _mech_envelope(cfg, rec)
    return _io.read_timeseries(path)


def _fit_decay(cfg: Config, ts, quantity: str):
    """Exponential fit of a record that starts at its decay onset."""
    kw = ({"cavity_length": cfg.cavity.length} if quantity == "finesse"
          else {"f0": cfg.outer.f0})
    return _estimate.fit_exp_decay(ts, **kw)


def _transfer_bins(cfg: Config):
    """Log bins per decade and the DC reference cut of every transfer curve."""
    return cfg.analysis["bins_per_decade"], cfg.outer.f0 / 3.0


def cmd_simulate(args) -> int:
    exp = args.experiment
    # an override applies only to the experiment it belongs to
    cfg = _load(args, temp=args.temp if exp == "brownian" else None,
                finesse=args.finesse if exp == "ringdown-optical" else None)
    seed = cfg.synth["seed"]
    out = _out_dir(args)
    fmt = args.format                # also the file extension
    series = {}                      # record name -> TimeSeries or BlockSeries
    outputs = {"seed": seed}

    if exp == "brownian":
        mode, ts = _brownian(cfg, seed)
        series["brownian"] = ts
        outputs.update({"f0_hz": mode.f0, "q": mode.q, "temp_k": mode.temp,
                        "n_samples": ts.n, "warnings": list(ts.warnings)})
    elif exp == "ringdown-optical":
        cav, series["ringdown_optical"] = _optical_ringdown(cfg, seed)
        outputs.update({"finesse": cav.finesse, "tau_s": cav.decay_tau,
                        "snr": cfg.synth["ringdown_optical"]["snr"]})
    elif exp == "ringdown-mech":
        series = _mech_ringdown(cfg, seed, args.raw)
        outputs.update({"f0_hz": cfg.outer.f0, "q": cfg.outer.q,
                        "tau_a_s": 2.0 * cfg.outer.q / cfg.outer.omega0})
    elif exp == "sweep":
        records = _sweep(cfg, seed, args.device)
        stems = [f"sweep_{args.device}_{i:03d}" for i in range(len(records))]
        if fmt == "csv":
            rec_files = [f"{stem}.csv" for stem in stems]
            for name, rec in zip(rec_files, records):
                _io.write_driverecord_csv(os.path.join(out, name), rec)
        else:                        # a base and a response record each
            rec_files = []
            for stem, rec in zip(stems, records):
                series[f"{stem}_base"] = rec.base_motion
                series[f"{stem}_response"] = rec.response_motion
                rec_files.append({"drive_freq_hz": rec.drive_freq,
                                  "base": f"{stem}_base.bin",
                                  "response": f"{stem}_response.bin"})
        outputs.update({"device": args.device, "n_records": len(records),
                        "drive_freqs_hz": [r.drive_freq for r in records]})
    else:                            # lock
        bias, res = _lock(cfg, seed)
        series = {"lock_error": res.error_signal,
                  "lock_actuator": res.actuator,
                  "lock_detuning": res.detuning}
        outputs.update(
            lock_acquired=bool(res.lock_acquired),
            saturation_fraction=res.saturation_fraction,
            open_loop_error_rms=res.open_loop_error_rms,
            closed_loop_error_rms=res.closed_loop_error_rms,
            open_loop_detuning_rms_hz=res.open_loop_detuning_rms,
            closed_loop_detuning_rms_hz=res.closed_loop_detuning_rms,
            detuning_bias_hz=bias)

    for name, ts in series.items():
        _io.write_timeseries(os.path.join(out, f"{name}.{fmt}"), ts, fmt)
    # a sweep manifest lists its records per drive frequency
    outputs["files"] = ({"records": rec_files} if exp == "sweep"
                        else {name: f"{name}.{fmt}" for name in series})
    doc = _io.make_result_doc(f"simulate {exp}", cfg.to_dict(), outputs)
    # the single sweep's manifest must not replace the nested sweep's
    stem = ("sweep_single" if exp == "sweep" and args.device == "single"
            else exp.replace("-", "_"))
    manifest = os.path.join(out, f"simulate_{stem}_manifest.json")
    _io.write_result_doc(manifest, doc)
    print(manifest)
    return EXIT_OK


def _manifest_records(path) -> list:
    """The ``outputs.files.records`` entries of a sweep manifest, each a
    CSV file name or a binary base/response pair with its drive frequency;
    anything else raises FormatError naming the manifest."""
    doc = _io.read_result_doc(path)
    files = doc.get("outputs")
    files = files.get("files") if isinstance(files, dict) else None
    entries = files.get("records") if isinstance(files, dict) else None
    if not isinstance(entries, list):
        raise _io.FormatError(f"{path}: not a sweep manifest: "
                              "outputs.files.records is not a list")
    if not entries:
        raise _io.FormatError(f"{path}: manifest lists no records")
    for k, entry in enumerate(entries):
        pair = (isinstance(entry, dict)
                and _is_number(entry.get("drive_freq_hz"))
                and isinstance(entry.get("base"), str)
                and isinstance(entry.get("response"), str))
        if not (isinstance(entry, str) or pair):
            raise _io.FormatError(
                f"{path}: record {k} is neither a file name nor an object "
                f"with a finite drive_freq_hz and base and response file "
                f"names: {json.dumps(entry)}")
    return entries


def _load_drive_records(in_paths):
    """Drive records from a manifest (checked by ``_manifest_records``) or
    record files."""
    if len(in_paths) == 1 and in_paths[0].endswith(".json"):
        entries = _manifest_records(in_paths[0])
        base = os.path.dirname(os.path.abspath(in_paths[0]))
        return [_io.read_driverecord_csv(os.path.join(base, entry))
                if isinstance(entry, str)
                else _synth.DriveRecord(    # binary base/response pair
                    drive_freq=float(entry["drive_freq_hz"]),
                    base_motion=_io.read_timeseries(
                        os.path.join(base, entry["base"])),
                    response_motion=_io.read_timeseries(
                        os.path.join(base, entry["response"])))
                for entry in entries]
    return [_io.read_driverecord_csv(path) for path in in_paths]


def cmd_analyze(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    sub = args.quantity
    exit_code = EXIT_OK

    if sub in _QUANTITIES:
        if sub == "q":
            # Welch reads the record a block at a time: it is never held
            spec = _welch(cfg, _io.open_timeseries(args.inputs[0]))
            fit = _fit_line(cfg, spec)
            extra = {"f0_hz": fit.params["f0_hz"],
                     "fwhm_hz": fit.params["fwhm_hz"], "n_avg": spec.n_avg}
        else:
            # a recorded ringdown may hold pre-trigger samples
            ts = _read_ringdown(cfg, args.inputs[0], sub)
            fit = _fit_decay(cfg, _estimate.detect_onset(ts), sub)
            extra = {"tau_s": fit.params["tau_s"],
                     "tau_sigma_s": fit.sigmas["tau_s"]}
        outputs = {**_summary(fit, sub), **extra,
                   "warnings": list(fit.warnings)}
        print(outputs["formatted"])
        if not fit.converged:
            exit_code = EXIT_FIT
    elif sub == "transfer":
        est = _estimate.estimate_transfer(_load_drive_records(args.inputs),
                                         *_transfer_bins(cfg))
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
    else:                            # psd
        spec = _welch(cfg, _io.open_timeseries(args.inputs[0]))
        table = os.path.join(out, "psd.csv")
        _io.write_table_csv(table, {"freq_hz": spec.freqs,
                                    "psd_m2_per_hz": spec.psd})
        outputs = {"n_avg": spec.n_avg, "resolution_hz": spec.resolution,
                   "table": os.path.basename(table)}
        print(table)

    doc = _io.make_result_doc(f"analyze {sub}", cfg.to_dict(), outputs)
    _io.write_result_doc(
        os.path.join(out, f"analyze_{sub.replace('-', '_')}_result.json"), doc)
    return exit_code


def design_check_outputs(cfg: Config, bath_temp: float) -> dict:
    """The headline feasibility numbers, each with the formula used."""
    iso = _mech.isolation_db(cfg.inner.omega0, cfg.outer)
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
    if not (_is_number(args.bath_temp) and args.bath_temp > 0):
        raise ConfigError("--bath-temp must be a finite number > 0, "
                          f"got {args.bath_temp:g}")
    cfg = _load(args)
    res = design_check_outputs(cfg, args.bath_temp)
    for key, item in res.items():
        if not all(math.isfinite(v) for v in item.values()
                   if isinstance(v, float)):
            raise ConfigError(f"design-check {key} is not finite: {item}")
    v = {key: item["value"] for key, item in res.items()}
    rows = [                         # (result key, label, printed value)
        ("isolation_at_inner_db", "isolation at inner resonance",
         f"{v['isolation_at_inner_db']:.1f} dB"),
        ("sideband_ratio", "sideband ratio", f"{v['sideband_ratio']:.2f}"),
        ("min_phonons", "cooling floor n_min", f"{v['min_phonons']:.2e}"),
        ("fq_product_hz", "fQ product", f"{v['fq_product_hz']:.3e} Hz"),
        ("fq_threshold_hz", f"fQ threshold at {args.bath_temp:g} K",
         f"{v['fq_threshold_hz']:.3e} Hz"),
        ("ground_state_feasible", f"ground state from {args.bath_temp:g} K",
         ("PASS" if v["ground_state_feasible"] else "FAIL")
         + f" (margin {res['ground_state_feasible']['margin']:.2f})"),
        ("outer_thermal_rms_m", "outer thermal rms",
         f"{v['outer_thermal_rms_m']:.3g} m"),
    ]
    width = max(len(label) for _, label, _ in rows)
    for key, label, text in rows:
        print(f"{label:<{width}}  {text:<22}  [{res[key]['formula']}]")
    if args.out:
        out = _out_dir(args)
        doc = _io.make_result_doc("design-check", cfg.to_dict(), res)
        _io.write_result_doc(os.path.join(out, "design_check_result.json"), doc)
    return EXIT_OK


# Report sections: each writes its table and returns its result entry

def _report_sweep_top(cfg: Config, device: str) -> float:
    """The highest drive frequency of report's sweep of a device: the bare
    inner resonator is swept only up to a fifth of its resonance."""
    return math.inf if device == "nested" else cfg.inner.f0 / 5.0


def _report_transfer(cfg: Config, seed: int, table, device: str) -> dict:
    records = _sweep(cfg, seed, device, _report_sweep_top(cfg, device))
    est = _estimate.estimate_transfer(records, *_transfer_bins(cfg))
    f_arr = np.array([rec.drive_freq for rec in records])
    # the sweep is freed before the first table is written: memory that
    # the CSV kernel keeps from its first use would otherwise land above
    # it and keep the heap from shrinking (4 MB more peak RSS in report)
    del records
    w_arr = 2.0 * np.pi * f_arr
    # the overlay is always the single-stage low-pass with independently
    # supplied outer parameters, never a fit to the estimate
    theory = _mech.transfer_power(
        w_arr, cfg.outer if device == "nested" else cfg.inner)
    model_ratio = (_mech.chain_transfer(w_arr, cfg.nested, cfg.mass_ratio)
                   if device == "nested" else theory)

    def binned_db(power_ratios):     # binned like the estimate
        return _estimate.bin_log_mean(f_arr, 10.0 * np.log10(power_ratios),
                                      *_transfer_bins(cfg))[1]

    table(f"transfer_{device}", {
        "freq_hz": est.bin_centers, "measured_db": est.magnitude_db,
        "errbar_db": est.errbar_db, "theory_db": binned_db(theory),
        "model_db": binned_db(model_ratio)})
    return {"dc_reference_db": est.dc_reference,
            "n_records": est.n_records, "n_excluded": est.n_excluded}


def _report_brownian(cfg: Config, seed: int, table) -> dict:
    mode, ts = _brownian(cfg, seed)
    spec = _welch(cfg, ts)
    fit = _fit_line(cfg, spec)
    pk = fit.params
    half = pk["fwhm_hz"] / 2.0
    table("brownian_psd", {
        "freq_hz": spec.freqs, "psd_m2_per_hz": spec.psd,
        "fit_m2_per_hz": pk["amplitude"] * half ** 2
                         / ((spec.freqs - pk["f0_hz"]) ** 2 + half ** 2)
                         + pk["offset"]})
    return {**_summary(fit, "q"), "true_q": mode.q}


def _report_ringdown(cfg: Config, seed: int, table, quantity: str) -> dict:
    if quantity == "finesse":
        _, ts = _optical_ringdown(cfg, seed)
        name, columns, truth = ("ringdown_optical", ("signal", "fit"),
                                cfg.cavity.finesse)
    else:
        ts = _mech_ringdown(cfg, seed)["ringdown_mech_envelope"]
        name, columns, truth = ("ringdown_mech", ("envelope_m", "fit_m"),
                                cfg.outer.q)
    fit = _fit_decay(cfg, ts, quantity)
    p, t = fit.params, ts.times
    table(name, {
        "time_s": t, columns[0]: ts.values,
        columns[1]: p["amplitude"] * np.exp(-(t - t[0]) / p["tau_s"])
                    + p["offset"]})
    return {**_summary(fit, quantity), f"true_{_QUANTITIES[quantity][0]}": truth}


def cmd_report(args) -> int:
    cfg = _load(args)
    top = _report_sweep_top(cfg, "single")
    if not sweep_exponents(cfg.synth["sweep"], top):
        raise ConfigError(
            f"synth.sweep.f_min_hz = {cfg.synth['sweep']['f_min_hz']} leaves "
            f"report's single-resonator sweep no drive frequency: it stops "
            f"at device.inner.f0_hz / 5 = {top} Hz")
    seed = cfg.synth["seed"]
    out = _out_dir(args)
    files = {}

    def table(name, columns):        # written at once: no array outlives its section
        files[name] = f"{name}.csv"
        _io.write_table_csv(os.path.join(out, files[name]), columns)

    outputs = {"seed": seed}
    for device in ("single", "nested"):
        outputs[f"transfer_{device}"] = _report_transfer(cfg, seed, table,
                                                         device)
    outputs["inner_q_fit"] = _report_brownian(cfg, seed, table)
    outputs["finesse_fit"] = _report_ringdown(cfg, seed, table, "finesse")
    outputs["outer_q_fit"] = _report_ringdown(cfg, seed, table, "mech-q")
    outputs["files"] = files
    doc = _io.make_result_doc("report", cfg.to_dict(), outputs)
    path = os.path.join(out, "report.json")
    _io.write_result_doc(path, doc)
    print(path)
    fits = ("inner_q_fit", "finesse_fit", "outer_q_fit")
    return EXIT_OK if all(outputs[k]["converged"] for k in fits) else EXIT_FIT


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


class _Inputs(argparse.Action):
    """The inputs of `analyze`: one record, except for transfer."""

    def __call__(self, parser, namespace, values, option_string=None):
        if namespace.quantity != "transfer" and len(values) > 1:
            parser.error(f"analyze {namespace.quantity} reads one record, "
                         f"got {len(values)} inputs")
        setattr(namespace, self.dest, values)


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
    sim.add_argument("--raw", action="store_true",
                     help="ringdown-mech: also write the raw record")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="run the estimation pipeline")
    _add_common(ana, suppress=True)
    ana.add_argument("quantity",
                     choices=["q", "finesse", "mech-q", "transfer", "psd"])
    ana.add_argument("inputs", nargs="+", action=_Inputs,
                     help="the record to analyze; for transfer, drive-record "
                          "files or a simulate manifest")
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
        # valid but extreme values can leave the float range on the way: the
        # command stops there, before it writes its results, instead of
        # printing a numpy warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ArithmeticError as exc:   # numpy's FloatingPointError included
        fit = args.command == "analyze"      # a record's values, not config's
        print(f"{'fit' if fit else 'configuration'} error: values take "
              f"{args.command} out of float range: {exc}", file=sys.stderr)
        return EXIT_FIT if fit else EXIT_CONFIG
    except _estimate.EstimationError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:      # ConfigError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry():  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

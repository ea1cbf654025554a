"""Run configuration: device, cavity, synthesis and analysis parameters.

Defaults are the nested-device design point (2.5 kHz outer / 250 kHz inner
resonator, 5 cm cavity at 1064 nm with finesse 181,000).  Effective masses
default to a 100 ug outer mass and a 50 ng inner mirror, which put the
room-temperature outer thermal motion in the tens of picometers.  Unknown
keys anywhere in the tree are rejected, and every value must have its
default's type: a finite JSON number where the default is a number (not a
boolean), a string where it is a string, and null or a finite number
where it is null.  Seeds and counts (_INTEGER_KEYS) must be JSON integers.
No synthesized record, and no sweep in total, may hold more than
MAX_RECORD_SAMPLES samples; the counts are checked here, before anything
is allocated.
"""

import json
import math
from dataclasses import dataclass, field

from .cavity import Cavity
from .mech import MechMode, NestedModel


# The most samples one synthesized record may hold (a drive record: per
# channel), and a whole sweep together: 2^27, 22 times the 6 M samples of
# the longest record the benchmark writes (a 240 s ringdown at 25 kHz).
# A complex record of this length takes 2 GiB.
MAX_RECORD_SAMPLES = 1 << 27


class ConfigError(ValueError):
    """Raised for unparseable or invalid configuration input."""


def _check_keys(d: dict, allowed, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, "
                          f"got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:                  # an int beyond float range
        return False


# seeds, sample and point counts: a float here would be silently truncated
_INTEGER_KEYS = {"synth.seed", "synth.sweep.points_per_decade",
                 "synth.sweep.cycles_per_point", "synth.sweep.samples_per_cycle",
                 "synth.ringdown_mech.envelope_cycles",
                 "analysis.welch_segment_len", "analysis.bins_per_decade"}


def _is_integer(value) -> bool:
    return _is_number(value) and isinstance(value, int)


def _check_leaf(value, default, where: str):
    number, kind = _is_number, "a finite number"
    if where in _INTEGER_KEYS:
        number, kind = _is_integer, "an integer"
    if isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    elif default is None:
        ok, kind = value is None or number(value), f"null or {kind}"
    else:
        ok = number(value)
    if not ok:
        raise ConfigError(f"{where} must be {kind}, got {json.dumps(value)}")


def _mode_from_dict(d: dict, where: str) -> MechMode:
    try:
        return MechMode(f0=float(d["f0_hz"]), q=float(d["q"]),
                        m_eff=float(d["m_eff_kg"]), temp=float(d["temp_k"]))
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


_DEVICE_DEFAULTS = {
    "inner": {"f0_hz": 250e3, "q": 418000.0, "m_eff_kg": 5e-11,
              "temp_k": 300.0},
    "outer": {"f0_hz": 2.5e3, "q": 1e5, "m_eff_kg": 1e-7, "temp_k": 300.0},
    "mass_ratio": None,                    # None: inner over outer m_eff
}

_CAVITY_DEFAULTS = {"length_m": 0.05, "wavelength_m": 1.064e-6,
                    "finesse": 181000.0}

_SYNTH_DEFAULTS = {
    "seed": 12345,
    "brownian": {"device": "inner", "mode": "envelope", "sample_rate_hz": 400.0,
                 "duration_s": 1800.0, "noise_floor_m2_per_hz": 1e-26},
    "ringdown_optical": {"sample_rate_hz": 5e6, "duration_s": 1e-4,
                         "snr": 100.0},
    "ringdown_mech": {"sample_rate_hz": 25e3, "duration_s": 120.0,
                      "x0_m": 1e-9, "snr": 50.0, "envelope_cycles": 10},
    "sweep": {"f_min_hz": 60.0, "f_max_hz": 95000.0, "points_per_decade": 25,
              "amplitude_m": 1e-12, "cycles_per_point": 200,
              "samples_per_cycle": 32, "base_noise_rms_m": 0.0,
              "response_noise_rms_m": 1e-17, "piezo_corner_hz": None},
    "lock": {"duration_s": 0.02, "loop_rate_hz": 10e6, "kp": 0.0,
             "ki": 1.28e-5, "kd": 0.0, "detuning_bias_hz": None,
             "actuator_range_m": 1e-9},
}

_ANALYSIS_DEFAULTS = {
    "welch_segment_len": None,
    "welch_overlap": 0.5,
    "welch_window": "hann",
    "fit_window_hz": None,
    "bins_per_decade": 5,
}


def _check_samples(n, where: str):
    if n > MAX_RECORD_SAMPLES:
        raise ConfigError(f"{where} is more than {MAX_RECORD_SAMPLES:,} "
                          "samples (MAX_RECORD_SAMPLES)")


def _check_record_sizes(synth: dict):
    """Each record's sample count, and the sweep's total, against
    MAX_RECORD_SAMPLES, computed from the config values alone."""
    for name, rate in (("brownian", "sample_rate_hz"),
                       ("ringdown_optical", "sample_rate_hz"),
                       ("ringdown_mech", "sample_rate_hz"),
                       ("lock", "loop_rate_hz")):
        p = synth[name]
        _check_samples(p["duration_s"] * p[rate],
                       f"synth.{name}: duration_s * {rate}")
    p = synth["sweep"]
    per_record = p["samples_per_cycle"] * p["cycles_per_point"]
    _check_samples(per_record, "synth.sweep: samples_per_cycle * "
                               "cycles_per_point")
    if p["points_per_decade"] < 1:
        raise ConfigError("synth.sweep.points_per_decade must be at least 1, "
                          f"got {p['points_per_decade']}")
    if 0 < p["f_min_hz"] <= p["f_max_hz"]:
        # at most this many drive frequencies 10^(k / points_per_decade)
        # lie in [f_min_hz, f_max_hz]
        points = (float(p["points_per_decade"])
                  * math.log10(p["f_max_hz"] / p["f_min_hz"]) + 1.0)
        _check_samples(points * per_record, "synth.sweep in total")


def _merge_section(user: dict, defaults: dict, where: str) -> dict:
    _check_keys(user, defaults, where)
    out = {}
    for key, dv in defaults.items():
        uv = user.get(key, dv)
        if isinstance(dv, dict):
            uv = _merge_section(uv, dv, f"{where}.{key}")
        else:
            _check_leaf(uv, dv, f"{where}.{key}")
        out[key] = uv
    return out


@dataclass
class Config:
    inner: MechMode
    outer: MechMode
    mass_ratio: float
    cavity: Cavity
    synth: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)

    @property
    def nested(self) -> NestedModel:
        return NestedModel(outer=self.outer, inner=self.inner)

    def to_dict(self) -> dict:
        return {
            "device": {
                "inner": {"f0_hz": self.inner.f0, "q": self.inner.q,
                          "m_eff_kg": self.inner.m_eff, "temp_k": self.inner.temp},
                "outer": {"f0_hz": self.outer.f0, "q": self.outer.q,
                          "m_eff_kg": self.outer.m_eff, "temp_k": self.outer.temp},
                "mass_ratio": self.mass_ratio,
            },
            "cavity": {"length_m": self.cavity.length,
                       "wavelength_m": self.cavity.wavelength,
                       "finesse": self.cavity.finesse},
            "synth": self.synth,
            "analysis": self.analysis,
        }


def config_from_dict(d: dict) -> Config:
    _check_keys(d, {"device", "cavity", "synth", "analysis"}, "config")

    device = _merge_section(d.get("device", {}), _DEVICE_DEFAULTS, "device")
    inner = _mode_from_dict(device["inner"], "device.inner")
    outer = _mode_from_dict(device["outer"], "device.outer")
    mass_ratio = device["mass_ratio"]
    if mass_ratio is None:
        mass_ratio = inner.m_eff / outer.m_eff
    mass_ratio = float(mass_ratio)
    if not 0.0 < mass_ratio < 1.0:
        raise ConfigError(f"mass_ratio must be in (0, 1), got {mass_ratio}")

    cav_d = _merge_section(d.get("cavity", {}), _CAVITY_DEFAULTS, "cavity")
    try:
        cav = Cavity(length=float(cav_d["length_m"]),
                     wavelength=float(cav_d["wavelength_m"]),
                     finesse=float(cav_d["finesse"]))
    except ValueError as exc:
        raise ConfigError(f"invalid cavity: {exc}") from exc

    synth = _merge_section(d.get("synth", {}), _SYNTH_DEFAULTS, "synth")
    analysis = _merge_section(d.get("analysis", {}), _ANALYSIS_DEFAULTS,
                              "analysis")
    if synth["brownian"]["device"] not in ("inner", "outer"):
        raise ConfigError("synth.brownian.device must be 'inner' or 'outer'")
    if synth["brownian"]["mode"] not in ("envelope", "baseband"):
        raise ConfigError("synth.brownian.mode must be 'envelope' or 'baseband'")
    _check_record_sizes(synth)
    try:
        NestedModel(outer=outer, inner=inner)   # validate the pairing
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Config(inner=inner, outer=outer, mass_ratio=mass_ratio, cavity=cav,
                  synth=synth, analysis=analysis)


def load_config(path) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(raw)


def default_config() -> Config:
    return config_from_dict({})

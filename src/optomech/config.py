"""Run configuration: device, cavity, synthesis and analysis parameters.

Defaults are the nested-device design point (2.5 kHz outer / 250 kHz inner
resonator, 5 cm cavity at 1064 nm with finesse 181,000).  Effective masses
default to a 100 ug outer mass and a 50 ng inner mirror, which put the
room-temperature outer thermal motion in the tens of picometers.  Unknown
keys anywhere in the tree are rejected, and every value must have its
default's type: a finite JSON number where the default is a number (not a
boolean), a string where it is a string, and null or a finite number
where it is null.  Seeds and counts (_INTEGER_KEYS) must be JSON integers.
Values that no record can make valid, such as a negative seed, a zero snr
or a Welch overlap above 0.9, are checked against their rules
(_VALUE_RULES) with their types, in _check_leaf.
No synthesized record, and no sweep in total, may hold more than
MAX_RECORD_SAMPLES samples; the counts are checked here, before anything
is allocated.
"""

import json
import math
from dataclasses import dataclass, field

from .cavity import Cavity
from .estimate import _WINDOWS
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


def _one_of(choices):
    return (lambda v: v in choices), f"one of {sorted(choices)}"


# The values that no record can make valid, as dotted key -> (test, rule);
# welch_psd checks the segment length against the record itself.
_VALUE_RULES = {
    "synth.seed": (lambda v: v >= 0, ">= 0"),
    "synth.brownian.device": _one_of(("inner", "outer")),
    "synth.brownian.mode": _one_of(("baseband", "envelope")),
    "synth.ringdown_optical.snr": (lambda v: v > 0, "> 0"),
    "synth.ringdown_mech.snr": (lambda v: v > 0, "> 0"),
    "synth.sweep.f_min_hz": (lambda v: v > 0, "> 0"),
    "synth.sweep.f_max_hz": (lambda v: v > 0, "> 0"),
    "synth.sweep.points_per_decade": (lambda v: v >= 1, ">= 1"),
    "synth.sweep.base_noise_rms_m": (lambda v: v >= 0, ">= 0"),
    "synth.sweep.response_noise_rms_m": (lambda v: v >= 0, ">= 0"),
    "synth.sweep.piezo_corner_hz": (lambda v: v is None or v > 0,
                                    "null or > 0"),
    "analysis.welch_window": _one_of(_WINDOWS),
    "analysis.welch_overlap": (lambda v: 0.0 <= v <= 0.9, "in [0, 0.9]"),
    "analysis.welch_segment_len": (lambda v: v is None or v >= 2,
                                   "null or >= 2"),
    "analysis.fit_window_hz": (lambda v: v is None or v > 0, "null or > 0"),
    "analysis.bins_per_decade": (lambda v: v >= 1, ">= 1"),
}


def _check_leaf(value, default, where: str):
    """A config value against its default's type, then against its rule in
    _VALUE_RULES, if it has one."""
    integer = where in _INTEGER_KEYS
    number = _is_number(value) and (isinstance(value, int) or not integer)
    kind = "an integer" if integer else "a finite number"
    if isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    elif default is None:
        ok, kind = value is None or number, f"null or {kind}"
    else:
        ok = number
    if ok and where in _VALUE_RULES:
        test, kind = _VALUE_RULES[where]
        ok = test(value)
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
    MAX_RECORD_SAMPLES, and the lock's against its least, computed from the
    config values alone once _check_leaf has passed them."""
    for name in ("brownian", "ringdown_optical", "ringdown_mech", "lock"):
        p = synth[name]
        rate = "loop_rate_hz" if name == "lock" else "sample_rate_hz"
        _check_samples(p["duration_s"] * p[rate],
                       f"synth.{name}: duration_s * {rate}")
    # the lock metrics are rms values over the last 20% of the record,
    # empty below 3 loop samples (round(2.5) is 2)
    n = synth["lock"]["duration_s"] * synth["lock"]["loop_rate_hz"]
    if not n > 2.5:
        raise ConfigError("synth.lock.duration_s must cover at least 3 loop "
                          f"samples, got {n:g}")
    p = synth["sweep"]
    per_record = p["samples_per_cycle"] * p["cycles_per_point"]
    _check_samples(per_record, "synth.sweep: samples_per_cycle * "
                               "cycles_per_point")
    if p["f_min_hz"] <= p["f_max_hz"]:
        # at most this many drive frequencies 10^(k / points_per_decade)
        # lie in [f_min_hz, f_max_hz]
        points = (float(p["points_per_decade"])
                  * math.log10(p["f_max_hz"] / p["f_min_hz"]) + 1.0)
        _check_samples(points * per_record, "synth.sweep in total")
    try:
        grid = sweep_exponents(p)
    except OverflowError as exc:     # points_per_decade near the float limit
        raise ConfigError(f"synth.sweep: {exc}") from exc
    if not grid:
        raise ConfigError(
            "synth.sweep holds no drive frequency 10^(k / points_per_decade) "
            f"from f_min_hz = {p['f_min_hz']} to f_max_hz = {p['f_max_hz']}")


def sweep_exponents(sweep: dict, f_max=math.inf) -> range:
    """The k of the drive frequencies 10^(k / points_per_decade) of a
    ``synth.sweep`` section from f_min_hz up to f_max_hz or f_max, the
    lesser."""
    ppd = sweep["points_per_decade"]
    lo = math.ceil(math.log10(sweep["f_min_hz"]) * ppd)
    hi = math.floor(math.log10(min(sweep["f_max_hz"], f_max)) * ppd)
    return range(lo, hi + 1)


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
        modes = {name: {"f0_hz": m.f0, "q": m.q, "m_eff_kg": m.m_eff,
                        "temp_k": m.temp}
                 for name, m in (("inner", self.inner), ("outer", self.outer))}
        return {
            "device": {**modes, "mass_ratio": self.mass_ratio},
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
    _check_record_sizes(synth)
    try:
        NestedModel(outer=outer, inner=inner)   # validate the pairing
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Config(inner=inner, outer=outer, mass_ratio=mass_ratio, cavity=cav,
                  synth=synth, analysis=analysis)


def read_config_json(path):
    """The JSON document of a config file, unchecked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_config(path) -> Config:
    return config_from_dict(read_config_json(path))


def default_config() -> Config:
    return config_from_dict({})

import copy
import json
import os
import re
import struct
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import TimeSeries, default_config
from optomech import estimate as _estimate
from optomech.cli import EXIT_CONFIG, EXIT_FIT, EXIT_IO, EXIT_OK, format_value_pm, main
from optomech.config import (_ANALYSIS_DEFAULTS, _SYNTH_DEFAULTS,
                             _VALUE_RULES, MAX_RECORD_SAMPLES, ConfigError)
from optomech.io import (read_result_doc, read_timeseries, write_result_doc,
                         write_timeseries_bin)


def _write_cfg(tmp_path, extra=None):
    cfg = {
        "synth": {
            "brownian": {"duration_s": 600.0},
            "ringdown_mech": {"duration_s": 20.0, "sample_rate_hz": 25e3},
            "sweep": {"f_min_hz": 300.0, "f_max_hz": 40e3,
                      "points_per_decade": 10},
        }
    }
    if extra:
        for key, val in extra.items():
            node = cfg
            *parents, leaf = key.split(".")
            for p in parents:
                node = node.setdefault(p, {})
            node[leaf] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestFormatValuePm:
    def test_uncertainty_table_style(self):
        assert format_value_pm(418231.0, 11342.0) == "418,000 ± 11,000"
        assert format_value_pm(700123.0, 98000.0) == "700,000 ± 98,000"
        assert format_value_pm(16563.1, 12.7) == "16,563 ± 13"

    def test_small_values_keep_decimals(self):
        assert format_value_pm(0.0590, 0.0021) == "0.0590 ± 0.0021"

    def test_zero_sigma(self):
        assert format_value_pm(5.0, 0.0) == "5 ± 0"


class TestDesignCheck:
    def test_default_design_point(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "design-check"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "80.0 dB" in text
        assert "PASS" in text
        doc = read_result_doc(tmp_path / "design_check_result.json")
        out = doc["outputs"]
        assert out["isolation_at_inner_db"]["value"] == pytest.approx(80.0,
                                                                      abs=0.1)
        assert 2.7e-4 <= out["min_phonons"]["value"] <= 3.6e-4
        assert out["ground_state_feasible"]["value"] is True
        assert out["fq_threshold_hz"]["value"] == pytest.approx(8.33e10,
                                                                rel=1e-3)
        assert 1e-11 <= out["outer_thermal_rms_m"]["value"] <= 1e-10

    def test_room_temperature_fails(self, capsys):
        rc = main(["design-check", "--bath-temp", "300"])
        assert rc == EXIT_OK
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("value, message", [
        ("inf", "--bath-temp must be a finite number > 0, got inf"),
        ("nan", "--bath-temp must be a finite number > 0, got nan"),
        ("0", "--bath-temp must be a finite number > 0, got 0"),
        ("-4", "--bath-temp must be a finite number > 0, got -4"),
        # finite, but its fQ threshold kB*T/h leaves the float range
        ("1e308", "design-check fq_threshold_hz is not finite")])
    def test_bad_bath_temp_is_config_error(self, tmp_path, capfd, value,
                                           message):
        out = tmp_path / "out"
        assert main(["--out", str(out), "design-check", "--bath-temp",
                     value]) == EXIT_CONFIG
        stdout, stderr = capfd.readouterr()
        assert stdout == ""
        assert stderr.startswith(f"configuration error: {message}")
        assert stderr.count("\n") == 1          # no numpy warning
        assert not out.exists()

    def test_236khz_device_cooling_floor(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"device": {"inner": {"f0_hz": 236e3}}}))
        rc = main(["--config", str(path), "--out", str(tmp_path),
                   "design-check"])
        assert rc == EXIT_OK
        doc = read_result_doc(tmp_path / "design_check_result.json")
        assert doc["outputs"]["min_phonons"]["value"] == pytest.approx(
            3.1e-4, rel=0.05)
        assert doc["outputs"]["sideband_ratio"]["value"] == pytest.approx(
            14.2, abs=0.1)


class TestSimulate:
    def test_brownian_zero_temperature_record(self, tmp_path):
        cfg = _write_cfg(tmp_path,
                         {"synth.brownian.noise_floor_m2_per_hz": 0.0})
        rc = main(["--config", cfg, "--out", str(tmp_path), "simulate",
                   "brownian", "--temp", "0"])
        assert rc == EXIT_OK
        ts = read_timeseries(tmp_path / "brownian.csv")
        assert np.all(ts.values == 0.0)

    @pytest.mark.parametrize("exp", ["brownian", "ringdown-optical"])
    def test_override_is_recorded_in_the_manifest(self, tmp_path, exp):
        # the manifest's config alone, without the flag, rebuilds the
        # record; each flag is ignored by the other experiment
        cfg = _write_cfg(tmp_path)
        flag, rerun = tmp_path / "flag", tmp_path / "rerun"
        assert main(["--config", cfg, "--out", str(flag), "simulate", exp,
                     "--temp", "0", "--finesse", "300000"]) == EXIT_OK
        stem = exp.replace("-", "_")
        manifest = f"simulate_{stem}_manifest.json"
        config = read_result_doc(flag / manifest)["config"]
        brownian = exp == "brownian"
        assert config["device"]["inner"]["temp_k"] == (0.0 if brownian
                                                       else 300.0)
        assert config["cavity"]["finesse"] == (181000.0 if brownian
                                               else 300000.0)
        rerun_cfg = tmp_path / "manifest_config.json"
        rerun_cfg.write_text(json.dumps(config))
        assert main(["--config", str(rerun_cfg), "--out", str(rerun),
                     "simulate", exp]) == EXIT_OK
        for name in (f"{stem}.csv", manifest):
            assert (rerun / name).read_bytes() == (flag / name).read_bytes()

    def test_binary_format_round_trip(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        rc = main(["--config", cfg, "--out", str(tmp_path), "simulate",
                   "brownian", "--format", "bin"])
        assert rc == EXIT_OK
        ts = read_timeseries(tmp_path / "brownian.bin")
        assert ts.n > 1000
        doc = read_result_doc(tmp_path / "simulate_brownian_manifest.json")
        assert doc["outputs"]["files"]["brownian"] == "brownian.bin"

    def test_seed_override_and_reproducibility(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
        for d, seed in ((d1, "1"), (d2, "1"), (d3, "2")):
            assert main(["--config", cfg, "--seed", seed, "--out", str(d),
                         "simulate", "brownian"]) == EXIT_OK
        a = (d1 / "brownian.csv").read_bytes()
        assert a == (d2 / "brownian.csv").read_bytes()
        assert a != (d3 / "brownian.csv").read_bytes()

    def test_lock_manifest_metrics(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"synth.lock.duration_s": 0.005})
        rc = main(["--config", cfg, "--out", str(tmp_path), "simulate",
                   "lock"])
        assert rc == EXIT_OK
        doc = read_result_doc(tmp_path / "simulate_lock_manifest.json")
        out = doc["outputs"]
        assert {"lock_acquired", "open_loop_detuning_rms_hz",
                "closed_loop_detuning_rms_hz"} <= set(out)
        for name in ("lock_error.csv", "lock_actuator.csv",
                     "lock_detuning.csv"):
            assert (tmp_path / name).exists()

    @pytest.mark.parametrize("duration, rc", [(2e-7, EXIT_CONFIG),
                                              (3e-7, EXIT_OK)])
    def test_lock_needs_a_nonempty_tail(self, tmp_path, capsys, duration, rc):
        # the lock metrics are rms values over the last 20% of the record:
        # at 10 MHz, 2 samples leave it empty (NaN in the manifest), 3 do not
        cfg = _write_cfg(tmp_path, {"synth.lock.duration_s": duration})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "simulate",
                     "lock"]) == rc
        manifest = out / "simulate_lock_manifest.json"
        if rc == EXIT_CONFIG:
            assert "synth.lock.duration_s" in capsys.readouterr().err
            assert not manifest.exists()
        else:
            json.loads(manifest.read_text(), parse_constant=pytest.fail)

    def test_ringdown_mech_writes_only_the_envelope(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate",
                     "ringdown-mech"]) == EXIT_OK
        assert list(tmp_path.glob("ringdown_mech_raw.*")) == []
        doc = read_result_doc(tmp_path / "simulate_ringdown_mech_manifest.json")
        assert doc["outputs"]["files"] == {
            "ringdown_mech_envelope": "ringdown_mech_envelope.csv"}

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_ringdown_mech_raw_flag_writes_the_reference(self, tmp_path, fmt):
        from optomech import load_config
        from optomech.cli import _SEED_RINGDOWN_MECH
        from optomech.io import write_timeseries
        from oracles import full_array_mech_ringdown
        cfg = _write_cfg(tmp_path)
        plain, raw, ref = (tmp_path / n for n in ("plain", "raw", "ref"))
        for d, flags in ((plain, []), (raw, ["--raw"])):
            assert main(["--config", cfg, "--out", str(d), "simulate",
                         "ringdown-mech", "--format", fmt] + flags) == EXIT_OK
        doc = read_result_doc(raw / "simulate_ringdown_mech_manifest.json")
        assert doc["outputs"]["files"] == {
            "ringdown_mech_raw": f"ringdown_mech_raw.{fmt}",
            "ringdown_mech_envelope": f"ringdown_mech_envelope.{fmt}"}
        c = load_config(cfg)
        p = c.synth["ringdown_mech"]
        rec, env = full_array_mech_ringdown(
            c.outer, p["sample_rate_hz"], p["duration_s"], p["x0_m"],
            c.synth["seed"] + _SEED_RINGDOWN_MECH, p["snr"],
            p["envelope_cycles"])
        ref.mkdir()
        write_timeseries(ref / f"ringdown_mech_raw.{fmt}", rec, fmt)
        write_timeseries(ref / f"ringdown_mech_envelope.{fmt}", env, fmt)
        for name in (f"ringdown_mech_raw.{fmt}",
                     f"ringdown_mech_envelope.{fmt}"):
            assert (raw / name).read_bytes() == (ref / name).read_bytes()
        name = f"ringdown_mech_envelope.{fmt}"
        assert (plain / name).read_bytes() == (ref / name).read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_raw_flag_holds_no_whole_record(self, tmp_path, fmt):
        # a short first run loads what any first run loads; then 3M
        # samples, whose raw record alone would be 24 MB
        short = _write_cfg(tmp_path, {"synth.ringdown_mech.duration_s": 1.0})
        assert main(["--config", short, "--out", str(tmp_path / "short"),
                     "simulate", "ringdown-mech", "--raw", "--format",
                     fmt]) == EXIT_OK
        tracemalloc.start()
        try:
            assert main(["--out", str(tmp_path / "long"), "simulate",
                         "ringdown-mech", "--raw", "--format",
                         fmt]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read_timeseries(
            tmp_path / "long" / f"ringdown_mech_raw.{fmt}").n == 3_000_000
        assert peak < 24e6 / 4

    @pytest.mark.parametrize("flag, exp, key", [
        ("--temp", "brownian", "device.inner.temp_k"),
        ("--finesse", "ringdown-optical", "cavity.finesse")])
    @pytest.mark.parametrize("value, shown", [("inf", "Infinity"),
                                              ("nan", "NaN")])
    def test_non_finite_override_is_config_error(self, tmp_path, capfd, flag,
                                                 exp, key, value, shown):
        # checked like the config value it sets, before anything runs: no
        # numpy warning, no file
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--out", str(out), "simulate", exp, flag,
                     value]) == EXIT_CONFIG
        assert capfd.readouterr() == (
            "", f"configuration error: {key} must be a finite number, "
                f"got {shown}\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("device", ["inner", "outer"])
    def test_temp_sets_the_brownian_device(self, tmp_path, device):
        cfg = _write_cfg(tmp_path, {"synth.brownian.device": device})
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate",
                     "brownian", "--temp", "4"]) == EXIT_OK
        config = read_result_doc(
            tmp_path / "simulate_brownian_manifest.json")["config"]
        other = "outer" if device == "inner" else "inner"
        assert config["device"][device]["temp_k"] == 4.0
        assert config["device"][other]["temp_k"] == 300.0

    def test_negative_temp_names_its_device(self, tmp_path, capfd):
        out = tmp_path / "out"
        assert main(["--out", str(out), "simulate", "brownian", "--temp",
                     "-1"]) == EXIT_CONFIG
        assert capfd.readouterr() == (
            "", "configuration error: invalid device.inner: temp must be "
                ">= 0, got -1.0\n")
        assert not out.exists()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        cfg = _write_cfg(tmp_path)
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("OPTOMECH_OUT_DIR", str(env_dir))
        assert main(["--config", cfg, "simulate", "brownian",
                     "--temp", "0"]) == EXIT_OK
        assert (env_dir / "brownian.csv").exists()


class TestAnalyze:
    def test_q_round_trip(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate",
                     "brownian"]) == EXIT_OK
        rc = main(["--config", cfg, "--out", str(tmp_path), "analyze", "q",
                   str(tmp_path / "brownian.csv")])
        assert rc == EXIT_OK
        assert "Q = " in capsys.readouterr().out
        doc = read_result_doc(tmp_path / "analyze_q_result.json")
        q = doc["outputs"]["q"]
        # default inner device Q, 600 s record
        assert q == pytest.approx(418000.0, rel=0.15)
        assert abs(q - 418000.0) <= 3 * doc["outputs"]["q_sigma"]

    def test_finesse_round_trip(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate",
                     "ringdown-optical", "--finesse", "181000"]) == EXIT_OK
        rc = main(["--config", cfg, "--out", str(tmp_path), "analyze",
                   "finesse", str(tmp_path / "ringdown_optical.csv")])
        assert rc == EXIT_OK
        doc = read_result_doc(tmp_path / "analyze_finesse_result.json")
        assert doc["outputs"]["finesse"] == pytest.approx(181000.0, rel=0.02)
        assert doc["outputs"]["tau_s"] == pytest.approx(9.61e-6, rel=0.02)

    def test_mech_q_round_trip(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate",
                     "ringdown-mech"]) == EXIT_OK
        rc = main(["--config", cfg, "--out", str(tmp_path), "analyze",
                   "mech-q", str(tmp_path / "ringdown_mech_envelope.csv")])
        assert rc == EXIT_OK
        doc = read_result_doc(tmp_path / "analyze_mech_q_result.json")
        assert doc["outputs"]["q"] == pytest.approx(1e5, rel=0.10)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_mech_q_of_a_raw_record_is_that_of_its_envelope(self, tmp_path,
                                                            fmt):
        # a record sampled at 8 f0 or faster is demodulated as it is read
        cfg = _write_cfg(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate",
                     "ringdown-mech", "--raw", "--format", fmt]) == EXIT_OK
        docs = []
        for name in ("raw", "envelope"):
            out = tmp_path / name
            record = tmp_path / f"ringdown_mech_{name}.{fmt}"
            assert main(["--config", cfg, "--out", str(out), "analyze",
                         "mech-q", str(record)]) == EXIT_OK
            docs.append((out / "analyze_mech_q_result.json").read_bytes())
        assert docs[0] == docs[1]
        doc = read_result_doc(tmp_path / "raw" / "analyze_mech_q_result.json")
        assert doc["outputs"]["q"] == pytest.approx(1e5, rel=0.10)

    def test_flat_ringdown_is_a_fit_error(self, tmp_path, capsys):
        # x0_m = 0 gives an envelope of zeros: no decay, so no Q
        cfg = _write_cfg(tmp_path, {"synth.ringdown_mech.x0_m": 0.0})
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate",
                     "ringdown-mech"]) == EXIT_OK
        for argv in (["analyze", "mech-q",
                      str(tmp_path / "ringdown_mech_envelope.csv")],
                     ["report"]):
            assert main(["--config", cfg, "--out", str(tmp_path)]
                        + argv) == EXIT_FIT
            assert ("fit error: record is flat"
                    in capsys.readouterr().err)

    def test_transfer_via_manifest(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate",
                     "sweep", "--device", "nested"]) == EXIT_OK
        manifest = tmp_path / "simulate_sweep_manifest.json"
        rc = main(["--config", cfg, "--out", str(tmp_path), "analyze",
                   "transfer", str(manifest)])
        assert rc == EXIT_OK
        doc = read_result_doc(tmp_path / "analyze_transfer_result.json")
        mags = doc["outputs"]["magnitude_db"]
        centers = doc["outputs"]["bin_centers_hz"]
        # low-frequency bins normalised to zero
        assert abs(mags[0]) < 0.5
        # isolation near 25 kHz is about -40 dB
        i25 = int(np.argmin(np.abs(np.array(centers) - 25e3)))
        assert mags[i25] == pytest.approx(
            -10 * np.log10((centers[i25] / 2.5e3) ** 4), abs=1.5)

    def test_transfer_same_as_per_record_demodulation(self, tmp_path,
                                                      monkeypatch):
        from oracles import per_record_transfer
        from optomech import estimate
        cfg = _write_cfg(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate",
                     "sweep"]) == EXIT_OK
        argv = ["--config", cfg, "--out", str(tmp_path), "analyze",
                "transfer", str(tmp_path / "simulate_sweep_manifest.json")]
        result = tmp_path / "analyze_transfer_result.json"
        assert main(argv) == EXIT_OK
        got = result.read_bytes()
        monkeypatch.setattr(estimate, "estimate_transfer", per_record_transfer)
        assert main(argv) == EXIT_OK
        assert result.read_bytes() == got

    def test_single_sweep_keeps_the_nested_manifest(self, tmp_path):
        cfg = _write_cfg(tmp_path)

        def run(*argv):
            assert main(["--config", cfg, "--out", str(tmp_path)]
                        + list(argv)) == EXIT_OK

        manifest = str(tmp_path / "simulate_sweep_manifest.json")
        run("simulate", "sweep")
        run("analyze", "transfer", manifest)
        nested = read_result_doc(tmp_path / "analyze_transfer_result.json")
        run("simulate", "sweep", "--device", "single")
        single = read_result_doc(tmp_path / "simulate_sweep_single_manifest.json")
        assert single["outputs"]["device"] == "single"
        assert single["outputs"]["files"]["records"][0] == "sweep_single_000.csv"
        run("analyze", "transfer", manifest)
        again = read_result_doc(tmp_path / "analyze_transfer_result.json")
        assert again["outputs"] == nested["outputs"]
        # the nested isolation: about -40 dB a decade above the outer mode,
        # where the single inner resonator passes the drive at about 0 dB
        centers = np.array(again["outputs"]["bin_centers_hz"])
        i25 = int(np.argmin(np.abs(centers - 25e3)))
        assert again["outputs"]["magnitude_db"][i25] < -30.0

    def test_transfer_binary_sweep_matches_csv(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        d_csv, d_bin = tmp_path / "csv", tmp_path / "bin"
        for d, fmt in ((d_csv, "csv"), (d_bin, "bin")):
            assert main(["--config", cfg, "--out", str(d), "simulate",
                         "sweep", "--format", fmt]) == EXIT_OK
            assert main(["--config", cfg, "--out", str(d), "analyze",
                         "transfer",
                         str(d / "simulate_sweep_manifest.json")]) == EXIT_OK
        a = read_result_doc(d_csv / "analyze_transfer_result.json")
        b = read_result_doc(d_bin / "analyze_transfer_result.json")
        assert a["outputs"]["magnitude_db"] == b["outputs"]["magnitude_db"]

    def test_psd_command(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate",
                     "brownian"]) == EXIT_OK
        rc = main(["--config", cfg, "--out", str(tmp_path), "analyze", "psd",
                   str(tmp_path / "brownian.csv")])
        assert rc == EXIT_OK
        doc = read_result_doc(tmp_path / "analyze_psd_result.json")
        assert doc["outputs"]["n_avg"] >= 8
        table = np.loadtxt(tmp_path / "psd.csv", delimiter=",", skiprows=1)
        f_pk = table[np.argmax(table[:, 1]), 0]
        assert f_pk == pytest.approx(250e3, abs=doc["outputs"]["resolution_hz"])

    def test_transfer_identical_base_and_response(self, tmp_path):
        from optomech import DriveRecord, TimeSeries
        from optomech.io import write_driverecord_csv
        fs = 32000.0
        t = np.arange(6400) / fs
        base = TimeSeries(fs, 0.0, 1e-12 * np.sin(2 * np.pi * 1e3 * t))
        write_driverecord_csv(tmp_path / "rec.csv",
                              DriveRecord(1e3, base, base))
        rc = main(["--out", str(tmp_path), "analyze", "transfer",
                   str(tmp_path / "rec.csv")])
        assert rc == EXIT_OK
        doc = read_result_doc(tmp_path / "analyze_transfer_result.json")
        assert doc["outputs"]["magnitude_db"] == [0.0]


def _paths(node, path=()):
    """(leaf paths, section paths) of a config document."""
    leaves, sections = [], [path]
    for key, val in node.items():
        if isinstance(val, dict):
            sub_leaves, sub_sections = _paths(val, path + (key,))
            leaves += sub_leaves
            sections += sub_sections
        else:
            leaves.append(path + (key,))
    return leaves, sections


_LEAVES, _SECTIONS = _paths(default_config().to_dict())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)
# numbers that pass the type checks, at every scale of the float range
_NUMBERS = (st.floats(allow_nan=False, allow_infinity=False)
            | st.integers(-10**6, 10**6)
            | st.integers(-323, 308).map(lambda e: float(f"1e{e}")))


def _sizes(base, scale):
    """Values of a leaf that sizes a record: with any other such value of
    its experiment, a record stays at most 3x its small base (far below
    MAX_RECORD_SAMPLES), empty, or far above the limit.  A record just
    below the limit would allocate gigabytes."""
    return st.sampled_from([base, base * scale, 0, -base, 1e-300, 1e300])


# experiment -> (synth section, small base values, strategies of the leaves
# that size its records, the analyze commands of its records)
_FUZZED_RUNS = {
    "brownian": ("brownian", {"duration_s": 60.0},
                 {"duration_s": _sizes(60.0, 0.1),
                  "sample_rate_hz": _sizes(400.0, 3.0)},
                 [["q", "brownian.bin"], ["psd", "brownian.bin"]]),
    "ringdown-optical": ("ringdown_optical", {},
                         {"duration_s": _sizes(1e-4, 0.1),
                          "sample_rate_hz": _sizes(5e6, 3.0)},
                         [["finesse", "ringdown_optical.bin"]]),
    "ringdown-mech": ("ringdown_mech", {"duration_s": 2.0},
                      {"duration_s": _sizes(2.0, 0.1),
                       "sample_rate_hz": _sizes(25e3, 3.0)},
                      [["mech-q", "ringdown_mech_envelope.bin"]]),
    # at most 5 points per decade over 2.1 decades: 11 drive frequencies
    "sweep": ("sweep", {"f_min_hz": 300.0, "f_max_hz": 40e3,
                        "points_per_decade": 5},
              {"f_min_hz": st.sampled_from([300.0, 3000.0, 0, -1.0, 1e300]),
               "f_max_hz": st.sampled_from([40e3, 3000.0, 0, -1.0, 300.0]),
               "points_per_decade": st.sampled_from([5, 1, 0, -2, 10**12]),
               "cycles_per_point": st.sampled_from([200, 20, 0, -3, 10**15]),
               "samples_per_cycle": st.sampled_from([32, 8, 1, 0, 10**15])},
              [["transfer", "simulate_sweep_manifest.json"]]),
    "lock": ("lock", {"duration_s": 0.002},
             {"duration_s": _sizes(0.002, 0.1),
              "loop_rate_hz": _sizes(1e7, 3.0)},
             []),
}


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"device": {"innner": {}}}')
        assert main(["--config", str(path), "design-check"]) == EXIT_CONFIG

    def test_invalid_config_value_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"device": {"mass_ratio": 2.0}}')
        assert main(["--config", str(path), "design-check"]) == EXIT_CONFIG

    def test_unparseable_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["--config", str(path), "design-check"]) == EXIT_CONFIG

    @pytest.mark.parametrize("config, section", [
        ('{"device": []}', "device"),
        ('{"analysis": []}', "analysis"),
        ('{"synth": 5}', "synth"),
        ('{"cavity": 3}', "cavity"),
        ('{"device": {"inner": []}}', "device.inner"),
        ('{"synth": {"brownian": 5}}', "synth.brownian"),
        ('[]', "config"),
    ])
    def test_section_of_wrong_type_is_config_error(self, tmp_path, capsys,
                                                   config, section):
        path = tmp_path / "bad.json"
        path.write_text(config)
        assert main(["--config", str(path), "design-check"]) == EXIT_CONFIG
        assert f"{section} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("config, key, argv", [
        ('{"device": {"mass_ratio": []}}', "device.mass_ratio",
         ["design-check"]),
        ('{"synth": {"seed": []}}', "synth.seed", ["simulate", "brownian"]),
        ('{"synth": {"brownian": {"duration_s": []}}}',
         "synth.brownian.duration_s", ["simulate", "brownian"]),
        ('{"synth": {"lock": {"kp": "x"}}}', "synth.lock.kp",
         ["simulate", "lock"]),
        ('{"device": {"inner": {"q": true}}}', "device.inner.q",
         ["design-check"]),
        ('{"device": {"inner": {"q": "418000"}}}', "device.inner.q",
         ["design-check"]),
        ('{"cavity": {"finesse": NaN}}', "cavity.finesse", ["design-check"]),
        ('{"cavity": {"length_m": 1e400}}', "cavity.length_m",
         ["design-check"]),
        ('{"cavity": {"length_m": 1' + "0" * 400 + '}}', "cavity.length_m",
         ["design-check"]),
        ('{"analysis": {"welch_window": 3}}', "analysis.welch_window",
         ["design-check"]),
        ('{"analysis": {"fit_window_hz": "wide"}}', "analysis.fit_window_hz",
         ["design-check"]),
        ('{"synth": {"seed": 1.7}}', "synth.seed", ["simulate", "brownian"]),
        ('{"synth": {"sweep": {"points_per_decade": 2.5}}}',
         "synth.sweep.points_per_decade", ["simulate", "sweep"]),
        ('{"synth": {"sweep": {"cycles_per_point": 200.0}}}',
         "synth.sweep.cycles_per_point", ["simulate", "sweep"]),
        ('{"synth": {"sweep": {"samples_per_cycle": 32.5}}}',
         "synth.sweep.samples_per_cycle", ["simulate", "sweep"]),
        ('{"synth": {"ringdown_mech": {"envelope_cycles": 10.0}}}',
         "synth.ringdown_mech.envelope_cycles", ["simulate", "ringdown-mech"]),
        ('{"analysis": {"welch_segment_len": 4096.5}}',
         "analysis.welch_segment_len", ["design-check"]),
        ('{"analysis": {"bins_per_decade": 5.0}}', "analysis.bins_per_decade",
         ["design-check"]),
    ], ids=["list-ratio", "list-seed", "list-duration", "str-gain", "bool",
            "numeric-str", "nan", "inf", "huge-int", "num-for-str",
            "str-for-null", "float-seed", "float-points-per-decade",
            "float-cycles-per-point", "float-samples-per-cycle",
            "float-envelope-cycles", "float-segment-len",
            "float-bins-per-decade"])
    def test_leaf_of_wrong_type_is_config_error(self, tmp_path, capsys,
                                                config, key, argv):
        path = tmp_path / "bad.json"
        path.write_text(config)
        rc = main(["--config", str(path), "--out", str(tmp_path)] + argv)
        assert rc == EXIT_CONFIG
        assert f"configuration error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        '{"device": {"inner": {"f0_hz": 1e308}}}',     # isolation of 0
        '{"device": {"outer": {"q": 1e-308}}}',
        '{"device": {"inner": {"f0_hz": 1e200}}}',     # w0^2 overflows
        '{"device": {"inner": {"q": 1e306}}}',         # fQ of inf
    ])
    def test_design_check_beyond_float_range_is_config_error(
            self, tmp_path, capsys, config):
        path = tmp_path / "extreme.json"
        path.write_text(config)
        assert main(["design-check", "--config", str(path)]) == EXIT_CONFIG
        assert "configuration error: " in capsys.readouterr().err

    @pytest.mark.parametrize("extra, argv", [
        ({"synth.sweep.piezo_corner_hz": 1e-300,
          "synth.sweep.response_noise_rms_m": 1}, ["simulate", "sweep"]),
        ({"synth.lock.duration_s": 0.002,
          "synth.lock.detuning_bias_hz": -1e300}, ["simulate", "lock"])],
        ids=["sweep-piezo-corner", "lock-bias"])
    def test_values_beyond_float_range_stop_before_any_file(
            self, tmp_path, capfd, extra, argv):
        # a Python OverflowError and a numpy overflow: exit 2 with one line
        # and no record, not a traceback or records without a manifest
        cfg = _write_cfg(tmp_path, extra)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)] + argv) == EXIT_CONFIG
        stdout, stderr = capfd.readouterr()
        assert stdout == ""
        assert stderr.startswith("configuration error: values take simulate "
                                 "out of float range: ")
        assert stderr.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_record_beyond_float_range_is_a_fit_error(self, tmp_path, capfd):
        # the sweep's records are finite, but their variance is not
        cfg = _write_cfg(tmp_path, {"synth.sweep.amplitude_m": 1e168,
                                    "synth.sweep.points_per_decade": 5})
        sim, out = tmp_path / "sim", tmp_path / "out"
        assert main(["--config", cfg, "--out", str(sim), "simulate", "sweep",
                     "--format", "bin"]) == EXIT_OK
        capfd.readouterr()
        assert main(["--config", cfg, "--out", str(out), "analyze", "transfer",
                     str(sim / "simulate_sweep_manifest.json")]) == EXIT_FIT
        stdout, stderr = capfd.readouterr()
        assert stdout == ""
        assert stderr.startswith("fit error: values take analyze out of "
                                 "float range: ")
        assert stderr.count("\n") == 1
        assert list(out.iterdir()) == []

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_fuzzed_config_is_accepted_or_a_config_error(self, data):
        # any JSON document derived from the default config either runs or
        # exits 2: never a traceback, never another exit code
        doc = copy.deepcopy(default_config().to_dict())
        for path in data.draw(st.lists(st.sampled_from(_LEAVES), max_size=4)):
            *parents, leaf = path
            node = doc
            for key in parents:
                node = node[key]
            node[leaf] = data.draw(_JSON_VALUES | _NUMBERS)
        for path in data.draw(st.lists(st.sampled_from(_SECTIONS),
                                       max_size=2)):
            node = doc
            for key in path:
                node = node[key]
            node[data.draw(st.text(max_size=8))] = data.draw(_JSON_VALUES)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            assert main(["design-check", "--config", path]) in (EXIT_OK,
                                                                EXIT_CONFIG)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), experiment=st.sampled_from(sorted(_FUZZED_RUNS)))
    def test_fuzzed_simulate_and_analyze_exit_0_2_or_4(self, data,
                                                        experiment):
        # a small config with fuzzed leaves of the experiment's synth
        # section and of analysis: simulate, then analyze what it wrote,
        # never with a traceback, an I/O error or a numpy warning
        section, base, sizes, analyses = _FUZZED_RUNS[experiment]
        synth, analysis, any_value = dict(base), {}, _JSON_VALUES | _NUMBERS
        leaves = ([(synth, key, sizes.get(key, any_value))
                   for key in _SYNTH_DEFAULTS[section]]
                  + [(analysis, key, any_value) for key in _ANALYSIS_DEFAULTS])
        for node, key, values in data.draw(st.lists(st.sampled_from(leaves),
                                                    max_size=3)):
            node[key] = data.draw(values)
        # an outer Q of 1e4 decays 1.6 times in the 2 s ringdown: its fit
        # converges, so analyze mech-q runs to the end
        doc = {"device": {"outer": {"q": 1e4}}, "synth": {section: synth},
               "analysis": analysis}
        with tempfile.TemporaryDirectory() as tmp, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            runs = [(["simulate", experiment, "--format", "bin"], "sim")]
            runs += [(["analyze", quantity, os.path.join(tmp, "sim", name)],
                      f"analyze_{quantity}") for quantity, name in analyses]
            for argv, out in runs:
                out = os.path.join(tmp, out)
                rc = main(["--config", path, "--out", out] + argv)
                assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_FIT), argv
                if rc == EXIT_CONFIG:
                    assert not os.path.exists(out) or not os.listdir(out)
                    if argv[0] == "simulate":
                        break
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("key, value", [
        ("welch_window", "nope"), ("welch_overlap", 0.95),
        ("welch_segment_len", 1), ("fit_window_hz", 0),
        ("bins_per_decade", 0)])
    def test_analysis_value_out_of_range_is_config_error(self, tmp_path,
                                                         capsys, key, value):
        cfg = _write_cfg(tmp_path, {f"analysis.{key}": value})
        out = tmp_path / "out"
        out.mkdir()
        for argv in (["report"], ["simulate", "brownian"]):
            assert main(["--config", cfg, "--out", str(out)]
                        + argv) == EXIT_CONFIG
            assert (f"configuration error: analysis.{key} must be "
                    in capsys.readouterr().err)
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key, value, argv", [
        ("synth.seed", -2, ["simulate", "brownian"]),
        ("synth.ringdown_optical.snr", 0, ["simulate", "ringdown-optical"]),
        ("synth.ringdown_mech.snr", 0, ["simulate", "ringdown-mech"]),
        ("synth.sweep.piezo_corner_hz", 0, ["simulate", "sweep"]),
        ("synth.sweep.base_noise_rms_m", -1, ["simulate", "sweep"]),
        ("synth.sweep.response_noise_rms_m", -1e-300, ["simulate", "sweep"]),
        ("synth.brownian.device", "middle", ["simulate", "brownian"]),
        ("synth.brownian.mode", "raw", ["simulate", "brownian"]),
        ("synth.sweep.points_per_decade", 0, ["simulate", "sweep"]),
        ("synth.sweep.f_min_hz", 0, ["simulate", "sweep"]),
        ("synth.sweep.f_max_hz", -1e-300, ["simulate", "sweep"])])
    def test_synth_value_out_of_range_is_config_error(self, tmp_path, capsys,
                                                      key, value, argv):
        cfg = _write_cfg(tmp_path, {key: value})
        out = tmp_path / "out"
        out.mkdir()
        rule = _VALUE_RULES[key][1]
        for args in (["report"], argv):
            assert main(["--config", cfg, "--out", str(out)]
                        + args) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"configuration error: {key} must be {rule}, "
                f"got {json.dumps(value)}\n")
            assert list(out.iterdir()) == []

    def test_readme_rule_table_lists_every_rule(self):
        # the "| key | rule |" table of README's Command line section
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            lines = fh.read().split("| key | rule |\n| --- | --- |\n", 1)[1]
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|$",
                          lines.split("\n\n", 1)[0], re.M)
        assert rows == [(key, rule) for key, (_, rule)
                        in _VALUE_RULES.items()]

    def test_short_lock_is_a_config_error_at_load(self, tmp_path, capsys):
        # 2 loop samples leave the lock metrics empty: every command exits 2
        # when it loads the config, not only simulate lock
        cfg = _write_cfg(tmp_path, {"synth.lock.duration_s": 2e-7})
        assert main(["--config", cfg, "design-check"]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "configuration error: synth.lock.duration_s must cover at "
                "least 3 loop samples, got 2\n")

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        # --seed is checked by the config file's rule for synth.seed
        out = tmp_path / "out"
        out.mkdir()
        for argv in (["report"], ["simulate", "brownian"]):
            assert main(["--seed", "-2", "--out", str(out)]
                        + argv) == EXIT_CONFIG
            assert ("configuration error: synth.seed must be >= 0, got -2"
                    in capsys.readouterr().err)
            assert list(out.iterdir()) == []

    def test_synth_values_at_their_limits_are_accepted(self):
        from optomech import config_from_dict
        synth = {"seed": 0, "ringdown_optical": {"snr": 1e-300},
                 "ringdown_mech": {"snr": 1e-300},
                 "sweep": {"piezo_corner_hz": 1e-300, "base_noise_rms_m": 0,
                           "response_noise_rms_m": 0}}
        assert config_from_dict({"synth": synth}).synth["seed"] == 0

    def test_analysis_values_at_their_limits_are_accepted(self):
        from optomech import config_from_dict
        for analysis in ({"welch_overlap": 0, "welch_segment_len": 2,
                          "fit_window_hz": 1e-300, "bins_per_decade": 1},
                         {"welch_overlap": 0.9, "welch_window": "boxcar"}):
            cfg = config_from_dict({"analysis": analysis})
            assert all(cfg.analysis[k] == v for k, v in analysis.items())

    def test_null_mass_ratio_is_the_mass_quotient(self, tmp_path):
        from optomech import config_from_dict, default_config
        cfg = config_from_dict({"device": {"mass_ratio": None}})
        assert cfg.mass_ratio == default_config().mass_ratio
        # integers are numbers too
        cfg = config_from_dict({"synth": {"lock": {"kp": 0}},
                                "device": {"inner": {"q": 418000}}})
        assert cfg.synth["lock"]["kp"] == 0 and cfg.inner.q == 418000.0

    @pytest.mark.parametrize("band", [(1000.0, 100.0), (1010.0, 1250.0)],
                             ids=["reversed", "between-grid-points"])
    def test_sweep_band_without_a_drive_frequency_is_config_error(
            self, tmp_path, capsys, band):
        # 10 points per decade: 1000 Hz and 1258.9 Hz are neighbours
        cfg = _write_cfg(tmp_path, {"synth.sweep.f_min_hz": band[0],
                                    "synth.sweep.f_max_hz": band[1]})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", cfg, "--out", str(out), "simulate",
                     "sweep"]) == EXIT_CONFIG
        assert "holds no drive frequency" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_report_band_above_the_single_sweep_cap_is_config_error(
            self, tmp_path, capsys):
        # report sweeps the bare inner resonator only up to inner f0 / 5
        cfg = _write_cfg(tmp_path, {"synth.sweep.f_min_hz": 60000.0,
                                    "synth.sweep.f_max_hz": 95000.0})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", cfg, "--out", str(out),
                     "report"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "synth.sweep.f_min_hz = 60000.0" in err
        assert "device.inner.f0_hz / 5 = 50000.0 Hz" in err
        assert list(out.iterdir()) == []
        # the nested sweep of simulate has no such cap
        assert main(["--config", cfg, "--out", str(out), "simulate",
                     "sweep"]) == EXIT_OK

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_non_finite_drive_frequency_is_io_error(self, tmp_path, fmt):
        if fmt == "csv":
            rows = "\n".join(f"{k}e-12,{k}e-12" for k in range(1, 641))
            target = tmp_path / "rec.csv"
            target.write_text("# optomech_driverecord v1\n# drive_freq_hz=inf"
                              "\n# sample_rate_hz=32000.0\nbase,response\n"
                              f"{rows}\n")
        else:                        # the frequency is the manifest's
            ramp = TimeSeries(32000.0, 0.0, np.linspace(1e-12, 2e-12, 640))
            for name in ("b.bin", "r.bin"):
                write_timeseries_bin(tmp_path / name, ramp)
            target = tmp_path / "m.json"
            target.write_text(
                '{"schema": "optomech.result/1", "command": "simulate sweep",'
                ' "config": {}, "outputs": {"files": {"records": [{'
                '"drive_freq_hz": Infinity, "base": "b.bin",'
                ' "response": "r.bin"}]}}}')
        assert main(["--out", str(tmp_path), "analyze", "transfer",
                     str(target)]) == EXIT_IO

    @pytest.mark.parametrize("via_manifest", [False, True])
    @pytest.mark.parametrize("values_per_row", [1, 3])
    def test_drive_record_with_wrong_column_count_is_io_error(
            self, tmp_path, values_per_row, via_manifest):
        rows = "\n".join(",".join([f"{k}e-12"] * values_per_row)
                         for k in range(1, 641))
        (tmp_path / "rec.csv").write_text(
            "# optomech_driverecord v1\n# drive_freq_hz=1000.0\n"
            f"# sample_rate_hz=32000.0\nbase,response\n{rows}\n")
        target = tmp_path / "rec.csv"
        if via_manifest:
            target = tmp_path / "m.json"
            write_result_doc(target, {
                "schema": "optomech.result/1", "command": "simulate sweep",
                "config": {}, "outputs": {"files": {"records": ["rec.csv"]}}})
        assert main(["--out", str(tmp_path), "analyze", "transfer",
                     str(target)]) == EXIT_IO

    @pytest.mark.parametrize("body", [b"", b"\n\n\r\n"],
                             ids=["header-only", "empty-lines"])
    @pytest.mark.parametrize("kind, header, quantity", [
        ("timeseries", b"# sample_rate_hz=100.0\nvalue\n", "q"),
        ("drive-record", b"# drive_freq_hz=10.0\n# sample_rate_hz=100.0\n"
         b"base,response\n", "transfer"),
    ], ids=["timeseries", "drive-record"])
    def test_empty_csv_body_is_io_error_without_a_warning(
            self, tmp_path, capfd, body, kind, header, quantity):
        # no np.loadtxt call, so no "input contained no data" on stderr
        path = tmp_path / "rec.csv"
        magic = kind.replace("-", "").encode()
        path.write_bytes(b"# optomech_" + magic + b" v1\n" + header + body)
        assert main(["--out", str(tmp_path / "out"), "analyze", quantity,
                     str(path)]) == EXIT_IO
        assert capfd.readouterr().err == (
            f"I/O error: {path}: malformed {kind} CSV: "
            "a TimeSeries needs at least 2 samples\n")

    @pytest.mark.parametrize("outputs", [
        {},
        {"files": {}},
        {"files": {"records": "sweep.csv"}},
        {"files": {"records": []}},
        {"files": {"records": [3]}},
        {"files": {"records": ["rec.csv", None]}},
        {"files": {"records": [{"drive_freq_hz": "x", "base": "b.bin",
                                "response": "r.bin"}]}},
        {"files": {"records": [{"drive_freq_hz": True, "base": "b.bin",
                                "response": "r.bin"}]}},
        {"files": {"records": [{"drive_freq_hz": 1e3, "base": "b.bin"}]}},
        {"files": {"records": [{"drive_freq_hz": 1e3, "base": 2,
                                "response": "r.bin"}]}},
        [],
    ], ids=["no-files", "no-records", "string-records", "empty-records",
            "int-entry", "null-entry", "str-freq", "bool-freq",
            "no-response", "int-base", "outputs-list"])
    def test_malformed_manifest_is_io_error(self, tmp_path, capsys, outputs):
        (tmp_path / "rec.csv").write_text("not read\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "schema": "optomech.result/1", "command": "simulate sweep",
            "config": {}, "outputs": outputs}))
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", "transfer",
                     str(manifest)]) == EXIT_IO
        assert f"I/O error: {manifest}: " in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("doc", ["[1, 2]", '"optomech.result/1"', "3",
                                     "null"])
    def test_manifest_that_is_not_an_object_is_io_error(self, tmp_path,
                                                         capsys, doc):
        manifest = tmp_path / "m.json"
        manifest.write_text(doc)
        assert main(["--out", str(tmp_path), "analyze", "transfer",
                     str(manifest)]) == EXIT_IO
        assert "not a result document" in capsys.readouterr().err

    @pytest.mark.parametrize("quantity", ["q", "psd", "finesse", "mech-q"])
    def test_single_record_analysis_rejects_more_inputs(self, tmp_path,
                                                        capsys, quantity):
        path = tmp_path / "ten.csv"
        path.write_text("not read\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "analyze", quantity, str(path),
                     str(path), str(tmp_path / "missing.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"analyze {quantity} reads one record, got 3 inputs" in err
        assert not out.exists()

    @pytest.mark.parametrize("synth", [
        {"brownian": {"duration_s": 1e15}},
        {"brownian": {"sample_rate_hz": 1e300, "duration_s": 1e300}},
        {"ringdown_optical": {"duration_s": 1e12}},
        {"ringdown_mech": {"duration_s": 1e15}},
        {"lock": {"duration_s": 1e9}},
        {"sweep": {"samples_per_cycle": 10 ** 15}},
        {"sweep": {"cycles_per_point": 10 ** 300}},
        {"sweep": {"points_per_decade": 10 ** 12}},
        {"sweep": {"f_min_hz": 1e-300, "f_max_hz": 1e300}},
    ], ids=["brownian", "brownian-inf", "ringdown-optical", "ringdown-mech",
            "lock", "sweep-record", "sweep-record-huge-int", "sweep-points",
            "sweep-span"])
    def test_record_beyond_the_size_limit_is_config_error(self, tmp_path,
                                                          synth):
        # sizes that would need petabytes: the config check runs first,
        # so that nothing is allocated
        from optomech import config_from_dict
        with pytest.raises(ConfigError, match="MAX_RECORD_SAMPLES"):
            config_from_dict({"synth": synth})

    @pytest.mark.parametrize("experiment, synth", [
        ("brownian", {"brownian": {"duration_s": 1e15}}),
        ("lock", {"lock": {"duration_s": 1e9}}),
        ("sweep", {"sweep": {"samples_per_cycle": 10 ** 15}}),
    ])
    def test_oversized_simulate_exits_2_before_writing(
            self, tmp_path, capsys, experiment, synth):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"synth": synth}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "simulate",
                     experiment]) == EXIT_CONFIG
        assert "MAX_RECORD_SAMPLES" in capsys.readouterr().err
        assert not out.exists()

    def test_size_limit_leaves_room_for_long_records(self):
        from optomech import config_from_dict
        # 16 times the 6 M samples of a 240 s ringdown at 25 kHz
        assert MAX_RECORD_SAMPLES >= 16 * 6_000_000
        # exactly at the limit: accepted
        cfg = config_from_dict({"synth": {"lock": {
            "duration_s": MAX_RECORD_SAMPLES / 1e7, "loop_rate_hz": 1e7}}})
        assert cfg.synth["lock"]["duration_s"] * 1e7 == MAX_RECORD_SAMPLES

    def test_non_utf8_record_is_io_error(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_bytes(b"# optomech_timeseries v1\n# t0_s=\xff\n"
                         b"value\n1.0\n2.0\n")
        assert main(["--out", str(tmp_path), "analyze", "q",
                     str(path)]) == EXIT_IO
        path.write_bytes(bytes(range(128, 256)) * 8)
        assert main(["--out", str(tmp_path), "analyze", "q",
                     str(path)]) == EXIT_IO

    @pytest.mark.parametrize("tail, count", [(b"\0" * 3, None),
                                             (b"\0" * 8, None),
                                             (b"", 1 << 60)],
                             ids=["3-extra-bytes", "8-extra-bytes",
                                  "count-2**60"])
    def test_bad_binary_payload_is_io_error(self, tmp_path, capsys, tail,
                                            count):
        assert main(["--out", str(tmp_path), "simulate", "ringdown-optical",
                     "--format", "bin"]) == EXIT_OK
        path = tmp_path / "ringdown_optical.bin"
        data = bytearray(path.read_bytes())
        if count is not None:
            data[40:48] = count.to_bytes(8, "little")
        path.write_bytes(bytes(data) + tail)
        capsys.readouterr()
        assert main(["--out", str(tmp_path), "analyze", "finesse",
                     str(path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and "expected" in err

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "analyze", "q",
                     str(tmp_path / "missing.csv")]) == EXIT_IO

    def test_schema_mismatch_is_io_error(self, tmp_path):
        bad = {"schema": "optomech.result/1", "command": "simulate sweep",
               "config": {}, "outputs": {"files": {"records": []}}}
        write_result_doc(tmp_path / "m.json", bad)
        text = (tmp_path / "m.json").read_text().replace(
            "optomech.result/1", "optomech.result/9")
        (tmp_path / "m.json").write_text(text)
        assert main(["--out", str(tmp_path), "analyze", "transfer",
                     str(tmp_path / "m.json")]) == EXIT_IO

    def test_nonconvergence_is_fit_error_with_partial_result(self, tmp_path):
        # outer Q so high that tau_a far exceeds the record: converged=False
        cfg = _write_cfg(tmp_path, {"device.outer.q": 1e7})
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate",
                     "ringdown-mech"]) == EXIT_OK
        rc = main(["--config", cfg, "--out", str(tmp_path), "analyze",
                   "mech-q", str(tmp_path / "ringdown_mech_envelope.csv")])
        assert rc == EXIT_FIT
        doc = read_result_doc(tmp_path / "analyze_mech_q_result.json")
        assert doc["outputs"]["converged"] is False

    def test_usage_error(self):
        assert main(["frobnicate"]) == EXIT_CONFIG


def _analyses(cfg, out, path):
    """Exit codes of `analyze q` and `analyze psd` on path, and the files
    they leave in the new directory out."""
    out.mkdir()
    rcs = [main(["--config", cfg, "--out", str(out), "analyze", quantity,
                 str(path)]) for quantity in ("q", "psd")]
    return rcs, {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.fixture(scope="module")
def streamed_record(tmp_path_factory):
    """A 120 s Brownian record as CSV (2.2 MB) and .bin, with the files that
    `analyze q` and `analyze psd` leave for the .bin."""
    d = tmp_path_factory.mktemp("streamed")
    cfg = _write_cfg(d, {"synth.brownian.duration_s": 120.0})
    for fmt in ("csv", "bin"):
        assert main(["--config", cfg, "--out", str(d), "simulate", "brownian",
                     "--format", fmt]) == EXIT_OK
    rcs, files = _analyses(cfg, d / "bin_out", d / "brownian.bin")
    assert rcs == [EXIT_OK, EXIT_OK]
    return cfg, d, files


def _allow_cpus(monkeypatch, n_cpus):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n_cpus)), raising=False)


@pytest.mark.usefixtures("small_ranges")
class TestStreamedAnalysis:
    """`analyze q` and `analyze psd` read their record a block at a time
    (CSV bodies in 16 KiB ranges here) with the outputs and exit codes of a
    whole read, and leave no result behind on an error."""

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("edit", ["none", "blank", "comment", "crlf",
                                      "no_final_newline", "lone_cr"])
    def test_csv_bodies_give_the_bytes_of_the_bin_record(
            self, tmp_path, monkeypatch, streamed_record, edit, n_cpus):
        cfg, d, bin_files = streamed_record
        text = (d / "brownian.csv").read_bytes()
        middle = text.index(b"\n", len(text) * 3 // 4)
        text = {
            "none": text,
            "blank": text[:middle] + b"\n" + text[middle:],
            "comment": text[:middle] + b"\n# note" + text[middle:],
            "crlf": text.replace(b"\n", b"\r\n"),
            "no_final_newline": text[:-1],
            "lone_cr": text[:middle] + b"\r" + text[middle + 1:],
        }[edit]
        path = tmp_path / "brownian.csv"
        path.write_bytes(text)
        _allow_cpus(monkeypatch, n_cpus)
        assert _analyses(cfg, tmp_path / "out", path) == (
            [EXIT_OK, EXIT_OK], bin_files)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("bad", ["nan_in_last_range",
                                     "three_values_mid_file"])
    def test_bad_csv_rows_exit_3(self, tmp_path, monkeypatch,
                                 streamed_record, bad, n_cpus):
        cfg, d, _ = streamed_record
        text = (d / "brownian.csv").read_bytes()
        if bad == "nan_in_last_range":
            row = text.rindex(b"\n", 0, -1) + 1
            end = len(text) - 1
        else:
            row = text.index(b"\n", len(text) // 2) + 1
            end = text.index(b"\n", row)
        path = tmp_path / "brownian.csv"
        path.write_bytes(text[:row] + (b"nan,nan" if bad == "nan_in_last_range"
                                       else b"1e-12,2e-12,3e-12") + text[end:])
        _allow_cpus(monkeypatch, n_cpus)
        assert _analyses(cfg, tmp_path / "out", path) == (
            [EXIT_IO, EXIT_IO], {})

    @pytest.mark.parametrize("field, rc", [
        (" 1.0e-12", EXIT_OK), ("1_0", EXIT_IO), ("nan", EXIT_IO),
        ("0x1p3", EXIT_IO), ("1.23456789012345678901234567890e-12", EXIT_OK),
    ])
    def test_fields_outside_the_grammar_read_like_loadtxt(
            self, tmp_path, streamed_record, field, rc):
        # one real part mid-file, in a middle range: the range is read by
        # np.loadtxt, with its values or the whole body's error
        cfg, d, _ = streamed_record
        text = (d / "brownian.csv").read_bytes()
        row = text.index(b"\n", len(text) // 2) + 1
        text = text[:row] + field.encode() + text[text.index(b",", row):]
        path = tmp_path / "brownian.csv"
        path.write_bytes(text)
        rcs, files = _analyses(cfg, tmp_path / "out", path)
        assert rcs == [rc, rc]
        if rc != EXIT_OK:
            assert files == {}
            return
        # the same analyses of a .bin record of np.loadtxt's values
        body = text[text.index(b"value_re,value_im\n") + 18:]
        values = np.loadtxt(body.decode().splitlines(), delimiter=",")
        ts = read_timeseries(d / "brownian.bin")
        ts.values = np.ascontiguousarray(values).view(np.complex128)[:, 0]
        write_timeseries_bin(tmp_path / "brownian.bin", ts)
        assert files == _analyses(cfg, tmp_path / "bin_out",
                                  tmp_path / "brownian.bin")[1]

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize("field, bad", [
        ("sample_rate_hz", "inf"), ("t0_s", "nan"),
        ("calibration_m_per_unit", "-inf"), ("center_freq_hz", "nan"),
    ])
    def test_non_finite_metadata_exits_3(self, tmp_path, streamed_record,
                                         field, bad, fmt):
        cfg, d, _ = streamed_record
        data = (d / f"brownian.{fmt}").read_bytes()
        if fmt == "csv":
            data = re.sub(rb"# %s=[^\n]*" % field.encode(),
                          b"# %s=%s" % (field.encode(), bad.encode()), data)
        else:                        # the OMB1 header's four float64 fields
            data = bytearray(data)
            k = ["sample_rate_hz", "t0_s", "calibration_m_per_unit",
                 "center_freq_hz"].index(field)
            struct.pack_into("<d", data, 8 + 8 * k, float(bad))
        path = tmp_path / f"brownian.{fmt}"
        path.write_bytes(data)
        assert _analyses(cfg, tmp_path / "out", path) == (
            [EXIT_IO, EXIT_IO], {})

    def test_bin_payload_mismatch_exits_3_before_any_segment(
            self, tmp_path, monkeypatch, streamed_record):
        cfg, d, _ = streamed_record
        path = tmp_path / "brownian.bin"
        path.write_bytes((d / "brownian.bin").read_bytes() + b"\0" * 16)

        def segments(*args):
            raise AssertionError("a segment was read")

        monkeypatch.setattr(_estimate, "_segments", segments)
        assert _analyses(cfg, tmp_path / "out", path) == (
            [EXIT_IO, EXIT_IO], {})

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_segment_longer_than_record_exits_2(self, tmp_path,
                                                streamed_record, fmt):
        _, d, _ = streamed_record
        cfg = _write_cfg(tmp_path, {"analysis.welch_segment_len": 1 << 20})
        assert _analyses(cfg, tmp_path / "out", d / f"brownian.{fmt}") == (
            [EXIT_CONFIG, EXIT_CONFIG], {})


def _table_columns(path):
    """The text of each column of a report or analyze CSV table."""
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(r.split(",") for r in rows))))


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("report")
    cfg = _write_cfg(tmp, {"synth.sweep.response_noise_rms_m": 0.0})
    assert main(["--config", cfg, "--out", str(tmp / "run1"), "report"]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(tmp / "run2"), "report"]) == EXIT_OK
    return tmp


class TestReport:
    def test_emits_all_data_files(self, report_dir):
        for name in ("transfer_single.csv", "transfer_nested.csv",
                     "brownian_psd.csv", "ringdown_optical.csv",
                     "ringdown_mech.csv", "report.json"):
            assert (report_dir / "run1" / name).exists()

    def test_rerun_is_byte_identical(self, report_dir):
        for name in ("transfer_single.csv", "transfer_nested.csv",
                     "brownian_psd.csv", "ringdown_optical.csv",
                     "ringdown_mech.csv", "report.json"):
            assert (report_dir / "run1" / name).read_bytes() == \
                   (report_dir / "run2" / name).read_bytes()

    def test_zero_noise_estimate_matches_generating_model(self, report_dir):
        for name in ("transfer_single.csv", "transfer_nested.csv"):
            rows = np.loadtxt(report_dir / "run1" / name, delimiter=",",
                              skiprows=1)
            measured, model = rows[:, 1], rows[:, 4]
            assert np.max(np.abs(measured - model)) <= 0.1

    def test_theory_column_is_independent_single_stage_overlay(self, report_dir):
        rows = np.loadtxt(report_dir / "run1" / "transfer_single.csv",
                          delimiter=",", skiprows=1)
        # for a single resonator the generating model is the overlay itself
        assert np.allclose(rows[:, 3], rows[:, 4], atol=1e-12)

    def test_fits_equal_analyze_of_simulated_records(self, report_dir):
        # report and simulate + analyze build each record and fit each
        # quantity through the same code, so the numbers agree exactly
        cfg = str(report_dir / "config.json")
        sim = report_dir / "sim"
        for argv in (["simulate", "brownian"],
                     ["analyze", "q", str(sim / "brownian.csv")],
                     ["simulate", "sweep"],
                     ["analyze", "transfer",
                      str(sim / "simulate_sweep_manifest.json")]):
            assert main(["--config", cfg, "--out", str(sim)] + argv) == EXIT_OK
        rep = read_result_doc(report_dir / "run1" / "report.json")["outputs"]
        ana = read_result_doc(sim / "analyze_q_result.json")["outputs"]
        assert rep["inner_q_fit"]["q"] == ana["q"]
        assert rep["inner_q_fit"]["q_sigma"] == ana["q_sigma"]
        nested = _table_columns(report_dir / "run1" / "transfer_nested.csv")
        est = _table_columns(sim / "transfer_estimate.csv")
        assert nested["freq_hz"] == est["freq_hz"]
        assert nested["measured_db"] == est["magnitude_db"]
        assert nested["errbar_db"] == est["errbar_db"]

    def test_report_doc_contents(self, report_dir):
        doc = read_result_doc(report_dir / "run1" / "report.json")
        out = doc["outputs"]
        assert out["finesse_fit"]["finesse"] == pytest.approx(181000.0,
                                                              rel=0.02)
        assert out["inner_q_fit"]["converged"] is True
        assert "formatted" in out["outer_q_fit"]

import json
import os

import numpy as np
import pytest

from optomech.cli import EXIT_CONFIG, EXIT_FIT, EXIT_IO, EXIT_OK, format_value_pm, main
from optomech.io import read_result_doc, read_timeseries, write_result_doc


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
        from optomech.io import write_driverecords_csv
        fs = 32000.0
        t = np.arange(6400) / fs
        base = TimeSeries(fs, 0.0, 1e-12 * np.sin(2 * np.pi * 1e3 * t))
        write_driverecords_csv([tmp_path / "rec.csv"],
                               [DriveRecord(1e3, base, base)])
        rc = main(["--out", str(tmp_path), "analyze", "transfer",
                   str(tmp_path / "rec.csv")])
        assert rc == EXIT_OK
        doc = read_result_doc(tmp_path / "analyze_transfer_result.json")
        assert doc["outputs"]["magnitude_db"] == [0.0]


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

    def test_null_mass_ratio_is_the_mass_quotient(self, tmp_path):
        from optomech import config_from_dict, default_config
        cfg = config_from_dict({"device": {"mass_ratio": None}})
        assert cfg.mass_ratio == default_config().mass_ratio
        # integers are numbers too
        cfg = config_from_dict({"synth": {"lock": {"kp": 0}},
                                "device": {"inner": {"q": 418000}}})
        assert cfg.synth["lock"]["kp"] == 0 and cfg.inner.q == 418000.0

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

    def test_non_utf8_record_is_io_error(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_bytes(b"# optomech_timeseries v1\n# t0_s=\xff\n"
                         b"value\n1.0\n2.0\n")
        assert main(["--out", str(tmp_path), "analyze", "q",
                     str(path)]) == EXIT_IO
        path.write_bytes(bytes(range(128, 256)) * 8)
        assert main(["--out", str(tmp_path), "analyze", "q",
                     str(path)]) == EXIT_IO

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

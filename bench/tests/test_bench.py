"""Tests of the benchmark itself: metric names, output checks, tracing and a
smoke run on a tiny config.

    python3 -m pytest -q bench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import TRUTH_CONFIG, WORKLOADS, Command, Workload  # noqa: E402

with open(os.path.join(BENCH, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TRUTH = {"q_inner": 418000.0, "q_outer": 1e5, "finesse": 181000.0}

# every layer in a few commands, on records small enough to run in seconds
TINY = Workload(
    name="tiny", why="smoke run",
    config={**TRUTH_CONFIG, "synth": {
        "brownian": {"duration_s": 60.0},
        "sweep": {"f_min_hz": 300.0, "f_max_hz": 3000.0,
                  "points_per_decade": 4, "cycles_per_point": 50},
        "lock": {"duration_s": 0.001}}},
    commands=(
        Command(("simulate", "brownian"), "simulate_brownian_manifest.json"),
        Command(("analyze", "q", "{inputs}/brownian.csv"),
                "analyze_q_result.json", "q_inner"),
        Command(("simulate", "sweep", "--format", "bin"),
                "simulate_sweep_manifest.json"),
        Command(("analyze", "transfer", "{inputs}/simulate_sweep_manifest.json"),
                "analyze_transfer_result.json", "transfer"),
        Command(("simulate", "lock"), "simulate_lock_manifest.json", "lock"),
        Command(("design-check",), "design_check_result.json"),
    ))


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS


def _doc(tmp_path, name, outputs):
    (tmp_path / name).write_text(json.dumps(
        {"schema": checks.SCHEMA, "command": "x", "config": {},
         "outputs": outputs}))
    return {name: checks.digest(tmp_path / name)}


@pytest.mark.parametrize("pull, failed", [(1.0, False), (-4.9, False),
                                          (20.0, True), (-20.0, True)])
def test_q_off_by_sigma(tmp_path, pull, failed):
    cmd = Command(("analyze", "q", "x"), "analyze_q_result.json", "q_inner")
    hashes = _doc(tmp_path, cmd.doc, {"q": 418000.0 + pull * 8000.0,
                                      "q_sigma": 8000.0, "converged": True})
    problems, diag = checks.check_command(cmd, TRUTH, 0, tmp_path, hashes, None)
    assert bool(problems) is failed
    assert diag["q_inner_pull"] == pytest.approx(pull)


def test_known_defect_is_a_diagnostic_not_a_pass(tmp_path):
    cmd = Command(("analyze", "mech-q", "x"), "analyze_mech_q_result.json",
                  "q_outer")
    hashes = _doc(tmp_path, cmd.doc, {"q": 99000.0, "q_sigma": 20.0,
                                      "converged": True})
    problems, diag = checks.check_command(cmd, TRUTH, 0, tmp_path, hashes, None)
    assert problems == [] and diag["known_defect"].startswith("mech_q_bias")
    # beyond the fit's documented 10% accuracy the command fails
    hashes = _doc(tmp_path, cmd.doc, {"q": 89000.0, "q_sigma": 20.0,
                                      "converged": True})
    problems, _ = checks.check_command(cmd, TRUTH, 0, tmp_path, hashes, None)
    assert problems
    hashes = _doc(tmp_path, cmd.doc, {"q": 99000.0, "q_sigma": 20.0,
                                      "converged": False})
    problems, _ = checks.check_command(cmd, TRUTH, 0, tmp_path, hashes, None)
    assert problems


def test_flipped_byte_fails(tmp_path):
    cmd = Command(("simulate", "brownian"), "simulate_brownian_manifest.json")
    hashes = _doc(tmp_path, cmd.doc, {"files": {}})
    (tmp_path / "brownian.csv").write_bytes(b"0.125\n")
    hashes["brownian.csv"] = checks.digest(tmp_path / "brownian.csv")
    reference = dict(hashes)
    assert checks.check_command(cmd, TRUTH, 0, tmp_path, hashes,
                                reference)[0] == []
    (tmp_path / "brownian.csv").write_bytes(b"0.124\n")
    hashes["brownian.csv"] = checks.digest(tmp_path / "brownian.csv")
    problems, _ = checks.check_command(cmd, TRUTH, 0, tmp_path, hashes,
                                       reference)
    assert any("byte-identical" in p for p in problems)


def test_bad_schema_and_exit_code_fail(tmp_path):
    cmd = Command(("design-check",), "design_check_result.json")
    (tmp_path / cmd.doc).write_text(json.dumps({"schema": "other/1"}))
    hashes = {cmd.doc: checks.digest(tmp_path / cmd.doc)}
    assert checks.check_command(cmd, TRUTH, 0, tmp_path, hashes, None)[0]
    hashes = _doc(tmp_path, cmd.doc, {})
    assert checks.check_command(cmd, TRUTH, 3, tmp_path, hashes, None)[0]
    assert not checks.check_command(cmd, TRUTH, 0, tmp_path, hashes, None)[0]


def test_self_times_add_up():
    spans = [["cli.main", 0.0, 10.0, -1, {}],
             ["io.write_timeseries", 1.0, 4.0, 0, {}],
             ["io.write_timeseries_csv", 1.5, 3.5, 1, {"bytes": 2e6, "files": 1}],
             ["servo.simulate_lock", 5.0, 8.0, 0, {"steps": 10, "acquired": 0,
                                                   "saturation": 0.5}],
             ["synth.synth_brownian", 5.5, 6.5, 3, {"samples": 5}]]
    m = tracer.layer_metrics([(10.5, spans)])
    assert m["cli.s"] == pytest.approx(4.0)
    assert m["io.write.s"] == pytest.approx(3.0)
    assert m["servo.simulate_lock.s"] == pytest.approx(2.0)
    assert m["synth.s"] == pytest.approx(1.0)
    assert m["cli.startup.s"] == pytest.approx(0.5)
    assert m["io.write.mb"] == 2.0 and m["io.files_written"] == 1
    assert m["servo.saturation_frac"] == 0.5
    assert sum(m[f"{g}.s"] for g in tracer.TIME_GROUPS) + m["cli.startup.s"] \
        == pytest.approx(10.5)


def test_known_defects_are_named(tmp_path):
    """The default lock's failure and the report clobber show in every run."""
    defects = Workload(
        name="defects", why="known defects",
        config={**TRUTH_CONFIG, "synth": TINY.config["synth"] | {"lock": {}}},
        commands=(
            Command(("simulate", "ringdown-optical"),
                    "simulate_ringdown_optical_manifest.json"),
            Command(("simulate", "lock"), "simulate_lock_manifest.json", "lock"),
            Command(("report",), "report.json")))
    result, report = run.benchmark(defects, seed=3, seconds=0, trace=0,
                                   work_dir=str(tmp_path))
    assert result["correct"], report["problems"]
    diag = report["diagnostics"]
    assert diag["servo.acquired_frac"] == 0
    assert diag["io.clobbered_files_per_pass"] == 1
    assert [d.split(":")[0] for d in diag["known_defects"]] == [
        "clobbered_files", "lock_not_acquired"]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(tmp_path, trace):
    result, report = run.benchmark(TINY, seed=3, seconds=0, trace=trace,
                                   work_dir=str(tmp_path))
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= len(TINY.commands)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert report["diagnostics"]["lock_runs"] >= 1
    if trace:
        m = result["metrics"]
        # synth_brownian called from servo and lm_fit from estimate are
        # traced through the names those modules imported
        assert m["synth.calls"]["value"] == 3
        assert m["servo.steps"]["value"] > 0
        assert m["fitting.lm_fit.calls"]["value"] >= 1
        assert m["estimate.transfer.records"]["value"] > 0
        assert report["layers"]["trace.accounted_frac"] == pytest.approx(1, abs=0.03)
    else:
        assert report["stats"]["wall_s"]["n"] == run.MIN_PASSES
        assert result["metrics"]["out_mb"]["value"] > 0

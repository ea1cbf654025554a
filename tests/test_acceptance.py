"""Acceptance suite: every headline requirement, one test per criterion.

Each test prints a PASS/FAIL line (visible with pytest -s) before asserting,
so a red run still reports which criterion broke and by how much.
"""

import math

import numpy as np
import pytest

import optomech as om
from optomech.constants import BOLTZMANN, PLANCK
from optomech.estimate import bin_log_mean
from optomech.io import read_whole

from oracles import integrate_psd, rk4_chain_amplitudes

DESIGN_OUTER = om.MechMode(f0=2.5e3, q=1e5, m_eff=1e-7, temp=300.0)
DESIGN_INNER = om.MechMode(f0=250e3, q=418000.0, m_eff=5e-11, temp=300.0)
REF_CAVITY = om.Cavity(length=0.05, wavelength=1.064e-6, finesse=181000.0)


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{tag}] {desc}" + (f" ({detail})" if detail else ""))
    return ok


def _log_grid(fmin, fmax, ppd=25):
    lo = math.ceil(math.log10(fmin) * ppd)
    hi = math.floor(math.log10(fmax) * ppd)
    return [10 ** (k / ppd) for k in range(lo, hi + 1)]


def test_criterion_1_isolation_design_point():
    iso = om.isolation_db(2 * np.pi * 250e3, DESIGN_OUTER)
    ok = abs(iso - 80.0) <= 0.1
    assert _report(1, "isolation at 250 kHz = 80.0 +/- 0.1 dB", ok,
                   f"got {iso:.3f} dB")


def test_criterion_2_slope_law():
    slopes = {}
    for q in (1e3, 1e5, 1e6):
        mode = om.MechMode(2.5e3, q, 1e-7, 300.0)
        f = np.logspace(4, 5, 21)
        slopes[q] = np.polyfit(np.log10(f),
                               om.isolation_db(2 * np.pi * f, mode), 1)[0]
    slope = slopes[1e5]
    spread = max(slopes.values()) - min(slopes.values())
    ok = abs(slope - 40.0) <= 0.5 and spread < 0.1
    assert _report(2, "isolation slope 40 +/- 0.5 dB/decade, Q-independent",
                   ok, f"slope {slope:.3f}, spread over Q {spread:.2e} dB")


def test_criterion_3_cavity_numbers():
    lw = om.linewidth(REF_CAVITY)
    tau = om.ringdown_tau(REF_CAVITY)
    r_lo = om.sideband_ratio(236e3, REF_CAVITY)
    r_hi = om.sideband_ratio(250e3, REF_CAVITY)
    ok = (abs(lw - 17e3) / 17e3 <= 0.05
          and abs(tau - 9.61e-6) / 9.61e-6 <= 0.01
          and 14.0 <= r_lo and r_hi <= 15.2)
    assert _report(3, "linewidth ~17 kHz, tau 9.61 us, sideband ratio 14-15.2",
                   ok, f"lw={lw:.0f} Hz tau={tau * 1e6:.3f} us "
                       f"ratio=[{r_lo:.2f},{r_hi:.2f}]")


def test_criterion_4_cooling_floor():
    f_m = 14.2 * om.linewidth(REF_CAVITY)
    n_min = om.min_phonons(f_m, REF_CAVITY)
    ok = 2.7e-4 <= n_min <= 3.6e-4
    assert _report(4, "min phonons at sideband ratio 14.2 in [2.7e-4, 3.6e-4]",
                   ok, f"n_min={n_min:.3e}")


def test_criterion_5_fq_threshold():
    threshold = BOLTZMANN * 4.0 / PLANCK
    feasible, margin = om.ground_state_feasible(1.1e11 / 418000.0, 418000.0,
                                                4.0)
    ok = (abs(threshold - 8.33e10) / 8.33e10 <= 1e-3
          and feasible and abs(margin - 1.32) <= 0.01)
    assert _report(5, "fQ threshold at 4 K = 8.33e10 Hz, 1.1e11 Hz passes",
                   ok, f"threshold={threshold:.4e} margin={margin:.3f}")


def test_criterion_6_q_round_trip_and_coverage():
    f0 = 250e3
    table_qs = [425000.0, 80000.0, 33000.0, 418000.0, 427000.0, 481000.0,
                462000.0, 457000.0]
    worst = 0.0
    for q in table_qs:
        mode = om.MechMode(f0, q, 5e-11, 300.0)
        floor = 1e-3 * om.thermal_psd(f0, mode)
        ts = om.synth_brownian(mode, 400.0, 1800.0, seed=int(q) % 1000 + 7,
                               noise_floor=floor, center_freq=f0)
        fwhm = f0 / q
        hint = (f0 - 30 * fwhm, f0 + 30 * fwhm)
        fit = om.fit_lorentzian(om.welch_psd(ts, 8192), hint)
        worst = max(worst, abs(fit.params["q"] / q - 1.0))

    q = 418000.0
    mode = om.MechMode(f0, q, 5e-11, 300.0)
    floor = 1e-3 * om.thermal_psd(f0, mode)
    fwhm = f0 / q
    hint = (f0 - 30 * fwhm, f0 + 30 * fwhm)
    covered = 0
    for seed in range(100):
        ts = om.synth_brownian(mode, 400.0, 1800.0, seed=seed,
                               noise_floor=floor, center_freq=f0)
        fit = om.fit_lorentzian(om.welch_psd(ts, 8192), hint)
        covered += abs(fit.params["q"] - q) <= 2 * fit.sigmas["q"]

    ok = worst <= 0.05 and covered >= 90
    assert _report(6, "all table Q values recovered within 5%, "
                      "2-sigma coverage >= 90/100", ok,
                   f"worst error {100 * worst:.2f}%, coverage {covered}/100")


def test_criterion_7_ringdown_round_trips():
    ts = om.synth_optical_ringdown(REF_CAVITY, 5e6, 1e-4, snr=100.0, seed=4)
    ofit = om.fit_exp_decay(ts, cavity_length=REF_CAVITY.length)
    f_err = abs(ofit.params["finesse"] / REF_CAVITY.finesse - 1.0)

    outer = om.MechMode(2.5e3, 700000.0, 1e-7, 300.0)
    rec = om.synth_mech_ringdown(outer, 25e3, 120.0, 1e-9, seed=9, snr=50.0)
    mfit = om.fit_exp_decay(om.demodulate_envelope(rec, outer.f0),
                            f0=outer.f0)
    q_err = abs(mfit.params["q"] / outer.q - 1.0)

    ok = f_err <= 0.02 and q_err <= 0.10
    assert _report(7, "finesse 181k within 2% at snr=100; mech Q=700k "
                      "within 10%", ok,
                   f"finesse err {100 * f_err:.2f}%, Q err {100 * q_err:.2f}%")


def test_criterion_8_transfer_pipeline():
    nested = om.NestedModel(outer=DESIGN_OUTER, inner=DESIGN_INNER)
    mass_ratio = 5e-4
    bpd = 5
    dc_cut = DESIGN_OUTER.f0 / 3.0

    # single-resonator sweep: flat at 0 dB below resonance
    freqs_s = _log_grid(60.0, 50119.0)
    recs = om.synth_drive_sweep(DESIGN_INNER, freqs_s, 1e-12, 200, seed=12,
                                response_noise_rms=1e-17)
    est_s = om.estimate_transfer(recs, bpd, dc_cutoff_hz=dc_cut)
    single_max = float(np.max(np.abs(est_s.magnitude_db)))

    # nested sweep vs the independently supplied single-stage theory overlay
    freqs_n = _log_grid(60.0, 95500.0)
    recs = om.synth_drive_sweep(nested, freqs_n, 1e-12, 200, seed=11,
                                mass_ratio=mass_ratio,
                                response_noise_rms=1e-17)
    est_n = om.estimate_transfer(recs, bpd, dc_cutoff_hz=dc_cut)
    theory = 10 * np.log10(om.transfer_power(2 * np.pi * np.array(freqs_n),
                                             DESIGN_OUTER))
    _, theory_db, _, _ = bin_log_mean(np.array(freqs_n), theory, bpd,
                                      dc_cut)
    centers = est_n.bin_centers
    res_lo = 10 ** (math.floor(math.log10(DESIGN_OUTER.f0) * bpd) / bpd)
    in_res_bin = (centers >= res_lo) & (centers < res_lo * 10 ** (1 / bpd))
    in_range = (centers >= 1e3) & (centers <= 1e5)
    dev = np.abs(est_n.magnitude_db - theory_db)
    nested_max = float(np.max(dev[in_range & ~in_res_bin]))
    # normalisation: the reference window averages to zero by construction
    # and the bins well below resonance (where the response is truly flat)
    # must individually sit at zero height
    ref_mean = float(np.mean(est_n.magnitude_db[centers < dc_cut]))
    dc_max = float(np.max(np.abs(
        est_n.magnitude_db[centers < DESIGN_OUTER.f0 / 10.0])))

    ok = (single_max <= 1.0 and nested_max <= 1.0
          and abs(ref_mean) <= 1e-9 and dc_max <= 0.25)
    assert _report(8, "single trace flat 0+/-1 dB; nested matches theory "
                      "within 1 dB over 1-100 kHz; DC bins at zero", ok,
                   f"single max {single_max:.3f} dB, nested max "
                   f"{nested_max:.3f} dB, DC {dc_max:.3f} dB")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_9_oracle_equivalence():
    # chain transfer vs fixed-step time-domain integration, 20 frequencies
    outer = om.MechMode(100.0, 8.0, 1.0, 300.0)
    inner = om.MechMode(400.0, 12.0, 0.1, 300.0)
    model = om.NestedModel(outer=outer, inner=inner)
    freqs = np.logspace(np.log10(outer.f0 / 10), np.log10(2 * inner.f0), 20)
    amp = rk4_chain_amplitudes(outer, inner, 0.1, freqs)
    pred = np.sqrt(om.chain_transfer(2 * np.pi * freqs, model, 0.1))
    chain_err = float(np.max(np.abs(amp / pred - 1.0)))

    # thermal PSD integrates to the equipartition mean square
    mode = om.MechMode(1e3, 50.0, 1e-9, 300.0)
    rms2 = om.thermal_rms(mode) ** 2
    ratio = integrate_psd(
        lambda u: om.thermal_psd(u * mode.f0, mode) * mode.f0 / rms2, 1.0)
    psd_err = abs(ratio - 1.0)

    # Welch Parseval on a stationary record
    ts = om.synth_brownian(mode, 8192.0, 32.0, seed=6, noise_floor=1e-24)
    spec = om.welch_psd(ts, 4096)
    parseval = float(np.sum(spec.psd) * spec.resolution
                     / np.mean(read_whole(ts).values ** 2))
    parseval_err = abs(parseval - 1.0)

    ok = chain_err <= 1e-3 and psd_err <= 5e-3 and parseval_err <= 0.02
    assert _report(9, "ODE oracle 0.1%; PSD integral 0.5%; Parseval 2%", ok,
                   f"chain {chain_err:.2e}, integral {psd_err:.2e}, "
                   f"parseval {parseval_err:.2e}")


def test_criterion_10_lock_linearisation_and_cooling():
    outer = om.MechMode(2.5e3, 30.0, 1e-6, 300.0)
    model = om.NestedModel(outer=outer, inner=DESIGN_INNER)
    lw = om.linewidth(REF_CAVITY)
    cfg = om.LockConfig(kp=0.0, ki=1.28e-5, kd=0.0, actuator_range=1e-9,
                        loop_rate=10e6,
                        detuning_bias=-lw / (2 * math.sqrt(3)))
    res = om.simulate_lock(model, REF_CAVITY, cfg, 0.02, seed=23)

    cool = om.CoolingConfig(g0=2 * np.pi * 5.0, n_cav=1e8,
                            detuning=-REF_CAVITY.kappa / 2,
                            kappa=REF_CAVITY.kappa)
    g_opt = om.optical_damping_rate(cool, outer.omega0)
    t_eff = om.effective_temperature(outer, g_opt)

    ok = (res.lock_acquired
          and res.open_loop_detuning_rms > lw / 2
          and res.closed_loop_detuning_rms < lw / 20
          and t_eff < outer.temp)
    assert _report(10, "lock suppresses excursion below linewidth/20; "
                       "red-detuned bias cools", ok,
                   f"open {res.open_loop_detuning_rms:.0f} Hz, closed "
                   f"{res.closed_loop_detuning_rms:.0f} Hz, lw/20 "
                   f"{lw / 20:.0f} Hz, T_eff {t_eff:.1f} K")

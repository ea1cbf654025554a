import numpy as np
import pytest
from scipy import signal as sp_signal
from scipy.optimize import curve_fit

from optomech import (DriveRecord, EstimationError, MechMode, Spectrum,
                      TimeSeries, detect_onset, estimate_transfer,
                      fit_exp_decay, fit_lorentzian, synth_brownian,
                      synth_drive_sweep, thermal_psd, transfer_power,
                      welch_psd)
from optomech.estimate import bin_log_mean
from optomech.estimate import (_WINDOWS, _aliased_lorentzian_model,
                               _initial_lorentzian_guess, _lorentzian_model,
                               _rotations)
from optomech.fitting import lm_fit
from oracles import per_record_transfer, whole_array_welch


def _sine_series(fs=10000.0, n=2 ** 16, amp=1e-12, f0=1250.0):
    t = np.arange(n) / fs
    return TimeSeries(fs, 0.0, amp * np.sin(2 * np.pi * f0 * t))


class TestWelchPsd:
    def test_sine_integrates_to_half_amplitude_squared(self):
        amp = 1e-12
        ts = _sine_series(amp=amp)
        spec = welch_psd(ts, 4096)
        band = np.abs(spec.freqs - 1250.0) < 10 * spec.resolution
        integral = np.sum(spec.psd[band]) * spec.resolution
        assert integral == pytest.approx(amp ** 2 / 2, rel=0.01)

    def test_white_noise_density(self):
        fs, n, sig = 10000.0, 2 ** 17, 2.3e-9
        rng = np.random.default_rng(5)
        ts = TimeSeries(fs, 0.0, sig * rng.standard_normal(n))
        spec = welch_psd(ts, 512)
        assert spec.n_avg >= 100
        assert np.mean(spec.psd[1:-1]) == pytest.approx(sig ** 2 / (fs / 2),
                                                        rel=0.05)

    def test_parseval(self):
        fs, n = 10000.0, 2 ** 16
        rng = np.random.default_rng(6)
        t = np.arange(n) / fs
        x = (2e-9 * rng.standard_normal(n)
             + 3e-9 * np.sin(2 * np.pi * 777.0 * t))
        spec = welch_psd(TimeSeries(fs, 0.0, x), 4096)
        assert np.sum(spec.psd) * spec.resolution == pytest.approx(
            np.mean(x ** 2), rel=0.02)

    def test_matches_reference_implementation(self):
        ts = _sine_series()
        rng = np.random.default_rng(0)
        x = ts.values + 1e-13 * rng.standard_normal(ts.n)
        ours = welch_psd(TimeSeries(ts.sample_rate, 0.0, x), 4096)
        f_ref, p_ref = sp_signal.welch(x, fs=ts.sample_rate, window="hann",
                                       nperseg=4096, noverlap=2048,
                                       detrend=False)
        assert np.allclose(ours.freqs, f_ref)
        assert np.max(np.abs(ours.psd - p_ref)) < 1e-12 * p_ref.max()

    def test_round_trip_peak_location(self):
        m = MechMode(1e3, 50.0, 1e-9, 300.0)
        ts = synth_brownian(m, 8192.0, 16.0, seed=3)
        spec = welch_psd(ts, 2048)
        f_pk = spec.freqs[np.argmax(spec.psd)]
        assert abs(f_pk - m.f0) <= spec.resolution

    def test_default_segment_gives_at_least_8_averages(self):
        ts = _sine_series(n=2 ** 14)
        spec = welch_psd(ts)
        assert spec.n_avg >= 8

    def test_boxcar_has_no_variance_inflation(self):
        ts = _sine_series(n=2 ** 14)
        spec = welch_psd(ts, 1024, overlap_frac=0.0, window="boxcar")
        assert spec.var_inflation == pytest.approx(1.0, rel=1e-12)
        hann = welch_psd(ts, 1024, overlap_frac=0.5, window="hann")
        assert hann.var_inflation == pytest.approx(35.0 / 18.0 * 1.0, rel=0.3)
        assert hann.var_inflation > 1.5

    @pytest.mark.parametrize("window", sorted(_WINDOWS))
    @pytest.mark.parametrize("overlap_frac", [0.0, 0.5])
    @pytest.mark.parametrize("segment_len", [256, 255])
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_same_bits_as_whole_array_segments(self, is_complex, segment_len,
                                               overlap_frac, window):
        rng = np.random.default_rng(segment_len)
        x = 1e-9 * rng.standard_normal(4000)
        if is_complex:
            x = x + 1e-9j * rng.standard_normal(x.size)
        ts = TimeSeries(1e4, 0.0, x, center_freq=2e4 if is_complex else 0.0)
        spec = welch_psd(ts, segment_len, overlap_frac, window)
        freqs, psd = whole_array_welch(ts, segment_len, overlap_frac, window)
        assert spec.psd.tobytes() == psd.tobytes()
        assert spec.freqs.tobytes() == freqs.tobytes()

    def test_errors(self):
        ts = _sine_series(n=1024)
        with pytest.raises(ValueError):
            welch_psd(ts, 2048)
        with pytest.raises(ValueError):
            welch_psd(ts, 256, overlap_frac=0.95)
        with pytest.raises(ValueError):
            welch_psd(ts, 256, window="kaiser9000")
        bad = TimeSeries(1e3, 0.0, np.ones(64))
        bad.values[3] = np.inf
        with pytest.raises(ValueError):
            welch_psd(bad, 32)


def _analytic_lorentzian_spectrum(f0=250e3, q=418000.0, amp=3e-23,
                                  offset=1e-26, span_fwhm=40.0, n=4001):
    fwhm = f0 / q
    f = np.linspace(f0 - span_fwhm * fwhm, f0 + span_fwhm * fwhm, n)
    y = amp * (fwhm / 2) ** 2 / ((f - f0) ** 2 + (fwhm / 2) ** 2) + offset
    return Spectrum(f, y, 10, f[1] - f[0])


class TestFitLorentzian:
    def test_noiseless_recovery_is_exact(self):
        spec = _analytic_lorentzian_spectrum()
        fit = fit_lorentzian(spec)
        assert fit.converged
        assert fit.params["f0_hz"] == pytest.approx(250e3, rel=1e-6)
        assert fit.params["q"] == pytest.approx(418000.0, rel=1e-6)
        assert fit.params["fwhm_hz"] == pytest.approx(250e3 / 418000.0,
                                                      rel=1e-6)

    def test_scale_equivariance(self):
        spec = _analytic_lorentzian_spectrum()
        a = 10 ** 6.5
        scaled = Spectrum(spec.freqs, spec.psd * a, spec.n_avg,
                          spec.resolution)
        f1 = fit_lorentzian(spec)
        f2 = fit_lorentzian(scaled)
        for key in ("f0_hz", "fwhm_hz", "q"):
            assert f2.params[key] == pytest.approx(f1.params[key], rel=1e-9)
        assert f2.params["amplitude"] == pytest.approx(
            f1.params["amplitude"] * a, rel=1e-9)
        assert f2.params["offset"] == pytest.approx(
            f1.params["offset"] * a, rel=1e-9)

    def test_synthetic_brownian_round_trip(self):
        q = 418000.0
        m = MechMode(250e3, q, 5e-11, 300.0)
        pk = thermal_psd(m.f0, m)
        ts = synth_brownian(m, 400.0, 1800.0, seed=14, noise_floor=1e-3 * pk,
                            center_freq=m.f0)
        spec = welch_psd(ts, 8192)
        fwhm = m.f0 / q
        fit = fit_lorentzian(spec, (m.f0 - 30 * fwhm, m.f0 + 30 * fwhm))
        assert fit.converged
        assert fit.params["q"] == pytest.approx(q, rel=0.05)
        assert abs(fit.params["q"] - q) <= 2.5 * fit.sigmas["q"]

    def test_thirty_second_record_consistent_within_sigma(self):
        # a 30 s record of a 0.6 Hz line carries limited information: the
        # estimate must still be consistent with the truth at 3 sigma
        q = 418000.0
        m = MechMode(250e3, q, 5e-11, 300.0)
        pk = thermal_psd(m.f0, m)
        ts = synth_brownian(m, 400.0, 30.0, seed=7, noise_floor=1e-3 * pk,
                            center_freq=m.f0)
        fwhm = m.f0 / q
        fit = fit_lorentzian(welch_psd(ts, 2048),
                             (m.f0 - 30 * fwhm, m.f0 + 30 * fwhm))
        assert abs(fit.params["q"] - q) <= 3 * fit.sigmas["q"]

    def test_matches_reference_optimizer(self):
        # lm_fit with unit sigma is a plain least squares, as curve_fit's
        m = MechMode(2e3, 200.0, 1e-9, 300.0)
        ts = synth_brownian(m, 16384.0, 120.0, seed=21,
                            noise_floor=1e-4 * thermal_psd(m.f0, m))
        spec = welch_psd(ts, 8192)
        mask = np.abs(spec.freqs - m.f0) <= 300.0
        f, y = spec.freqs[mask], spec.psd[mask]
        f0_0, fwhm0, amp0, offset0 = _initial_lorentzian_guess(f, y)
        u = (f - f0_0) / fwhm0
        work = np.empty((8, u.size))
        res = lm_fit(lambda p: _lorentzian_model(u, p, work),
                     [0.0, 1.0, 1.0, offset0 / amp0], y / amp0,
                     np.ones_like(u))
        assert res.converged

        def model(f, amp, f0, fwhm, off):
            return amp * (fwhm / 2) ** 2 / ((f - f0) ** 2 + (fwhm / 2) ** 2) + off

        p0 = (y.max(), m.f0, 10.0, 0.0)
        popt, _ = curve_fit(model, f, y, p0=p0)
        assert f0_0 + res.params[0] * fwhm0 == pytest.approx(popt[1],
                                                             rel=1e-6)
        assert abs(res.params[1]) * fwhm0 == pytest.approx(abs(popt[2]),
                                                           rel=1e-4)

    def test_aliased_model_sums_the_images(self):
        # the closed form against 2 * 10**5 + 1 images summed directly, and
        # against the plain Lorentzian for a band 10**6 times wider
        u = np.linspace(-3.0, 3.0, 61)
        p = np.array([0.2, 0.8, 1.5, 0.1])
        work = np.empty((7, u.size))
        h = 0.25                                 # images every 4 pi in u
        k = np.arange(-100_000, 100_001) * (np.pi / h)
        direct = np.array([1.5 * np.sum(0.16 / ((x - 0.2 - k) ** 2 + 0.16))
                           for x in u]) + 0.1
        m, _ = _aliased_lorentzian_model(_rotations(u, h), p, work, h)
        np.testing.assert_allclose(m, direct, rtol=1e-6)
        near = _aliased_lorentzian_model(_rotations(u, h * 1e-6), p, work,
                                         h * 1e-6)[0].copy()
        np.testing.assert_allclose(
            near, _lorentzian_model(u, p, np.empty((8, u.size)))[0],
            rtol=1e-11)

    def test_aliased_model_jacobian_is_the_derivative(self):
        u = np.linspace(-6.0, 6.0, 101)
        p = np.array([0.3, 1.1, 0.9, 0.05])
        work = np.empty((7, u.size))
        h = 0.4
        rot = _rotations(u, h)
        jac = _aliased_lorentzian_model(rot, p, work, h)[1]().copy()
        for i in range(4):
            step = np.zeros(4)
            step[i] = 1e-6
            hi = _aliased_lorentzian_model(rot, p + step, work, h)[0].copy()
            lo = _aliased_lorentzian_model(rot, p - step, work, h)[0]
            np.testing.assert_allclose((hi - lo) / 2e-6, jac[i], rtol=1e-6,
                                       atol=1e-8)

    def test_noiseless_aliased_recovery_is_exact(self):
        # a 10 Hz line across the whole of its 400 Hz band, the images of
        # its wings summed in: the fit of an envelope spectrum reads the
        # line itself, where a plain Lorentzian reads it 4% narrow
        f0, fwhm, fs = 2e3, 10.0, 400.0
        f = f0 + (np.arange(512) - 256) * fs / 512
        a = np.pi * fwhm / fs
        y = 1e-20 * np.sinh(a) / (np.cosh(a) - np.cos(2 * np.pi * (f - f0) / fs))
        y += 1e-24
        spec = Spectrum(f, y, 10, f[1] - f[0], envelope_rate=fs)
        fit = fit_lorentzian(spec)
        assert fit.converged
        assert fit.params["f0_hz"] == pytest.approx(f0, rel=1e-9)
        assert fit.params["fwhm_hz"] == pytest.approx(fwhm, rel=1e-6)
        assert fit.params["offset"] == pytest.approx(1e-24, rel=1e-4)
        plain = fit_lorentzian(Spectrum(f, y, 10, f[1] - f[0]))
        assert plain.params["q"] > 1.03 * fit.params["q"]

    def test_no_peak_raises(self):
        rng = np.random.default_rng(3)
        f = np.linspace(100.0, 200.0, 512)
        flat = 1e-20 * (1.0 + 0.05 * rng.standard_normal(512))
        with pytest.raises(EstimationError):
            fit_lorentzian(Spectrum(f, flat, 64, f[1] - f[0]))

    def test_resolution_flag(self):
        spec = _analytic_lorentzian_spectrum(span_fwhm=40.0, n=101)
        fit = fit_lorentzian(spec)
        assert "resolution_exceeds_fwhm_over_5" in fit.warnings

    def test_window_hint_restricts_bins(self):
        spec = _analytic_lorentzian_spectrum()
        with pytest.raises(EstimationError):
            fit_lorentzian(spec, (0.0, 1.0))   # empty window


class TestFitExpDecay:
    def test_noiseless_exact(self):
        fs, tau = 5e6, 9.61e-6
        t = np.arange(int(1e-4 * fs)) / fs
        ts = TimeSeries(fs, 0.0, 0.37 * np.exp(-t / tau) + 0.01)
        fit = fit_exp_decay(ts)
        assert fit.converged
        assert fit.params["tau_s"] == pytest.approx(tau, rel=1e-9)
        assert fit.params["amplitude"] == pytest.approx(0.37, rel=1e-9)
        assert fit.params["offset"] == pytest.approx(0.01, rel=1e-7)

    def test_finesse_and_q_attachments(self):
        fs, tau = 5e6, 9.61e-6
        t = np.arange(int(1e-4 * fs)) / fs
        ts = TimeSeries(fs, 0.0, np.exp(-t / tau))
        f1 = fit_exp_decay(ts, cavity_length=0.05)
        from optomech.constants import SPEED_OF_LIGHT
        assert f1.params["finesse"] == pytest.approx(
            np.pi * SPEED_OF_LIGHT * tau / 0.05, rel=1e-9)
        f2 = fit_exp_decay(ts, f0=2.5e3)
        assert f2.params["q"] == pytest.approx(np.pi * 2.5e3 * tau, rel=1e-9)

    def test_rising_record_rejected(self):
        t = np.arange(1000) / 1e3
        ts = TimeSeries(1e3, 0.0, 1.0 - np.exp(-t / 0.2))
        with pytest.raises(EstimationError):
            fit_exp_decay(ts)

    def test_flat_record_is_a_fit_error(self):
        # no decay to fit: not a fit of any tau with a sigma of 0
        ts = TimeSeries(1e3, 0.0, np.full(500, 2.5))
        with pytest.raises(EstimationError, match="record is flat"):
            fit_exp_decay(ts)

    def test_tau_longer_than_record_flags_nonconverged(self):
        fs = 1e3
        t = np.arange(500) / fs
        tau = 5 * t[-1]
        rng = np.random.default_rng(2)
        ts = TimeSeries(fs, 0.0, np.exp(-t / tau)
                        + 1e-4 * rng.standard_normal(t.size))
        fit = fit_exp_decay(ts)
        assert not fit.converged
        assert "tau_exceeds_record_length" in fit.warnings
        assert fit.params["tau_s"] > t[-1]

    def test_scale_equivariance(self):
        fs = 1e4
        t = np.arange(2000) / fs
        rng = np.random.default_rng(8)
        y = 2.0 * np.exp(-t / 0.05) + 0.1 + 0.01 * rng.standard_normal(t.size)
        f1 = fit_exp_decay(TimeSeries(fs, 0.0, y))
        f2 = fit_exp_decay(TimeSeries(fs, 0.0, 1e8 * y))
        assert f2.params["tau_s"] == pytest.approx(f1.params["tau_s"],
                                                   rel=1e-9)
        assert f2.params["amplitude"] == pytest.approx(
            1e8 * f1.params["amplitude"], rel=1e-9)

    def test_onset_detection_trims_pretrigger(self):
        fs, tau = 1e6, 1e-4
        n_flat = 600
        t = np.arange(4000) / fs
        y = np.concatenate([np.ones(n_flat), np.exp(-t / tau)])
        ts = TimeSeries(fs, 0.0, y)
        trimmed = detect_onset(ts)
        assert ts.n - trimmed.n >= n_flat - 5
        fit = fit_exp_decay(trimmed)
        assert fit.params["tau_s"] == pytest.approx(tau, rel=0.01)

    def test_onset_detection_rejects_a_complex_record(self):
        # a cast to float would drop the imaginary part without a word
        ts = TimeSeries(1e6, 0.0, np.exp(-np.arange(4000) / 100.0) + 1j)
        with pytest.raises(ValueError, match="needs a real record"):
            detect_onset(ts)


class TestEstimateTransfer:
    def test_identical_series_gives_exact_zero(self):
        fs = 32 * 1e3
        t = np.arange(3200) / fs
        base = TimeSeries(fs, 0.0, 1e-12 * np.sin(2 * np.pi * 1e3 * t))
        recs = [DriveRecord(1e3, base, base)]
        est = estimate_transfer(recs, 5)
        assert np.all(est.magnitude_db == 0.0)

    def test_known_ratio_and_dc_normalisation(self):
        fs_of = lambda f: 32 * f
        recs = []
        for f, gain_db in [(100.0, 3.0), (130.0, 3.0), (5000.0, -17.0)]:
            fs = fs_of(f)
            t = np.arange(int(fs)) / fs
            x = 1e-12 * np.sin(2 * np.pi * f * t)
            recs.append(DriveRecord(f, TimeSeries(fs, 0.0, x),
                                    TimeSeries(fs, 0.0, 10 ** (gain_db / 20) * x)))
        est = estimate_transfer(recs, 5, dc_cutoff_hz=200.0)
        assert est.dc_reference == pytest.approx(3.0, abs=1e-6)
        assert est.magnitude_db[0] == pytest.approx(0.0, abs=1e-6)
        assert est.magnitude_db[-1] == pytest.approx(-20.0, abs=1e-6)

    def test_missing_drive_tone_excluded_and_counted(self):
        fs = 32000.0
        t = np.arange(32000) / fs
        rng = np.random.default_rng(0)
        tone = TimeSeries(fs, 0.0, 1e-12 * np.sin(2 * np.pi * 1000.0 * t))
        noise = TimeSeries(fs, 0.0, 1e-12 * rng.standard_normal(t.size))
        est = estimate_transfer([DriveRecord(1000.0, tone, tone),
                                 DriveRecord(1000.0, noise, tone)], 5)
        assert est.n_excluded == 1
        assert est.n_records == 2
        with pytest.raises(EstimationError):
            estimate_transfer([DriveRecord(1000.0, noise, tone)], 5)

    def test_reproduces_isolation_curve(self):
        outer = MechMode(2.5e3, 1e5, 1e-7, 300.0)
        freqs = list(np.logspace(np.log10(300.0), np.log10(40e3), 18))
        recs = synth_drive_sweep(outer, freqs, 1e-12, 100, seed=4,
                                 response_noise_rms=1e-16)
        est = estimate_transfer(recs, 5, dc_cutoff_hz=outer.f0 / 3.0)
        theory = 10 * np.log10(transfer_power(2 * np.pi * np.array(freqs),
                                              outer))
        _, th_binned, _, _ = bin_log_mean(np.array(freqs), theory, 5,
                                          outer.f0 / 3.0)
        res_bin = (est.bin_centers > 2.5e3 / 10 ** 0.2) & \
                  (est.bin_centers < 2.5e3 * 10 ** 0.2)
        dev = np.abs(est.magnitude_db - th_binned)[~res_bin]
        assert np.max(dev) <= 1.0

    def test_shared_phasor_matches_per_record_demodulation(self):
        outer = MechMode(2.5e3, 1e5, 1e-7, 300.0)
        freqs = list(np.logspace(np.log10(300.0), np.log10(40e3), 18))
        recs = synth_drive_sweep(outer, freqs, 1e-12, 100, seed=5,
                                 base_noise_rms=1e-15,
                                 response_noise_rms=1e-16)
        # responses whose clock starts later than their base (the tone
        # phase differs, and so do the last bits of the amplitude), and a
        # base without a drive tone
        for k in range(1, len(recs), 3):
            rec = recs[k]
            resp = rec.response_motion
            late = TimeSeries(resp.sample_rate,
                              resp.t0 + 3.3 / rec.drive_freq, resp.values,
                              resp.calibration)
            recs[k] = DriveRecord(rec.drive_freq, rec.base_motion, late)
        rec = recs[9]
        noise = np.random.default_rng(1).standard_normal(rec.base_motion.n)
        recs[9] = DriveRecord(rec.drive_freq,
                              TimeSeries(rec.base_motion.sample_rate, 0.0,
                                         1e-12 * noise),
                              rec.response_motion)
        for cutoff in (None, outer.f0 / 3.0):
            got = estimate_transfer(recs, 5, cutoff)
            ref = per_record_transfer(recs, 5, cutoff)
            for name in ("bin_centers", "magnitude_db", "errbar_db"):
                assert (getattr(got, name).tobytes()
                        == getattr(ref, name).tobytes()), name
            assert got.dc_reference == ref.dc_reference
            assert (got.n_records, got.n_excluded) == (18, 1)
            assert (ref.n_records, ref.n_excluded) == (18, 1)

    def test_demod_accuracy(self):
        # each record's tone amplitude is calibrated: 2.5e-12 units at 2 m
        # per unit drive a response of 2.5e-12 m, half of it
        fs, f = 44000.0, 997.0
        t = np.arange(44000) / fs
        x = 2.5e-12 * np.sin(2 * np.pi * f * t + 0.3)
        est = estimate_transfer([DriveRecord(
            f, TimeSeries(fs, 0.0, x, calibration=2.0),
            TimeSeries(fs, 0.0, x))], 5)
        assert est.n_excluded == 0
        assert est.magnitude_db[0] == pytest.approx(20 * np.log10(0.5),
                                                    abs=1e-3)


class TestSpectrumType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1, 1.0)
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0]), np.array([1.0, -1.0]), 1, 1.0)
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 0, 1.0)

import contextlib
import tracemalloc

import numpy as np
import pytest

from optomech import (Cavity, DriveRecord, MechMode, NestedModel, TimeSeries,
                      chain_transfer, demodulate_envelope, fit_exp_decay,
                      synth_brownian, synth_drive_sweep, synth_mech_ringdown,
                      synth_optical_ringdown, thermal_psd, thermal_rms,
                      transfer_power, welch_psd)
from optomech import io as _io
from optomech import synth as _synth
from oracles import (full_array_demodulate, full_array_mech_ringdown,
                     sequential_baseband_brownian,
                     sequential_envelope_brownian, whole_array_demod)

CAV = Cavity(0.05, 1.064e-6, 181000.0)


class TestRecordMetadata:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("field", ["sample_rate", "t0", "calibration",
                                       "center_freq"])
    def test_non_finite_metadata_is_rejected(self, field, bad):
        kw = {"sample_rate": 400.0, "t0": 0.0, "calibration": 1.0,
              "center_freq": 0.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TimeSeries(values=np.zeros(4), **kw)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            _synth.BlockSeries(n=4, dtype=float, blocks=None, **kw)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
    def test_drive_frequency_must_be_finite_and_positive(self, bad):
        ts = TimeSeries(400.0, 0.0, np.zeros(4))
        with pytest.raises(ValueError, match="drive_freq must be finite"):
            DriveRecord(bad, ts, ts)


class TestBrownian:
    def test_same_seed_bit_identical(self):
        m = MechMode(1e3, 50.0, 1e-9, 300.0)
        # every read of a streamed record regenerates the same bits
        for kw in ({}, {"center_freq": 250e3}):
            fs, duration = (400.0, 30.0) if kw else (8192.0, 4.0)
            a = synth_brownian(m, fs, duration, seed=7, **kw)
            b = synth_brownian(m, fs, duration, seed=7, **kw)
            assert _io.read_whole(a).values.tobytes() == \
                _io.read_whole(b).values.tobytes() == \
                _io.read_whole(a).values.tobytes()
            assert not np.array_equal(
                _io.read_whole(a).values,
                _io.read_whole(synth_brownian(m, fs, duration, seed=8,
                                              **kw)).values)

    def test_zero_temperature_zero_floor_is_silent(self):
        m = MechMode(1e3, 50.0, 1e-9, 0.0)
        ts = _io.read_whole(synth_brownian(m, 8192.0, 2.0, seed=1,
                                           noise_floor=0.0))
        assert ts.n == 16384 and np.all(ts.values == 0.0)

    def test_short_record_raises_warning_flag(self):
        m = MechMode(250e3, 418000.0, 5e-11, 300.0)
        ts = synth_brownian(m, 400.0, 2.0, seed=1, center_freq=250e3)
        assert "duration_too_short_to_resolve_linewidth" in ts.warnings
        ok = synth_brownian(m, 400.0, 30.0, seed=1, center_freq=250e3)
        assert ok.warnings == ()

    def test_baseband_needs_headroom(self):
        m = MechMode(1e3, 50.0, 1e-9, 300.0)
        with pytest.raises(ValueError):
            synth_brownian(m, 3e3, 1.0, seed=0)

    def test_envelope_band_must_be_positive(self):
        m = MechMode(100.0, 50.0, 1e-9, 300.0)
        with pytest.raises(ValueError):
            synth_brownian(m, 400.0, 10.0, seed=0, center_freq=150.0)

    @pytest.mark.parametrize("q", [0.5, 0.2])
    def test_envelope_needs_a_complex_pole(self, q):
        # Q <= 1/2 leaves the mode no oscillation to centre a band on; its
        # baseband record is still made
        m = MechMode(250e3, q, 5e-11, 300.0)
        with pytest.raises(ValueError, match=r"needs Q > 1/2, .* got Q = "):
            synth_brownian(m, 400.0, 10.0, seed=0, center_freq=m.f0)
        assert synth_brownian(m, 2e6, 1e-3, seed=0).n == 2000

    def test_psd_converges_to_target(self):
        # >= 200 averages: the mean estimate over the peak lands within 10%
        m = MechMode(1e3, 50.0, 1e-9, 300.0)
        ts = synth_brownian(m, 8192.0, 64.0, seed=11, noise_floor=0.0)
        spec = welch_psd(ts, 2048)
        assert spec.n_avg >= 200
        band = np.abs(spec.freqs - m.f0) <= m.f0 / m.q
        ratio = np.mean(spec.psd[band] / thermal_psd(spec.freqs[band], m))
        assert ratio == pytest.approx(1.0, abs=0.10)

    # envelope bands of 20 and 100 linewidths either side of the line, at
    # the same 0.78 Hz resolution: the fit sums the wings the narrow band
    # folds in (see the next test), which a plain Lorentzian reads 4% high
    @pytest.mark.parametrize("fs, segment_len", [(400.0, 512),
                                                 (2000.0, 2560)])
    def test_envelope_and_baseband_agree_on_fitted_q(self, fs, segment_len):
        from optomech import fit_lorentzian
        m = MechMode(2e3, 200.0, 1e-9, 300.0)
        pk = thermal_psd(m.f0, m)
        base = synth_brownian(m, 16384.0, 600.0, seed=42, noise_floor=1e-4 * pk)
        env = synth_brownian(m, fs, 600.0, seed=43, noise_floor=1e-4 * pk,
                             center_freq=m.f0)
        hint = (m.f0 - 300.0, m.f0 + 300.0)
        qb = fit_lorentzian(welch_psd(base, 16384), hint).params["q"]
        qe = fit_lorentzian(welch_psd(env, segment_len), hint).params["q"]
        assert qe == pytest.approx(qb, rel=0.02)

    def test_envelope_spectrum_is_the_aliased_lorentzian(self):
        # a 10 Hz line in a 400 Hz band: the sampled recursion folds the
        # line's wings beyond +-fs/2 back into the band, as any record
        # sampled without an anti-alias filter does.  Summed over all
        # images the Lorentzian is S(x) = rms**2/fs * sinh(a) / (cosh(a) -
        # cos(2*pi*x/fs)), a = gamma/(2*fs), which is 2 times thermal_psd
        # over the outer 50 Hz and 2.47 times at +-fs/2
        m = MechMode(2e3, 200.0, 1e-9, 300.0)
        fs = 400.0
        spec = welch_psd(synth_brownian(m, fs, 600.0, seed=43,
                                        center_freq=m.f0), 512)
        x = spec.freqs - m.f0
        a = m.gamma / (2.0 * fs)
        aliased = (thermal_rms(m) ** 2 / fs * np.sinh(a)
                   / (np.cosh(a) - np.cos(2.0 * np.pi * x / fs)))
        edge, near = np.abs(x) > 150.0, np.abs(x) < 10.0
        for band in (edge, near):
            assert np.mean(spec.psd[band] / aliased[band]) == pytest.approx(
                1.0, abs=0.05)
        assert np.mean(spec.psd[edge] / thermal_psd(spec.freqs[edge], m)) > 1.8

    def test_no_dc_drift(self):
        m = MechMode(1e3, 50.0, 1e-9, 300.0)
        ts = _io.read_whole(synth_brownian(m, 8192.0, 16.0, seed=2))
        assert abs(np.mean(ts.values)) < 3 * np.std(ts.values) / np.sqrt(ts.n)


# record lengths that end a chunk early, late or on its edge, span several
# chunks, or are prime
_CHUNK_EDGE_LENGTHS = [2, 3, _synth._CHUNK - 1, _synth._CHUNK + 1,
                       2 * _synth._CHUNK, 3 * _synth._CHUNK + 7, 131_101]

# the streamed recursion sums each run with one cumsum, the reference loops
# sample by sample: they agree to this fraction of the record's rms
_RECURSION_RTOL = 1e-10


def _close_to_recursion(rec, ref):
    ts = _io.read_whole(rec)
    assert ts.n == ref.n and ts.values.dtype == ref.values.dtype
    assert (ts.sample_rate, ts.t0, ts.calibration, ts.center_freq,
            ts.warnings) == (ref.sample_rate, ref.t0, ref.calibration,
                             ref.center_freq, ref.warnings)
    rms = np.sqrt(np.mean(np.abs(ref.values) ** 2))
    assert np.max(np.abs(ts.values - ref.values)) <= _RECURSION_RTOL * rms


class TestChunkedEnvelopeBrownian:
    """The streamed envelope recursion equals one sequential loop over the
    whole record, and holds a few chunks at any record length."""

    INNER = MechMode(250e3, 418000.0, 5e-11, 300.0)

    @pytest.mark.parametrize("noise_floor", [0.0, 3e-30])
    @pytest.mark.parametrize("n", _CHUNK_EDGE_LENGTHS)
    def test_matches_full_array_reference(self, n, noise_floor):
        fs = 400.0
        rec = synth_brownian(self.INNER, fs, n / fs, 17, noise_floor,
                             center_freq=self.INNER.f0)
        assert isinstance(rec, _synth.BlockSeries) and rec.n == n
        _close_to_recursion(rec, sequential_envelope_brownian(
            self.INNER, fs, n / fs, 17, noise_floor))

    # runs of one sample (Q near 1/2), of 68 samples, and of a whole chunk
    # (no decay to bound); chunks of 1000 samples cut rows short
    @pytest.mark.parametrize("chunk", [1 << 17, 1000])
    @pytest.mark.parametrize("q", [0.6, 33000.0, 1e12])
    def test_matches_reference_at_every_run_length(self, monkeypatch, q,
                                                   chunk):
        monkeypatch.setattr(_synth, "_CHUNK", chunk)
        m = MechMode(250e3, q, 5e-11, 300.0)
        n = 2 * (1 << 17) + 5
        rec = synth_brownian(m, 400.0, n / 400.0, 4, 1e-27, center_freq=m.f0)
        _close_to_recursion(rec, sequential_envelope_brownian(
            m, 400.0, n / 400.0, 4, 1e-27))

    def test_streamed_memory_is_a_few_chunks(self):
        n = 1 << 21                 # a 33.5 MB record
        tracemalloc.start()
        try:
            rec = synth_brownian(self.INNER, 400.0, n / 400.0, 0, 1e-26,
                                 center_freq=self.INNER.f0)
            with contextlib.closing(rec.blocks()) as blocks:
                total = sum(block.size for block in blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == n
        assert peak <= 4 * 16 * _synth._CHUNK


class TestEnvelopeVarianceAtEveryLength:
    """The band-centered record has the thermal mean square at every record
    length, from far shorter than the mode's 1/gamma to far longer: its
    physical signal Re[z*exp(2j*pi*fc*t)] has mean square |z|**2/2, which
    over 200 seeds matches thermal_rms**2 + noise_floor*fs within 4
    standard errors.  A record shaped in the frequency domain cannot: at
    0.01/gamma one bin near the line carries the variance."""

    FS = 400.0
    # 1/gamma = 2.5 s, 1,000 samples
    MODE = MechMode(250e3, 2.0 * np.pi * 250e3 * 2.5, 5e-11, 300.0)
    SEEDS = range(200)

    def _assert_thermal(self, gamma_t, noise_floor, part):
        """Over the seeds, the mean of |z[part]|**2/2 over thermal_rms**2 +
        noise_floor*fs is 1 within 4 standard errors."""
        m = self.MODE
        target = thermal_rms(m) ** 2 + noise_floor * self.FS
        ratios = np.array([np.mean(np.abs(_io.read_whole(synth_brownian(
            m, self.FS, gamma_t / m.gamma, seed, noise_floor,
            center_freq=m.f0)).values[part]) ** 2) / 2.0 / target
            for seed in self.SEEDS])
        se = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) <= 4.0 * se, (ratios.mean(), se)

    @pytest.mark.parametrize("noise_floor", [0.0, 1e-25])
    @pytest.mark.parametrize("gamma_t", [0.01, 1.0, 10.0])
    def test_mean_square_over_seeds(self, gamma_t, noise_floor):
        self._assert_thermal(gamma_t, noise_floor, slice(None))

    @pytest.mark.parametrize("noise_floor", [0.0, 1e-25])
    def test_first_sample_is_stationary(self, noise_floor):
        self._assert_thermal(0.01, noise_floor, slice(0, 1))


class TestChunkedBasebandBrownian:
    """The streamed baseband recursion equals one sequential loop over the
    whole record, regenerates its bits on every read, and holds a few
    chunks at any record length."""

    OUTER = MechMode(2.5e3, 1e5, 1e-7, 300.0)

    # n odd and even, just under, on and across one and two chunk edges;
    # the whole-record expression is the recursion stepped sample by sample
    @pytest.mark.parametrize("noise_floor", [0.0, 1e-26])
    @pytest.mark.parametrize("n", [
        2, 3, 2 * _synth._CHUNK - 4, 2 * _synth._CHUNK - 3,
        2 * _synth._CHUNK - 2, 2 * _synth._CHUNK - 1, 2 * _synth._CHUNK,
        2 * _synth._CHUNK + 1, 4 * _synth._CHUNK - 2, 4 * _synth._CHUNK + 7])
    def test_matches_whole_array_expression(self, n, noise_floor):
        fs = 10e6
        rec = synth_brownian(self.OUTER, fs, n / fs, 5, noise_floor)
        assert isinstance(rec, _synth.BlockSeries) and rec.n == n
        _close_to_recursion(rec, sequential_baseband_brownian(
            self.OUTER, fs, n / fs, 5, noise_floor))

    # two real poles (Q 0.2), the double pole (Q 1/2), a complex pair just
    # above it (runs of 2 samples), and runs of 68 samples and of a whole
    # chunk; chunks of 1000 samples cut rows short
    @pytest.mark.parametrize("chunk", [1 << 17, 1000])
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.6, 30.0, 1e12])
    def test_matches_reference_at_every_damping(self, monkeypatch, q, chunk):
        monkeypatch.setattr(_synth, "_CHUNK", chunk)
        m = MechMode(2.5e3, q, 1e-7, 300.0)
        n = 2 * 1000 + 5 if chunk == 1000 else 20_011
        rec = synth_brownian(m, 1e6, n / 1e6, 4, 1e-26)
        _close_to_recursion(rec, sequential_baseband_brownian(
            m, 1e6, n / 1e6, 4, 1e-26))

    @pytest.mark.parametrize("q", [0.2, 0.5, 1e5])
    def test_every_read_regenerates_the_same_bits(self, monkeypatch, q):
        monkeypatch.setattr(_synth, "_CHUNK", 1000)
        m = MechMode(2.5e3, q, 1e-7, 300.0)
        rec = synth_brownian(m, 1e6, 0.0031, 8, 1e-26)
        first, second = (b"".join(block.tobytes() for block in rec.blocks())
                         for _ in range(2))
        assert len(first) == 8 * rec.n == 8 * 3100
        assert first == second
        again = synth_brownian(m, 1e6, 0.0031, 8, 1e-26)
        assert _io.read_whole(again).values.tobytes() == first

    def test_streamed_memory_is_a_few_chunks(self):
        n = 1 << 21                 # a 16.8 MB record
        tracemalloc.start()
        try:
            rec = synth_brownian(self.OUTER, 10e6, n / 10e6, 5, 1e-26)
            with contextlib.closing(rec.blocks()) as blocks:
                total = sum(block.size for block in blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == n
        # in chunks of 8 bytes a sample: the tables mu**k and mu**-k (two
        # complex each, at this Q one run is a whole chunk), the drive pairs
        # (two), x and the floor (one each) and the drive's cross term
        # (one), 9 in all; the record is 16
        assert peak <= 11 * 8 * _synth._CHUNK

    @pytest.mark.parametrize("q, fs", [(30.0, 1e6), (0.6, 1e5), (0.2, 1e5),
                                       (0.5, 1e5)])
    def test_coefficients_are_the_exact_discretisation(self, q, fs):
        # A = expm(M*dt) and the drive covariance Sigma - A Sigma A^T, by
        # scipy, against the lanes' poles and drive laws: x = w0*lane0 +
        # w1*lane1 must step with A's (x, v) row and have w's variance.
        # At Q = 1/2 the lanes are (u, x), u = v + omega0*x
        from scipy.linalg import expm
        m = MechMode(2.5e3, q, 1e-7, 300.0)
        dt, w0, rms = 1.0 / fs, m.omega0, thermal_rms(m)
        a_mat = expm(np.array([[0.0, 1.0], [-w0 ** 2, -m.gamma]]) * dt)
        sigma = np.diag([rms ** 2, (w0 * rms) ** 2])
        noise = sigma - a_mat @ sigma @ a_mat.T
        p_dts, first, step, coupling, w = _synth._baseband_recursion(m, fs)

        def law(abc):   # covariance of the drive pair (a*xi0, c*xi1 + b*xi0)
            a, b, c = abc
            return np.array([[a * a, a * b], [a * b, b * b + c * c]])

        if len(p_dts) == 1:     # (Re y, Im y); x = 2 Re y, v = 2 Re(lambda y)
            lam = p_dts[0] / dt
            to_xv = 2.0 * np.array([[1.0, 0.0], [lam.real, -lam.imag]])
        elif coupling:          # (u, x): x, and v = u - omega0*x
            to_xv = np.array([[0.0, 1.0], [1.0, -w0]])
        else:                   # two real lanes: x = y1 + y2, v = l1 y1 + l2 y2
            to_xv = np.array([[1.0, 1.0], [p_dts[0] / dt, p_dts[1] / dt]])
        assert np.allclose(to_xv[0], w)
        for got, want in ((law(first), sigma), (law(step), noise)):
            got = to_xv @ got @ to_xv.T
            scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
            assert np.allclose(got / scale, want / scale, rtol=0, atol=1e-9)
        # and the lanes' one-step map is A's
        if len(p_dts) == 1:
            mu = np.exp(p_dts[0])
            step_map = np.array([[mu.real, -mu.imag], [mu.imag, mu.real]])
        else:
            mus = np.exp(p_dts)
            step_map = np.array([[mus[0], 0.0], [coupling, mus[1]]])
        assert np.allclose(to_xv @ step_map @ np.linalg.inv(to_xv), a_mat,
                           rtol=1e-12, atol=1e-12 * np.abs(a_mat).max())


class TestBasebandVarianceAtEveryLength:
    """The baseband record has the thermal mean square at every record
    length: over many seeds the mean of x**2 over thermal_rms**2 +
    noise_floor*fs/2 is 1 within 4 standard errors of that mean.  A short
    record holds one slowly varying amplitude, so each record's own ratio
    scatters widely (exponentially, far below 1/gamma) and only the mean
    over seeds is tested.  A spectrum shaped by thermal_psd bin by bin
    reads 24.9 times the rms on the lock's 20 ms at 10 MHz."""

    OUTER = MechMode(2.5e3, 1e5, 1e-7, 300.0)       # 1/gamma = 6.4 s

    def _assert_thermal(self, m, fs, duration, seeds, noise_floor=0.0):
        target = thermal_rms(m) ** 2 + 0.5 * noise_floor * fs
        ratios = np.array([np.mean(_io.read_whole(synth_brownian(
            m, fs, duration, seed, noise_floor)).values ** 2) / target
            for seed in seeds])
        se = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) <= 4.0 * se, (ratios.mean(), se)
        return ratios

    def test_outer_mode_at_the_lock_rate(self):
        # 2 ms at 10 MHz, 3e-4/gamma: five periods of one amplitude
        ratios = self._assert_thermal(self.OUTER, 10e6, 0.002, range(200))
        assert ratios.std() > 0.5

    # a Q 100 mode at 2.5 kHz (1/gamma = 6.4 ms) over 0.1, 1 and 10/gamma
    @pytest.mark.parametrize("noise_floor", [0.0, 1e-26])
    @pytest.mark.parametrize("gamma_t", [0.1, 1.0, 10.0])
    def test_mean_square_over_seeds(self, gamma_t, noise_floor):
        m = MechMode(2.5e3, 100.0, 1e-7, 300.0)
        self._assert_thermal(m, 100e3, gamma_t / m.gamma, range(200),
                             noise_floor)

    @pytest.mark.parametrize("q", [0.2, 0.5])
    def test_mean_square_without_a_complex_pole(self, q):
        m = MechMode(2.5e3, q, 1e-7, 300.0)
        self._assert_thermal(m, 100e3, 0.01, range(100))

    def test_spectrum_is_the_thermal_psd(self):
        # a Q 30 mode: the Welch PSD over thermal_psd, averaged over the
        # 800 bins of 0.2-10 kHz and 488 segments, is 1 within 2%; folding
        # the line into [0, 25 kHz] adds about 0.1% there
        m = MechMode(2.5e3, 30.0, 1e-7, 300.0)
        spec = welch_psd(synth_brownian(m, 50e3, 20.0, seed=30), 4096)
        band = (spec.freqs >= 200.0) & (spec.freqs <= 10e3)
        ratio = spec.psd[band] / thermal_psd(spec.freqs[band], m)
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.02)


class TestOpticalRingdown:
    def test_noiseless_is_exact_exponential(self):
        ts = synth_optical_ringdown(CAV, 5e6, 1e-4, np.inf, seed=0)
        t = ts.times
        assert np.allclose(ts.values, np.exp(-t / CAV.decay_tau), rtol=1e-12)
        fit = fit_exp_decay(ts)
        assert fit.params["tau_s"] == pytest.approx(CAV.decay_tau, rel=1e-9)
        # the residual norm in the fit's units: values over the record's span
        p = fit.params
        model = (p["amplitude"] * np.exp(-np.arange(ts.n) / ts.sample_rate
                                          / p["tau_s"]) + p["offset"])
        assert np.linalg.norm((ts.values - model) / np.ptp(ts.values)) < 1e-6

    def test_snr_100_recovers_tau_within_2pct(self):
        ts = synth_optical_ringdown(CAV, 5e6, 1e-4, 100.0, seed=4)
        fit = fit_exp_decay(ts, cavity_length=CAV.length)
        assert fit.params["tau_s"] == pytest.approx(CAV.decay_tau, rel=0.02)
        assert fit.params["finesse"] == pytest.approx(CAV.finesse, rel=0.02)

    def test_unbiased_over_seeds_at_10_tau(self):
        tau = CAV.decay_tau
        fits = [fit_exp_decay(
            synth_optical_ringdown(CAV, 50 / tau, 10 * tau, 100.0, seed=s)
        ).params["tau_s"] for s in range(100)]
        assert np.mean(fits) == pytest.approx(tau, rel=0.01)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            synth_optical_ringdown(CAV, 1.0 / CAV.decay_tau, 1e-4, 100.0, 0)
        with pytest.raises(ValueError):
            synth_optical_ringdown(CAV, 5e6, CAV.decay_tau, 100.0, 0)


def _envelope(m, *args, **kw):
    """The lock-in envelope of synth_mech_ringdown(m, *args, **kw)."""
    return demodulate_envelope(synth_mech_ringdown(m, *args, **kw), m.f0)


def _whole(rec):
    """A BlockSeries read into one TimeSeries."""
    return TimeSeries(rec.sample_rate, rec.t0,
                      np.concatenate([b.copy() for b in rec.blocks()]),
                      rec.calibration)


class TestMechRingdown:
    def test_amplitude_decay_time(self):
        m = MechMode(2.5e3, 700000.0, 1e-7, 300.0)
        tau_a = 2 * m.q / m.omega0
        assert tau_a == pytest.approx(89.1, rel=0.01)      # seconds
        # envelope starts at x0 and decays with tau_a
        env = _envelope(m, 25e3, 20.0, 1e-9, seed=0)
        drop = env.values[-1] / env.values[0]
        expected = np.exp(-(env.times[-1] - env.times[0]) / tau_a)
        assert drop == pytest.approx(expected, rel=0.01)

    def test_infinite_q_gives_constant_envelope(self):
        m = MechMode(2.5e3, 1e12, 1e-7, 300.0)
        env = _envelope(m, 25e3, 4.0, 1e-9, seed=0).values
        assert np.max(np.abs(env / env[0] - 1.0)) < 1e-3

    def test_recovered_q_independent_of_amplitude(self):
        m = MechMode(2.5e3, 5000.0, 1e-7, 300.0)
        q_fit = []
        for x0 in (1e-9, 1e-7):
            env = _envelope(m, 25e3, 3.0, x0, seed=5, snr=50.0)
            q_fit.append(fit_exp_decay(env, f0=m.f0).params["q"])
        assert q_fit[0] == pytest.approx(q_fit[1], rel=1e-12)
        assert q_fit[0] == pytest.approx(m.q, rel=0.10)

    def test_envelope_matches_lock_in_demodulation(self):
        # the streamed record and the same record held whole
        m = MechMode(2.5e3, 5000.0, 1e-7, 300.0)
        rec = synth_mech_ringdown(m, 25e3, 2.0, 1e-9, seed=0)
        again = demodulate_envelope(_whole(rec), m.f0, 10)
        assert np.array_equal(demodulate_envelope(rec, m.f0, 10).values,
                              again.values)


def _same_series(a, b):
    assert (a.sample_rate, a.t0, a.calibration) == \
           (b.sample_rate, b.t0, b.calibration)
    assert a.values.tobytes() == b.values.tobytes()


class TestStreamedMechRingdown:
    """The chunked ringdown equals the whole-record reference bit for bit."""

    OUTER = MechMode(2.5e3, 1e5, 1e-7, 300.0)

    # (chunk, mode, sample rate, duration, snr, envelope cycles); a chunk of
    # 1000 samples puts many chunks, or blocks longer than one, in a short
    # record
    @pytest.mark.parametrize("chunk, f0, fs, duration, snr, cycles", [
        (1 << 17, 2.5e3, 25e3, 12.34567, 50.0, 10),   # > 2 chunks, ragged
        (1 << 17, 2.5e3, 25e3, 12.34567, np.inf, 10),
        (1000, 2.5e3, 25e3, 3.0001, 50.0, 10),        # chunk of 10 blocks
        (1000, 2.5e3, 25e3, 2.77777, 20.0, 7),        # 1000 % 70 != 0
        (1000, 2.5e3, 26e3, 2.0, 50.0, 200),          # block of 2080 > chunk
        (1000, 2.5e3, 26e3, 2.0, np.inf, 200),
        (1000, 3.3e3, 31e3, 0.05, 50.0, 3),           # partial last block
    ])
    def test_matches_full_array_reference(self, monkeypatch, chunk, f0, fs,
                                          duration, snr, cycles):
        monkeypatch.setattr(_synth, "_CHUNK", chunk)
        m = MechMode(f0, 1e4, 1e-7, 300.0)
        args = (m, fs, duration, 1e-9, 11, snr)
        raw, env = full_array_mech_ringdown(*args, cycles)
        rec = synth_mech_ringdown(*args)
        # each read regenerates the record: the second gives the same bits
        _same_series(_whole(rec), raw)
        _same_series(demodulate_envelope(rec, f0, cycles), env)
        _same_series(demodulate_envelope(raw, f0, cycles), env)

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_demodulates_a_record_read_from_a_file(self, tmp_path,
                                                   monkeypatch, fmt):
        # .bin blocks of 1000 samples and CSV ranges of 16 KiB, read in runs
        # of 14 blocks of 70 samples
        monkeypatch.setattr(_synth, "_CHUNK", 1000)
        monkeypatch.setattr(_io, "_RANGE_BYTES", 1 << 14)
        m = MechMode(2.5e3, 1e4, 1e-7, 300.0)
        args = (m, 25e3, 2.77777, 1e-9, 11, 20.0)
        raw, env = full_array_mech_ringdown(*args, 7)
        path = tmp_path / f"raw.{fmt}"
        _io.write_timeseries(path, synth_mech_ringdown(*args), fmt)
        _same_series(_io.read_whole(_io.open_timeseries(path)), raw)
        _same_series(demodulate_envelope(_io.open_timeseries(path), m.f0, 7),
                     env)

    def test_demodulates_a_record_with_an_offset_and_calibration(self):
        ts = TimeSeries(25e3, 0.37, np.random.default_rng(3).standard_normal(
            50_123), calibration=2e-9)
        _same_series(demodulate_envelope(ts, 2.5e3, 10),
                     full_array_demodulate(ts, 2.5e3, 10))

    @pytest.mark.parametrize("fs, duration, cycles", [
        (19e3, 1.0, 10),        # carrier too slow to resolve
        (25e3, 1.0, 0),         # too few samples per block
        (25e3, 0.007, 10),      # record too short for two blocks
        (25e3, 1e-5, 10),       # shorter than two samples
    ])
    def test_rejects_what_the_reference_rejects(self, fs, duration, cycles):
        args = (self.OUTER, fs, duration, 1e-9, 0, 50.0)
        with pytest.raises(ValueError) as ref:
            full_array_mech_ringdown(*args, cycles)
        with pytest.raises(ValueError) as exc:
            demodulate_envelope(synth_mech_ringdown(*args), self.OUTER.f0,
                                cycles)
        assert str(exc.value) == str(ref.value)

    def test_rejects_a_complex_record(self):
        ts = TimeSeries(25e3, 0.0, np.ones(1000, complex))
        with pytest.raises(ValueError, match="needs a real record"):
            demodulate_envelope(ts, 2.5e3, 1)

    def test_envelope_memory_is_bounded(self):
        # 3M samples: the raw record alone would be 24 MB
        tracemalloc.start()
        try:
            env = _envelope(self.OUTER, 25e3, 120.0, 1e-9, 0, 50.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert env.n == 30_000
        assert peak < 24e6 / 4


class TestDriveSweep:
    def setup_method(self):
        self.outer = MechMode(2.5e3, 1e5, 1e-7, 300.0)
        self.inner = MechMode(250e3, 418000.0, 5e-11, 300.0)
        self.model = NestedModel(outer=self.outer, inner=self.inner)

    def test_steady_state_matches_chain_closed_form(self):
        freqs = [500.0, 2.0e3, 8.0e3, 25e3, 60e3]
        recs = synth_drive_sweep(self.model, freqs, 1e-12, 100, seed=0,
                                 mass_ratio=5e-4)
        for rec in recs:
            amp_b, _ = whole_array_demod(rec.base_motion, rec.drive_freq)
            amp_r, _ = whole_array_demod(rec.response_motion, rec.drive_freq)
            expected = np.sqrt(chain_transfer(2 * np.pi * rec.drive_freq,
                                              self.model, 5e-4))
            assert amp_r / amp_b == pytest.approx(expected, rel=5e-3)

    def test_single_resonator_flat_below_resonance(self):
        freqs = [200.0, 1e3, 5e3, 20e3, 50e3]
        recs = synth_drive_sweep(self.inner, freqs, 1e-12, 100, seed=1)
        for rec in recs:
            amp_b, _ = whole_array_demod(rec.base_motion, rec.drive_freq)
            amp_r, _ = whole_array_demod(rec.response_motion, rec.drive_freq)
            db = 20 * np.log10(amp_r / amp_b)
            assert abs(db) <= 1.0

    def test_nested_design_point_minus_40db_at_25khz(self):
        recs = synth_drive_sweep(self.model, [25e3], 1e-12, 100, seed=2,
                                 mass_ratio=5e-4)
        amp_b, _ = whole_array_demod(recs[0].base_motion, 25e3)
        amp_r, _ = whole_array_demod(recs[0].response_motion, 25e3)
        assert 20 * np.log10(amp_r / amp_b) == pytest.approx(-40.0, abs=1.0)

    def test_nested_sweep_slope_above_10khz(self):
        import math
        from optomech import estimate_transfer
        ppd = 25
        ks = range(math.ceil(3.0 * ppd), math.floor(4.98 * ppd) + 1)
        freqs = [10 ** (k / ppd) for k in ks]
        recs = synth_drive_sweep(self.model, freqs, 1e-12, 200, seed=11,
                                 mass_ratio=5e-4, response_noise_rms=1e-17)
        est = estimate_transfer(recs, 5)
        mask = est.bin_centers >= 10e3
        slope = np.polyfit(np.log10(est.bin_centers[mask]),
                           est.magnitude_db[mask], 1)[0]
        assert -slope == pytest.approx(40.0, abs=1.0)

    def test_piezo_rolloff_cancels_in_ratio(self):
        recs = synth_drive_sweep(self.inner, [5e3], 1e-12, 100, seed=3,
                                 piezo_corner_hz=1e3)
        amp_b, _ = whole_array_demod(recs[0].base_motion, 5e3)
        amp_r, _ = whole_array_demod(recs[0].response_motion, 5e3)
        expected = np.sqrt(transfer_power(2 * np.pi * 5e3, self.inner))
        assert amp_r / amp_b == pytest.approx(expected, rel=5e-3)
        # but the base amplitude itself is rolled off
        assert amp_b == pytest.approx(1e-12 / np.sqrt(1 + 25.0), rel=1e-3)

    def test_determinism_and_validation(self):
        a = synth_drive_sweep(self.inner, [1e3], 1e-12, 100, seed=9,
                              response_noise_rms=1e-15)
        b = synth_drive_sweep(self.inner, [1e3], 1e-12, 100, seed=9,
                              response_noise_rms=1e-15)
        assert np.array_equal(a[0].response_motion.values,
                              b[0].response_motion.values)
        with pytest.raises(ValueError):
            synth_drive_sweep(self.model, [1e3], 1e-12, 100, seed=0)  # no ratio
        with pytest.raises(ValueError):
            synth_drive_sweep(self.inner, [2e3, 1e3], 1e-12, 100, seed=0)
        with pytest.raises(ValueError):
            synth_drive_sweep(self.inner, [1e3], 1e-12, 10, seed=0)


class TestRecordTypes:
    def test_timeseries_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(0.0, 0.0, np.zeros(4))
        with pytest.raises(ValueError):
            TimeSeries(1.0, 0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            TimeSeries(1.0, 0.0, np.array([1.0, np.nan]))

    def test_drive_record_validation(self):
        a = TimeSeries(1e3, 0.0, np.zeros(10))
        b = TimeSeries(2e3, 0.0, np.zeros(10))
        c = TimeSeries(1e3, 0.0, np.zeros(11))
        DriveRecord(100.0, a, a)
        with pytest.raises(ValueError):
            DriveRecord(100.0, a, b)
        with pytest.raises(ValueError):
            DriveRecord(100.0, a, c)
        with pytest.raises(ValueError):
            DriveRecord(0.0, a, a)
        d = TimeSeries(1e3, 0.0, np.zeros(10, complex))
        for base, response in ((d, a), (a, d)):
            with pytest.raises(ValueError, match="must be real-valued"):
                DriveRecord(100.0, base, response)

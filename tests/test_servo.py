import dataclasses
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from optomech import (Cavity, CoolingConfig, LockConfig, MechMode, NestedModel,
                      effective_temperature, fringe_response, linewidth,
                      optical_damping_rate, simulate_lock, synth_brownian)
from optomech import synth as _synth
from optomech.io import read_whole
from oracles import whole_list_simulate_lock

CAV = Cavity(0.05, 1.064e-6, 181000.0)
INNER = MechMode(250e3, 418000.0, 5e-11, 300.0)


def _lock_setup(q=30.0, m_eff=1e-6, temp=300.0):
    outer = MechMode(2.5e3, q, m_eff, temp)
    model = NestedModel(outer=outer, inner=INNER)
    lw = linewidth(CAV)
    cfg = LockConfig(kp=0.0, ki=1.28e-5, kd=0.0, actuator_range=1e-9,
                     loop_rate=10e6, detuning_bias=-lw / (2 * math.sqrt(3)))
    return model, cfg


class TestOpticalDamping:
    def setup_method(self):
        self.kappa = CAV.kappa
        self.w_m = 2 * np.pi * 2.5e3

    def test_zero_detuning_gives_zero(self):
        cfg = CoolingConfig(g0=2 * np.pi * 5.0, n_cav=1e8, detuning=0.0,
                            kappa=self.kappa)
        assert optical_damping_rate(cfg, self.w_m) == 0.0

    def test_antisymmetric_in_detuning(self):
        for d in (0.1, 0.5, 2.0):
            plus = CoolingConfig(2 * np.pi * 5.0, 1e8, d * self.kappa,
                                 self.kappa)
            minus = CoolingConfig(2 * np.pi * 5.0, 1e8, -d * self.kappa,
                                  self.kappa)
            assert optical_damping_rate(plus, self.w_m) == pytest.approx(
                -optical_damping_rate(minus, self.w_m), rel=1e-12)

    def test_resolved_sideband_limit(self):
        w_m = 2 * np.pi * 250e3
        kappa = w_m / 100.0
        g0, n = 2 * np.pi * 2.0, 1e6
        cfg = CoolingConfig(g0, n, -w_m, kappa)
        assert optical_damping_rate(cfg, w_m) == pytest.approx(
            4 * g0 ** 2 * n / kappa, rel=1e-4)

    def test_red_detuning_cools(self):
        cfg = CoolingConfig(2 * np.pi * 5.0, 1e8, -0.5 * self.kappa,
                            self.kappa)
        assert optical_damping_rate(cfg, self.w_m) > 0.0

    def test_continuity_near_zero(self):
        g = [optical_damping_rate(
            CoolingConfig(2 * np.pi * 5.0, 1e8, d, self.kappa), self.w_m)
            for d in (-1e-3, 0.0, 1e-3)]
        assert abs(g[0]) < 1e-6 * abs(optical_damping_rate(
            CoolingConfig(2 * np.pi * 5.0, 1e8, -self.kappa / 2, self.kappa),
            self.w_m))
        assert g[1] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CoolingConfig(1.0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            CoolingConfig(1.0, 1.0, 0.0, 0.0)
        cfg = CoolingConfig(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            optical_damping_rate(cfg, 0.0)


class TestEffectiveTemperature:
    def test_no_damping_is_bath_temperature(self):
        m = MechMode(2.5e3, 1e5, 1e-7, 300.0)
        assert effective_temperature(m, 0.0) == 300.0

    def test_nine_gamma_gives_tenth(self):
        m = MechMode(2.5e3, 1e5, 1e-7, 300.0)
        assert effective_temperature(m, 9 * m.gamma) == pytest.approx(
            30.0, rel=1e-12)

    def test_monotone_and_nonnegative(self):
        m = MechMode(2.5e3, 1e5, 1e-7, 300.0)
        gammas = np.linspace(-0.9 * m.gamma, 100 * m.gamma, 50)
        temps = [effective_temperature(m, g) for g in gammas]
        assert all(a > b for a, b in zip(temps, temps[1:]))
        assert all(t >= 0 for t in temps)

    def test_instability_raises(self):
        m = MechMode(2.5e3, 1e5, 1e-7, 300.0)
        with pytest.raises(ValueError):
            effective_temperature(m, -m.gamma)

    def test_red_detuned_lock_cools_outer_mode(self):
        outer = MechMode(2.5e3, 1e5, 1e-7, 300.0)
        cfg = CoolingConfig(g0=2 * np.pi * 5.0, n_cav=1e8,
                            detuning=-CAV.kappa / 2, kappa=CAV.kappa)
        g_opt = optical_damping_rate(cfg, outer.omega0)
        assert g_opt > 0
        assert effective_temperature(outer, g_opt) < outer.temp


class TestSimulateLock:
    def test_zero_thermal_motion_trivially_locked(self):
        model, cfg = _lock_setup(temp=0.0)
        res = simulate_lock(model, CAV, cfg, 0.005, seed=3)
        assert res.lock_acquired
        assert res.closed_loop_error_rms == 0.0

    def test_zero_gain_equals_open_loop_synthesis(self):
        model, _ = _lock_setup()
        lw = linewidth(CAV)
        bias = -lw / (2 * math.sqrt(3))
        cfg = LockConfig(kp=0.0, ki=0.0, kd=0.0, actuator_range=1e-9,
                         loop_rate=10e6, detuning_bias=bias)
        res = simulate_lock(model, CAV, cfg, 0.005, seed=5)
        # the actuator stays where the loop starts: on the first sample
        x = read_whole(synth_brownian(model.outer, 10e6, 0.005, 5)).values
        det = bias + (2 * CAV.fsr / CAV.wavelength) * (x - x[0])
        expected = fringe_response(det, CAV) - fringe_response(bias, CAV)
        assert np.array_equal(read_whole(res.error_signal).values, expected)

    def test_deterministic_per_seed(self):
        model, cfg = _lock_setup()
        a = simulate_lock(model, CAV, cfg, 0.004, seed=11)
        b = simulate_lock(model, CAV, cfg, 0.004, seed=11)
        assert np.array_equal(read_whole(a.error_signal).values,
                              read_whole(b.error_signal).values)
        assert np.array_equal(a.actuator.values, b.actuator.values)

    def test_derived_records_read_the_same_every_pass(self):
        # the error signal and detuning are evaluated again on every read
        model, cfg = _lock_setup()
        res = simulate_lock(model, CAV, cfg, (2 * _synth._CHUNK + 7) / 10e6,
                            seed=11)
        for rec in (res.error_signal, res.detuning):
            first, second = (b"".join(block.tobytes() for block in rec.blocks())
                             for _ in range(2))
            assert len(first) == 8 * rec.n
            assert first == second

    def test_non_finite_derived_block_raises(self):
        # an infinite bias leaves the actuator and the error signal finite
        # (the fringe level is 0 there) but not the detuning: it is rejected
        # as a TimeSeries rejects it, when it is read
        model, cfg0 = _lock_setup()
        cfg = dataclasses.replace(cfg0, detuning_bias=math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = simulate_lock(model, CAV, cfg, 0.001, seed=3)
            assert np.isfinite(read_whole(res.error_signal).values).all()
            with pytest.raises(ValueError, match="must be finite"):
                read_whole(res.detuning)

    def test_acquires_and_linearises(self):
        model, cfg = _lock_setup()
        lw = linewidth(CAV)
        res = simulate_lock(model, CAV, cfg, 0.02, seed=23)
        assert res.lock_acquired
        assert res.closed_loop_error_rms <= 0.1 * res.open_loop_error_rms
        assert res.open_loop_detuning_rms > lw / 2
        assert res.closed_loop_detuning_rms < lw / 20

    def test_saturation_reported(self):
        model, cfg0 = _lock_setup()
        cfg = LockConfig(kp=cfg0.kp, ki=cfg0.ki, kd=cfg0.kd,
                         actuator_range=1e-13, loop_rate=cfg0.loop_rate,
                         detuning_bias=cfg0.detuning_bias)
        res = simulate_lock(model, CAV, cfg, 0.004, seed=23)
        assert res.saturation_fraction > 0.01
        assert not res.lock_acquired

    def test_loop_rate_precondition(self):
        model, cfg0 = _lock_setup()
        cfg = dataclasses.replace(cfg0, loop_rate=10e3)
        with pytest.raises(ValueError):
            simulate_lock(model, CAV, cfg, 0.01, seed=0)

    def test_config_validation(self):
        _, cfg = _lock_setup()
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, loop_rate=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, actuator_range=0.0)


def _same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


class TestSimulateLockMatchesPerStepLoop:
    """simulate_lock must give the per-step reference's bits exactly."""

    def _check(self, cfg, duration, seed, temp=300.0):
        model, _ = _lock_setup(temp=temp)
        with warnings.catch_warnings():
            # a 2-sample record leaves an empty tail: its rms is nan
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = whole_list_simulate_lock(model, CAV, cfg, duration, seed)
            res = simulate_lock(model, CAV, cfg, duration, seed)
        for name in ("error_signal", "actuator", "detuning"):
            rec = getattr(res, name)
            got = rec.values if name == "actuator" else read_whole(rec).values
            assert got.dtype == ref[name].dtype
            assert got.tobytes() == ref[name].tobytes(), name
        assert res.lock_acquired is ref["lock_acquired"]
        for name in ("saturation_fraction", "open_loop_error_rms",
                     "closed_loop_error_rms", "open_loop_detuning_rms",
                     "closed_loop_detuning_rms"):
            got = getattr(res, name)
            assert type(got) is float
            if math.isnan(ref[name]):
                assert _same_bits(got, ref[name]), name
            else:
                assert got == ref[name], name
        return res

    def _cfg(self, **kw):
        _, base = _lock_setup()
        args = dict(kp=base.kp, ki=base.ki, kd=base.kd,
                    actuator_range=base.actuator_range,
                    loop_rate=base.loop_rate,
                    detuning_bias=base.detuning_bias)
        args.update(kw)
        return LockConfig(**args)

    def test_all_gains_nonzero(self):
        res = self._check(self._cfg(kp=2e-12, kd=1e-20), 0.002, seed=31)
        assert res.saturation_fraction < 1.0

    def test_default_integral_lock(self):
        res = self._check(self._cfg(), 0.002, seed=23)
        assert res.saturation_fraction == 0.0

    def test_saturates_on_both_rails(self):
        rail = 2e-13
        res = self._check(self._cfg(actuator_range=rail, kp=1e-12), 0.004,
                          seed=23)
        act = res.actuator.values
        assert np.any(act == rail) and np.any(act == -rail)

    def test_open_loop_clips_from_first_step(self):
        rail = 1e-14
        model, _ = _lock_setup()
        x0 = read_whole(synth_brownian(model.outer, 10e6, 0.002, 3)).values[0]
        assert abs(x0) > rail
        res = self._check(self._cfg(actuator_range=rail), 0.002, seed=3)
        assert res.actuator.values[0] == x0

    @pytest.mark.parametrize("n", [2, 3])
    def test_shortest_records(self, n):
        self._check(self._cfg(kp=1e-12, kd=1e-20), n / 10e6, seed=5)

    # lengths that end a chunk of the loop early, late or on its edge, span
    # several chunks, or are prime (the Brownian motion's irfft takes
    # pocketfft's Bluestein path at 131,101 samples); each id ends in
    # "-True", as the loop starts on lock
    @pytest.mark.parametrize("n", [2, 3, _synth._CHUNK - 1, _synth._CHUNK + 1,
                                   2 * _synth._CHUNK, 3 * _synth._CHUNK + 7,
                                   131_101], ids=lambda n: f"{n}-True")
    def test_chunk_edges(self, n):
        res = self._check(self._cfg(kp=1e-12, kd=1e-20), n / 10e6, seed=5)
        assert res.actuator.n == n

    def test_zero_motion(self):
        # zero motion: the actuator starts at 0.0 and every error term is 0
        self._check(self._cfg(), 0.001, seed=3, temp=0.0)


class TestLockMemory:
    """The lock holds the motion and the actuator, synthesises the motion a
    chunk at a time as its loop reads it, and evaluates the error signal
    and detuning a chunk at a time when they are read.  Chunks of
    8,192 samples keep the traced loop to a few seconds."""

    SAMPLES = 1 << 13                           # samples in a chunk
    N = 16 * SAMPLES + 7
    CHUNK = 8 * SAMPLES                         # bytes in a float chunk

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        monkeypatch.setattr(_synth, "_CHUNK", self.SAMPLES)

    def test_lock_holds_two_records(self):
        model, cfg = _lock_setup()
        tracemalloc.start()
        try:
            res = simulate_lock(model, CAV, cfg, self.N / 10e6, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.actuator.n == self.N
        # the motion and the actuator, filled as the loop reads the motion's
        # blocks; beside them the synthesis's chunk buffers (its tables
        # mu**k and mu**-k, 4 chunks at this Q, the drive pairs, 2, x and the
        # drive's cross term, 1 each) and the loop's two lists of a chunk of
        # Python floats (about 4 chunks each), 16 chunks in all, or the 20%
        # tails of the error signal and detuning and np.std's work array
        # (about 10 chunks).  Holding the error signal and detuning whole
        # takes two records more (32 chunks), and a half spectrum built
        # beside the motion one more half record (16)
        assert peak <= 2 * 8 * self.N + 18 * self.CHUNK

    def test_reading_the_error_signal_takes_a_few_chunks(self):
        model, cfg = _lock_setup()
        res = simulate_lock(model, CAV, cfg, self.N / 10e6, seed=7)
        tracemalloc.start()
        try:
            total = sum(block.size for block in res.error_signal.blocks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == self.N
        assert peak <= 4 * self.CHUNK
